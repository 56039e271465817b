package persist

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/engine"
)

// shardedSnapshot saves a sharded engine over testRoot and returns the
// engine and raw snapshot bytes.
func shardedSnapshot(t *testing.T, shards int) (*engine.Engine, []byte) {
	t.Helper()
	root := testRoot()
	eng := engine.NewWithConfig(root, engine.Config{Shards: shards})
	return eng, snapshotOf(t, eng, Meta{CorpusName: "reviews", Seed: 11})
}

// TestShardedRoundTrip: a multi-shard snapshot reloads into a sharded
// engine whose searches and aggregate statistics match the saved
// engine exactly, with zero shard rebuilds.
func TestShardedRoundTrip(t *testing.T) {
	eng, snap := shardedSnapshot(t, 3)
	if !bytes.HasPrefix(snap, []byte("XSACTSNAP 4\n")) {
		t.Fatalf("sharded snapshot header = %q, want version 4", snap[:12])
	}

	loaded, meta, err := Load(bytes.NewReader(snap), testRoot(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Shards != 3 || loaded.ShardCount() != 3 {
		t.Fatalf("loaded %d shards (meta %d), want 3", loaded.ShardCount(), meta.Shards)
	}
	for _, q := range []string{"tomtom", "tomtom gps", "easy camera"} {
		want, _ := eng.Search(q)
		got, err := loaded.Search(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d results, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Label != want[i].Label || !got[i].Node.ID.Equal(want[i].Node.ID) {
				t.Fatalf("%q result %d: %s@%s vs %s@%s", q, i,
					got[i].Label, got[i].Node.ID, want[i].Label, want[i].Node.ID)
			}
		}
	}
	if loaded.IndexStats() != eng.IndexStats() {
		t.Fatalf("index stats diverge after round trip: %+v vs %+v", loaded.IndexStats(), eng.IndexStats())
	}
	if n := loaded.Sharded().Rebuilds(); n != 0 {
		t.Fatalf("clean snapshot load rebuilt %d shards, want 0", n)
	}
}

// withSection returns a copy of snap whose n-th section of the given
// kind carries payload instead, under a freshly computed CRC — targeted
// damage that gets past the checksum to the checks behind it.
func withSection(t *testing.T, snap []byte, kind byte, n int, payload []byte) []byte {
	t.Helper()
	off, size := v4Span(t, snap, kind, n)
	var out bytes.Buffer
	out.Write(snap[:off-9])
	if err := writeV4Section(&out, kind, payload); err != nil {
		t.Fatal(err)
	}
	out.Write(snap[off+size+4:])
	return out.Bytes()
}

// TestShardedSingleShardCorruption: flipping bytes in exactly one
// shard's postings must not fail the load — that one shard is rebuilt
// from the tree on first use, and searches remain identical.
func TestShardedSingleShardCorruption(t *testing.T) {
	eng, snap := shardedSnapshot(t, 3)
	off, size := v4Span(t, snap, secPost, 1)
	bad := flipped(flipped(snap, off), off+size/2)

	loaded, _, err := Load(bytes.NewReader(bad), testRoot(), engine.Config{})
	if err != nil {
		t.Fatalf("single-shard corruption should not fail the load: %v", err)
	}
	for _, q := range []string{"tomtom gps", "easy", "camera zoom"} {
		want, _ := eng.Search(q)
		got, err := loaded.Search(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d results, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Label != want[i].Label {
				t.Fatalf("%q result %d: %q vs %q", q, i, got[i].Label, want[i].Label)
			}
		}
	}
	if n := loaded.Sharded().Rebuilds(); n != 1 {
		t.Fatalf("rebuilds = %d, want exactly 1 (the corrupt shard)", n)
	}
}

// TestShardedHeadCorruption: corrupting the eagerly-verified frequency
// section, or declaring a shard count the postings sections do not
// match, must fail the whole load (the caller rebuilds).
func TestShardedHeadCorruption(t *testing.T) {
	_, snap := shardedSnapshot(t, 2)
	off, _ := v4Span(t, snap, secFreqs, 0)
	if _, _, err := Load(bytes.NewReader(flipped(snap, off)), testRoot(), engine.Config{}); err == nil {
		t.Fatal("frequency-section corruption must fail the load")
	}

	off, size := v4Span(t, snap, secHead, 0)
	var head v4Head
	if err := gob.NewDecoder(bytes.NewReader(snap[off : off+size])).Decode(&head); err != nil {
		t.Fatal(err)
	}
	head.Meta.Shards = 5 // declared K no longer matches the sections
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&head); err != nil {
		t.Fatal(err)
	}
	bad := withSection(t, snap, secHead, 0, buf.Bytes())
	if _, _, err := Load(bytes.NewReader(bad), testRoot(), engine.Config{}); err == nil {
		t.Fatal("shard-count mismatch must fail the load")
	}
}

// TestShardedWrongCorpus: a sharded snapshot of one corpus must be
// rejected for a different tree.
func TestShardedWrongCorpus(t *testing.T) {
	_, snap := shardedSnapshot(t, 2)
	other := testRoot()
	other.Children[0].Tag = "mutated"
	if _, _, err := Load(bytes.NewReader(snap), other, engine.Config{}); err == nil {
		t.Fatal("fingerprint mismatch must fail the load")
	}
}
