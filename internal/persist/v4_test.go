package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/update"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// v4SnapshotOf saves eng and checks the bytes are in the v4 layout.
func v4SnapshotOf(t testing.TB, eng *engine.Engine, meta Meta) []byte {
	t.Helper()
	snap := snapshotOf(t, eng, meta)
	if !bytes.HasPrefix(snap, []byte("XSACTSNAP 4\n")) {
		t.Fatalf("snapshot header = %q, want version 4", snap[:12])
	}
	return snap
}

// newSharded serves root through engine.FromSharded over a K-shard
// engine for K > 1, and through engine.NewWithConfig otherwise: one
// index either way.
func newSharded(root *xmltree.Node, k int, cfg engine.Config) *engine.Engine {
	if k > 1 {
		return engine.FromSharded(shard.Build(root, k), cfg)
	}
	return engine.NewWithConfig(root, cfg)
}

// sectionCount counts the sections of one kind in snapshot bytes.
func sectionCount(snap []byte, kind byte) int {
	n := 0
	for pos := bytes.IndexByte(snap, '\n') + 1; pos < len(snap); pos += 9 + int(binary.LittleEndian.Uint64(snap[pos+1:pos+9])) + 4 {
		if snap[pos] == kind {
			n++
		}
	}
	return n
}

// materializeAll decodes every posting list of a loaded engine into
// the heap: Lookup turns a lazily served compact list resident.
func materializeAll(eng *engine.Engine) {
	idx := eng.Index()
	for _, term := range idx.Vocabulary() {
		idx.Lookup(term)
	}
}

// rankedFingerprint canonicalizes an engine's ranked answers — labels,
// scores, and paging envelopes — over a query set at several windows.
// Two engines with equal fingerprints are observationally identical to
// a ranked-search client.
func rankedFingerprint(t *testing.T, eng *engine.Engine, queries ...string) string {
	t.Helper()
	var b strings.Builder
	for _, q := range queries {
		for _, opts := range []xseek.SearchOptions{
			{},
			{Limit: 1},
			{Limit: 2, Offset: 1},
			{Limit: 8},
		} {
			page, err := eng.SearchRankedPage(q, opts)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			fmt.Fprintf(&b, "q=%s limit=%d offset=%d total=%d at=%d\n", q, opts.Limit, opts.Offset, page.Total, page.Offset)
			for _, r := range page.Results {
				fmt.Fprintf(&b, "  %s %s %.17g\n", r.Label, r.Node.ID, r.Score)
			}
		}
	}
	st := eng.IndexStats()
	fmt.Fprintf(&b, "stats=%+v nodes=%d\n", st, eng.TotalNodes())
	return b.String()
}

var v4Queries = []string{"tomtom gps", "garmin", "canon camera", "easy camera", "tomtom"}

// TestV4RoundTripEquivalence: an engine loaded from a v4 snapshot must
// be bit-identical to the fresh-built one — same ranked labels, same
// scores, same paging envelopes — whichever constructor built it,
// serving postings lazily out of the snapshot bytes or with every list
// decoded into the heap first (eager).
func TestV4RoundTripEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for _, eager := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/eager=%v", shards, eager), func(t *testing.T) {
				fresh := newSharded(testRoot(), shards, engine.Config{})
				snap := v4SnapshotOf(t, fresh, Meta{CorpusName: "reviews", Seed: 11})
				if n := sectionCount(snap, secPost); n != 1 || sectionCount(snap, secFreqs) != 0 {
					t.Fatalf("snapshot carries %d postings sections and a frequency section, want one index", n)
				}
				loaded, meta, err := Load(bytes.NewReader(snap), testRoot(), engine.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if eager {
					materializeAll(loaded)
				}
				if meta.CorpusName != "reviews" || meta.Seed != 11 {
					t.Fatalf("meta after load = %+v", meta)
				}
				if meta.Rebuilt || loaded.Index() == nil {
					t.Fatalf("meta.Rebuilt = %v, index %v: want one index opened from the file", meta.Rebuilt, loaded.Index())
				}

				want := rankedFingerprint(t, fresh, v4Queries...)
				got := rankedFingerprint(t, loaded, v4Queries...)
				if got != want {
					t.Fatalf("ranked results diverge after v4 round trip:\n%s\nvs fresh:\n%s", got, want)
				}
			})
		}
	}
}

// TestV4Deterministic: the compact payloads — the symbol table and the
// postings section — are byte-identical across saves of one engine
// (the table is interned in sorted vocabulary order, so IDs and the
// delta streams keyed by them cannot drift with map iteration order).
// The gob-encoded schema section is exempt: gob serializes maps in
// iteration order.
func TestV4Deterministic(t *testing.T) {
	for _, shards := range []int{1, 3} {
		eng := newSharded(testRoot(), shards, engine.Config{})
		a := v4SnapshotOf(t, eng, Meta{CorpusName: "reviews", Seed: 11})
		b := v4SnapshotOf(t, eng, Meta{CorpusName: "reviews", Seed: 11})
		if len(a) != len(b) {
			t.Fatalf("shards=%d: two saves of one engine differ in size (%d vs %d bytes)", shards, len(a), len(b))
		}
		for _, kind := range []byte{secSymbols, secPost} {
			ao, al := v4Span(t, a, kind, 0)
			bo, bl := v4Span(t, b, kind, 0)
			if ao != bo || al != bl || !bytes.Equal(a[ao:ao+al], b[bo:bo+bl]) {
				t.Fatalf("shards=%d: section %q differs between saves", shards, kind)
			}
		}
	}
}

// TestV4FileMmapRoundTrip: the LoadFile fast path — mmap where the
// platform allows — serves the same answers as the generic reader path
// and as the fresh engine.
func TestV4FileMmapRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap", "reviews.v4")
	fresh := newSharded(testRoot(), 2, engine.Config{})
	if err := SaveFile(path, fresh, Meta{CorpusName: "reviews", Seed: 11}); err != nil {
		t.Fatal(err)
	}

	loaded, meta, err := LoadFile(path, testRoot(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Rebuilt {
		t.Fatal("a current snapshot was rebuilt instead of opened")
	}
	want := rankedFingerprint(t, fresh, v4Queries...)
	if got := rankedFingerprint(t, loaded, v4Queries...); got != want {
		t.Fatalf("mmap-loaded engine diverges from fresh:\n%s\nvs\n%s", got, want)
	}

	// The lazy-decoded index reports its payload footprint.
	if m := loaded.Metrics(); m.IndexBytes == 0 {
		t.Fatalf("v4-loaded engine reports IndexBytes = 0")
	}

	// LoadFile still dispatches the retired v3 layout through the
	// reader path.
	if _, _, err := LoadFile(filepath.Join("testdata", "live_v3_k2.snap"), nil, engine.Config{}); err != nil {
		t.Fatalf("LoadFile(v3): %v", err)
	}
}

// TestV4LiveCompactedSelfContained: a compacted live corpus saves as a
// self-contained v4 snapshot (the tree travels in the 'X' section),
// reloads without the caller knowing the written-to corpus, and
// accepts the same post-restart writes as an engine that never
// restarted — also after being saved again with no write of its own.
func TestV4LiveCompactedSelfContained(t *testing.T) {
	root := xmltree.MustParseString(liveCorpusXML(6))
	eng := engine.New(root)
	mustWrite(t, eng, "<product><name>fresh0</name><kind>gps</kind></product>", -1)
	mustWrite(t, eng, "<product><name>fresh1</name><kind>solar</kind></product>", 1)
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}

	snap := v4SnapshotOf(t, eng, Meta{CorpusName: "shop", Seed: 7})
	if !bytes.HasPrefix(snap, []byte("XSACTSNAP 4\n")) {
		t.Fatalf("compacted live engine snapshot header = %q, want v4", snap[:12])
	}

	// The caller's root is ignored: pass a tree that cannot possibly
	// describe the written-to corpus.
	loaded, _, err := Load(bytes.NewReader(snap), xmltree.MustParseString("<unrelated/>"), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Saved again before any write of its own, the reload still
	// embeds the written-to corpus rather than fingerprinting it as if
	// the caller could regenerate it.
	resaved, _, err := Load(bytes.NewReader(v4SnapshotOf(t, loaded, Meta{CorpusName: "shop", Seed: 7})), xmltree.MustParseString("<unrelated/>"), engine.Config{})
	if err != nil {
		t.Fatalf("resave of the reload: %v", err)
	}
	reloads := []*engine.Engine{loaded, resaved}
	queries := []string{"gps", "solar", "fresh0", "item3 radio"}
	for i, e := range reloads {
		if got, want := searchFingerprint(t, e, queries...), searchFingerprint(t, eng, queries...); got != want {
			t.Fatalf("self-contained v4 reload %d diverges:\n%s\nvs\n%s", i, got, want)
		}
	}

	// Interleave further writes on every side; they must stay in step.
	for _, e := range append([]*engine.Engine{eng}, reloads...) {
		mustWrite(t, e, "<product><name>post0</name><kind>gps</kind></product>", -1)
		mustWrite(t, e, "<product><name>post1</name><kind>lunar</kind></product>", 2)
	}
	queries = append(queries, "post0", "lunar", "gps")
	for i, e := range reloads {
		if got, want := searchFingerprint(t, e, queries...), searchFingerprint(t, eng, queries...); got != want {
			t.Fatalf("post-reload writes diverge on reload %d:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestV4NeverWrittenSavesNoCorpus: every in-process engine has a live
// layer from construction, but one that was never written serves a
// regenerable corpus, so its snapshot stores only derived state — no
// 'X' (base tree) and no 'J' (journal) — whichever constructor built
// it.
func TestV4NeverWrittenSavesNoCorpus(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng := newSharded(testRoot(), shards, engine.Config{})
			snap := v4SnapshotOf(t, eng, Meta{CorpusName: "reviews", Seed: 11})
			pos := bytes.IndexByte(snap, '\n') + 1
			for pos < len(snap) {
				if k := snap[pos]; k == secXML || k == secJournal {
					t.Fatalf("never-written engine's snapshot carries section %q", k)
				}
				pos += 9 + int(binary.LittleEndian.Uint64(snap[pos+1:pos+9])) + 4
			}
			loaded, _, err := Load(bytes.NewReader(snap), testRoot(), engine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if loaded.CorpusEmbedded() {
				t.Fatal("reload of a never-written snapshot is marked as embedding its corpus")
			}
		})
	}
}

// TestV4JournaledRoundTrip: a live engine with pending journaled
// writes saves as v4 with its base tree ('X') and journal ('J'), and
// reloads — through Load and the mmap LoadFile path alike — with the
// same answers and the same pending backlog; a later compaction and
// write keep the reload in step with the engine that never restarted.
func TestV4JournaledRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := engine.Config{}
			eng := newSharded(xmltree.MustParseString(liveCorpusXML(4)), shards, cfg)
			if err := eng.Compact(); err != nil {
				t.Fatal(err)
			}
			mustWrite(t, eng, "<product><name>pending</name><kind>gps</kind></product>", 2)

			snap := v4SnapshotOf(t, eng, Meta{CorpusName: "shop", Seed: 7})
			v4Span(t, snap, secXML, 0)
			v4Span(t, snap, secJournal, 0)
			path := filepath.Join(t.TempDir(), "shop.snap")
			if err := os.WriteFile(path, snap, 0o644); err != nil {
				t.Fatal(err)
			}
			viaReader, _, err := Load(bytes.NewReader(snap), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			viaFile, _, err := LoadFile(path, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkInStep(t, eng, []*engine.Engine{viaReader, viaFile}, "pending", "gps", "item2", "radio")
		})
	}
}

// checkInStep asserts that every reload answers like ref with the
// same pending backlog, then compacts all of them, applies one more
// write to each, and asserts they still agree.
func checkInStep(t *testing.T, ref *engine.Engine, reloads []*engine.Engine, queries ...string) {
	t.Helper()
	check := func(stage string) {
		t.Helper()
		want, wm := searchFingerprint(t, ref, queries...), ref.Metrics()
		for i, e := range reloads {
			if got := searchFingerprint(t, e, queries...); got != want {
				t.Fatalf("%s: reload %d diverges:\n%s\nvs\n%s", stage, i, got, want)
			}
			if m := e.Metrics(); m.PendingDelta != wm.PendingDelta || m.PendingTombstones != wm.PendingTombstones {
				t.Fatalf("%s: reload %d pending backlog %d/%d, want %d/%d", stage, i,
					m.PendingDelta, m.PendingTombstones, wm.PendingDelta, wm.PendingTombstones)
			}
		}
	}
	check("reload")
	for _, e := range append([]*engine.Engine{ref}, reloads...) {
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, e, "<product><name>after</name><kind>lunar</kind></product>", 0)
	}
	queries = append(queries, "after", "lunar")
	check("compact + write")
}

// TestV4JournalFailsClosed: a journal is accepted writes, so any doubt
// about it fails the load rather than serving a corpus that silently
// lost or misapplied them — a flipped bit in the 'J' section, a 'J'
// section without the embedded base it replays over, and a journal
// whose ops do not replay.
func TestV4JournalFailsClosed(t *testing.T) {
	root := xmltree.MustParseString(liveCorpusXML(4))
	eng := engine.New(root)
	mustWrite(t, eng, "<product><name>pending</name><kind>gps</kind></product>", -1)
	snap := v4SnapshotOf(t, eng, Meta{CorpusName: "shop", Seed: 7})
	jOff, jLen := v4Span(t, snap, secJournal, 0)
	xOff, xLen := v4Span(t, snap, secXML, 0)

	var bogus bytes.Buffer
	if err := gob.NewEncoder(&bogus).Encode([]update.JournalOp{{Remove: true, Ord: 99}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bit flip in journal", flipped(snap, jOff+jLen/2), "checksum mismatch"},
		{"journal without corpus", append(append([]byte(nil), snap[:xOff-9]...), snap[xOff+xLen+4:]...), "without an embedded corpus"},
		{"unreplayable journal", withSection(t, snap, secJournal, 0, bogus.Bytes()), "replay op 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Load(bytes.NewReader(tc.data), root, engine.Config{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load: err = %v, want %q", err, tc.want)
			}
			path := filepath.Join(t.TempDir(), "bad.snap")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := LoadFile(path, root, engine.Config{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadFile: err = %v, want %q", err, tc.want)
			}
		})
	}
}

// v4Span locates one raw section in snapshot bytes: the offset and
// length of its payload (the CRC is the 4 bytes following it). n picks
// among repeated kinds ('P' appears once per shard).
func v4Span(t *testing.T, snap []byte, kind byte, n int) (off, size int) {
	t.Helper()
	pos := bytes.IndexByte(snap, '\n') + 1
	if pos == 0 {
		t.Fatal("snapshot missing header line")
	}
	for pos < len(snap) {
		k := snap[pos]
		sz := int(binary.LittleEndian.Uint64(snap[pos+1 : pos+9]))
		if k == kind {
			if n == 0 {
				return pos + 9, sz
			}
			n--
		}
		pos += 9 + sz + 4
	}
	t.Fatalf("section %q #%d not found", kind, n)
	return 0, 0
}

// flipped returns a copy of snap with the byte at off xor-ed.
func flipped(snap []byte, off int) []byte {
	out := append([]byte(nil), snap...)
	out[off] ^= 0x40
	return out
}

// TestV4CorruptionFailsClosed: every flavor of damage to an
// eagerly-verified region — truncation mid-section, a flipped bit in
// the symbol table, a monolithic postings payload, or a stored CRC —
// must fail the load (sending the caller to a rebuild), never serve
// from the damaged bytes.
func TestV4CorruptionFailsClosed(t *testing.T) {
	eng := engine.New(testRoot())
	snap := v4SnapshotOf(t, eng, Meta{CorpusName: "reviews", Seed: 11})
	symOff, symLen := v4Span(t, snap, secSymbols, 0)
	postOff, postLen := v4Span(t, snap, secPost, 0)

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated mid-section", snap[:postOff+postLen/2]},
		{"truncated mid-header", snap[:postOff-5]},
		{"bit flip in symbol table", flipped(snap, symOff+symLen/2)},
		{"bit flip in postings payload", flipped(snap, postOff+postLen/2)},
		{"bit flip in stored CRC", flipped(snap, postOff+postLen+2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Load(bytes.NewReader(tc.data), testRoot(), engine.Config{}); err == nil {
				t.Fatal("corrupt v4 snapshot loaded without error")
			}

			// The mmap path must reject it identically.
			path := filepath.Join(t.TempDir(), "corrupt.v4")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := LoadFile(path, testRoot(), engine.Config{}); err == nil {
				t.Fatal("corrupt v4 snapshot loaded via LoadFile without error")
			}
		})
	}
}

// TestV4VersionSkewFailsClosed: a v3 live envelope whose base is a v4
// snapshot is a combination no writer produces; loadLive must refuse
// it rather than replay a journal over an untested base.
func TestV4VersionSkewFailsClosed(t *testing.T) {
	root := xmltree.MustParseString(liveCorpusXML(4))
	base := v4SnapshotOf(t, engine.New(root), Meta{CorpusName: "shop", Seed: 7})

	env := liveEnvelope{
		Meta:    Meta{CorpusName: "shop", Seed: 7},
		BaseXML: []byte(xmltree.XMLString(root)),
		Base:    base,
	}
	env.Checksum = env.checksum()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %d\n", magic, LiveFormatVersion)
	if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
		t.Fatal(err)
	}

	_, _, err := Load(bytes.NewReader(buf.Bytes()), root, engine.Config{})
	if err == nil {
		t.Fatal("v3 envelope wrapping a v4 base loaded without error")
	}
	if !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("err = %v, want version-skew rejection", err)
	}
}

// TestSnapshotCrossVersion: what each snapshot version does on load.
// v1/v2 held only regenerable derived state and fail closed with a
// rebuild error; v3 fixtures written by an older build load as one
// index equal to a fresh engine after the same writes, and so do the
// v4 fixtures an older build wrote over sharded bases; v4 — the one
// layout written — round-trips plain, sharded, journaled and
// journaled+sharded engines through Load and the mmap LoadFile path,
// and the reloads stay in step through a compaction and one more
// write. CI runs this by name as the cross-version compatibility gate.
func TestSnapshotCrossVersion(t *testing.T) {
	legacy := func(version int) []byte {
		return []byte(fmt.Sprintf("%s %d\nanything", magic, version))
	}
	t.Run("v1 single-index", func(t *testing.T) {
		_, _, err := Load(bytes.NewReader(legacy(1)), testRoot(), engine.Config{})
		if err == nil || !strings.Contains(err.Error(), "legacy layout") {
			t.Fatalf("err = %v, want legacy-layout rejection", err)
		}
	})
	t.Run("v2 sharded", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "v2.snap")
		if err := os.WriteFile(path, legacy(2), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadFile(path, testRoot(), engine.Config{})
		if err == nil || !strings.Contains(err.Error(), "legacy layout") {
			t.Fatalf("err = %v, want legacy-layout rejection", err)
		}
	})

	t.Run("v3 live", func(t *testing.T) {
		for _, tc := range []struct {
			fixture   string
			compacted bool
		}{
			{"live_v3_k1.snap", false},
			{"live_v3_k2.snap", false},
			{"live_v3_k1_compacted.snap", true},
		} {
			t.Run(tc.fixture, func(t *testing.T) {
				ref := engine.New(xmltree.MustParseString(liveCorpusXML(4)))
				mustWrite(t, ref, "<product><name>fresh</name><kind>solar</kind></product>", 1)
				if tc.compacted {
					if err := ref.Compact(); err != nil {
						t.Fatal(err)
					}
				}

				path := filepath.Join("testdata", tc.fixture)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(data, []byte("XSACTSNAP 3\n")) {
					t.Fatalf("fixture header = %q, want version 3", data[:12])
				}
				viaReader, meta, err := Load(bytes.NewReader(data), nil, engine.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if meta.CorpusName != "shop" || meta.Seed != 7 || !meta.Rebuilt || viaReader.Metrics().Shards != 1 {
					t.Fatalf("meta = %+v, %d shards, want shop/7 rebuilt as one index", meta, viaReader.Metrics().Shards)
				}
				viaFile, _, err := LoadFile(path, nil, engine.Config{})
				if err != nil {
					t.Fatal(err)
				}
				// Resaved untouched, a v3 engine still carries its
				// written-to corpus — even when its journal was empty —
				// so the v4 copy loads without the caller's tree.
				resaved, _, err := Load(bytes.NewReader(v4SnapshotOf(t, viaReader, meta)), xmltree.MustParseString("<unrelated/>"), engine.Config{})
				if err != nil {
					t.Fatalf("v4 resave of the v3 load: %v", err)
				}
				checkInStep(t, ref, []*engine.Engine{viaReader, viaFile, resaved}, "fresh", "solar", "gps", "radio", "item1", "item2")
			})
		}
	})

	t.Run("v3 corrupt", func(t *testing.T) {
		data, err := os.ReadFile(filepath.Join("testdata", "live_v3_k1.snap"))
		if err != nil {
			t.Fatal(err)
		}
		// The first "item0" lies in BaseXML, ahead of the nested base
		// and the journal: flipping a byte there is bit rot the
		// envelope checksum must catch.
		at := bytes.Index(data, []byte("item0"))
		if at < 0 {
			t.Fatal(`fixture has no "item0"`)
		}
		rotted := bytes.Clone(data)
		rotted[at+4] ^= 0x01
		if _, _, err := Load(bytes.NewReader(rotted), nil, engine.Config{}); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("bit rot: err = %v, want checksum mismatch", err)
		}

		// A BaseXML that no longer matches the recorded corpus, with the
		// envelope checksum recomputed over it, must fail the
		// fingerprint check instead.
		nl := bytes.IndexByte(data, '\n')
		var env liveEnvelope
		if err := gob.NewDecoder(bytes.NewReader(data[nl+1:])).Decode(&env); err != nil {
			t.Fatal(err)
		}
		env.BaseXML = bytes.Replace(env.BaseXML, []byte("item0"), []byte("other"), 1)
		env.Checksum = env.checksum()
		var buf bytes.Buffer
		buf.Write(data[:nl+1])
		if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(&buf, nil, engine.Config{}); err == nil || !strings.Contains(err.Error(), "does not match") {
			t.Fatalf("altered base: err = %v, want fingerprint mismatch", err)
		}
	})

	t.Run("v4 compact", func(t *testing.T) {
		for _, tc := range []struct {
			name    string
			shards  int
			journal bool
		}{
			{"plain", 1, false},
			{"sharded", 2, false},
			{"journaled", 1, true},
			{"journaled+sharded", 2, true},
		} {
			t.Run(tc.name, func(t *testing.T) {
				root := xmltree.MustParseString(liveCorpusXML(4))
				ref := newSharded(root, tc.shards, engine.Config{})
				if tc.journal {
					mustWrite(t, ref, "<product><name>fresh</name><kind>solar</kind></product>", 1)
				}
				snap := v4SnapshotOf(t, ref, Meta{CorpusName: "shop", Seed: 7})
				path := filepath.Join(t.TempDir(), "shop.snap")
				if err := os.WriteFile(path, snap, 0o644); err != nil {
					t.Fatal(err)
				}
				viaReader, _, err := Load(bytes.NewReader(snap), root, engine.Config{})
				if err != nil {
					t.Fatal(err)
				}
				viaFile, _, err := LoadFile(path, root, engine.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if got := viaReader.Metrics().Shards; got != 1 {
					t.Fatalf("reloaded with %d shards, want 1", got)
				}
				checkInStep(t, ref, []*engine.Engine{viaReader, viaFile}, "fresh", "solar", "gps", "radio", "item1", "item2")
			})
		}
	})

	t.Run("v4 legacy sharded", func(t *testing.T) {
		for _, fx := range legacyShardFixtures {
			t.Run(fx.file, func(t *testing.T) {
				ref := fx.reference(t)
				data := fx.read(t)
				viaReader, meta, err := Load(bytes.NewReader(data), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if meta.CorpusName != "shop" || meta.Seed != 7 || !meta.Rebuilt {
					t.Fatalf("meta = %+v, want shop/7 rebuilt from the tree", meta)
				}
				viaFile, _, err := LoadFile(filepath.Join("testdata", fx.file), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
				if err != nil {
					t.Fatal(err)
				}
				// The per-shard postings are never decoded, so a byte
				// flipped inside one changes nothing.
				off, size := v4Span(t, data, secPost, 1)
				rotted, _, err := Load(bytes.NewReader(flipped(data, off+size/2)), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
				if err != nil {
					t.Fatalf("flipped byte in a shard's postings: %v", err)
				}
				resave := v4SnapshotOf(t, viaReader, Meta{CorpusName: "shop", Seed: 7})
				if p, f := sectionCount(resave, secPost), sectionCount(resave, secFreqs); p != 1 || f != 0 {
					t.Fatalf("re-save carries %d postings and %d frequency sections, want 1 and 0", p, f)
				}
				resaved, _, err := Load(bytes.NewReader(resave), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
				if err != nil {
					t.Fatal(err)
				}
				for i, e := range []*engine.Engine{viaReader, viaFile, rotted, resaved} {
					checkLegacyLoad(t, fmt.Sprintf("load %d", i), ref, e, fx.queries()...)
				}
			})
		}
	})
	t.Run("v4 pre-bounds", func(t *testing.T) {
		for _, tc := range []struct {
			fixture   string
			compacted bool
		}{
			{"v4_prebounds.snap", false},
			{"v4_prebounds_compacted.snap", true},
		} {
			t.Run(tc.fixture, func(t *testing.T) {
				ref := engine.New(xmltree.MustParseString(liveCorpusXML(4)))
				if tc.compacted {
					mustWrite(t, ref, "<product><name>fresh</name><kind>solar</kind></product>", 1)
					if err := ref.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				path := filepath.Join("testdata", tc.fixture)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if x := sectionCount(data, secXML) == 1; !bytes.HasPrefix(data, []byte("XSACTSNAP 4\n")) || x != tc.compacted || sectionCount(data, secJournal) != 0 {
					t.Fatalf("%s is not a v4 snapshot with 'X' = %v and no 'J'", tc.fixture, tc.compacted)
				}
				off, size := v4Span(t, data, secPost, 0)
				if _, err := index.OpenCompact(nil, index.NewSymbolTable(), data[off:off+size]); !errors.Is(err, index.ErrPreBoundsPayload) {
					t.Fatalf("%s postings open with %v, want ErrPreBoundsPayload", tc.fixture, err)
				}
				viaReader, meta, err := Load(bytes.NewReader(data), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if meta.CorpusName != "shop" || meta.Seed != 7 || !meta.Rebuilt {
					t.Fatalf("meta = %+v, want shop/7 rebuilt from the tree", meta)
				}
				if viaReader.CorpusEmbedded() != tc.compacted {
					t.Fatalf("corpus embedded = %v, want %v", viaReader.CorpusEmbedded(), tc.compacted)
				}
				viaFile, _, err := LoadFile(path, xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
				if err != nil {
					t.Fatal(err)
				}
				// Re-saved, the file is in the current layout and opens
				// without a rebuild.
				resaved, rmeta, err := Load(bytes.NewReader(v4SnapshotOf(t, viaReader, meta)), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if rmeta.Rebuilt {
					t.Fatal("the re-save was rebuilt instead of opened")
				}
				reloads := []*engine.Engine{viaReader, viaFile, resaved}
				// A cold approximate page takes the streamed route, which
				// prunes with block maxima on every reload.
				for i, e := range reloads {
					if _, err := e.SearchRankedPage("gps", xseek.SearchOptions{Limit: 1, Accuracy: xseek.AccuracyApprox}); err != nil {
						t.Fatal(err)
					}
					if m := e.Metrics(); m.RankedStreamed != 1 || m.RankedWAND == 0 {
						t.Fatalf("reload %d: ranked_streamed %d / ranked_wand %d, want 1 / > 0", i, m.RankedStreamed, m.RankedWAND)
					}
				}
				checkInStep(t, ref, reloads, "fresh", "solar", "gps", "radio", "item1", "item2")
			})
		}
	})
}
