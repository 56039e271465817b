package persist

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/xmltree"
)

func liveCorpusXML(n int) string {
	var b strings.Builder
	b.WriteString("<shop>")
	for i := 0; i < n; i++ {
		kind := "gps"
		if i%2 == 1 {
			kind = "radio"
		}
		fmt.Fprintf(&b, "<product><name>item%d</name><kind>%s</kind></product>", i, kind)
	}
	b.WriteString("</shop>")
	return b.String()
}

// searchFingerprint canonicalizes an engine's answers over a query set.
func searchFingerprint(t *testing.T, eng *engine.Engine, queries ...string) string {
	t.Helper()
	var b strings.Builder
	for _, q := range queries {
		rs, err := eng.Search(q)
		fmt.Fprintf(&b, "q=%s err=%v n=%d\n", q, err, len(rs))
		for _, r := range rs {
			b.WriteString(r.Label)
			b.WriteString("\n")
			b.WriteString(xmltree.XMLString(r.Node))
		}
	}
	st := eng.IndexStats()
	fmt.Fprintf(&b, "stats=%+v nodes=%d\n", st, eng.TotalNodes())
	return b.String()
}

func mustWrite(t testing.TB, eng *engine.Engine, addXML string, removeOrd int) {
	t.Helper()
	if addXML != "" {
		n, err := xmltree.ParseString(addXML)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.AddEntity(n); err != nil {
			t.Fatal(err)
		}
	}
	if removeOrd >= 0 {
		if err := eng.RemoveEntity([]int{removeOrd}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLiveSnapshotRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := engine.Config{}
			root := xmltree.MustParseString(liveCorpusXML(6))
			eng := newSharded(root, shards, cfg)

			mustWrite(t, eng, "<product><name>fresh0</name><kind>gps</kind></product>", -1)
			mustWrite(t, eng, "<product><name>fresh1</name><kind>solar</kind></product>", 1)

			var buf bytes.Buffer
			if err := Save(&buf, eng, Meta{CorpusName: "shop", Seed: 7}); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(buf.String(), "XSACTSNAP 4\n") {
				t.Fatalf("live engine snapshot not in v4 layout: %q", buf.String()[:24])
			}
			v4Span(t, buf.Bytes(), secJournal, 0)

			// The caller's root is ignored for a live snapshot; pass an
			// unrelated tree to prove it is self-contained.
			loaded, meta, err := Load(bytes.NewReader(buf.Bytes()), xmltree.MustParseString("<other/>"), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if meta.CorpusName != "shop" || meta.Seed != 7 {
				t.Fatalf("meta = %+v", meta)
			}
			queries := []string{"gps", "radio", "solar", "fresh1", "item1", "zzz"}
			if got, want := searchFingerprint(t, loaded, queries...), searchFingerprint(t, eng, queries...); got != want {
				t.Fatalf("reloaded live engine diverges:\ngot:\n%s\nwant:\n%s", got, want)
			}
			// The replayed backlog must still be pending (not silently
			// compacted away), so a later compaction behaves identically.
			lm, em := loaded.Metrics(), eng.Metrics()
			if lm.PendingDelta != em.PendingDelta || lm.PendingTombstones != em.PendingTombstones {
				t.Fatalf("pending backlog drifted: loaded %+v, live %+v", lm, em)
			}
		})
	}
}

func TestLiveSnapshotCrashMidCompactionReplay(t *testing.T) {
	cfg := engine.Config{}
	root := xmltree.MustParseString(liveCorpusXML(6))
	eng := engine.NewWithConfig(root, cfg)
	mustWrite(t, eng, "<product><name>fresh0</name><kind>gps</kind></product>", 2)
	mustWrite(t, eng, "<product><name>fresh1</name><kind>gps</kind></product>", -1)

	// The durable image on disk at the moment compaction starts: base
	// ('X') + journal ('J'). A crash anywhere inside compaction leaves
	// exactly this.
	var crashImage bytes.Buffer
	if err := Save(&crashImage, eng, Meta{CorpusName: "shop"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(crashImage.Bytes(), []byte("XSACTSNAP 4\n")) {
		t.Fatalf("crash image header = %q, want version 4", crashImage.Bytes()[:12])
	}
	v4Span(t, crashImage.Bytes(), secXML, 0)
	v4Span(t, crashImage.Bytes(), secJournal, 0)

	// The surviving process compacts; the crashed replica replays.
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := Load(bytes.NewReader(crashImage.Bytes()), xmltree.MustParseString("<other/>"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"gps", "radio", "fresh0", "item2", "zzz"}
	if got, want := searchFingerprint(t, recovered, queries...), searchFingerprint(t, eng, queries...); got != want {
		t.Fatalf("recovered replica diverges from compacted engine:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// And compacting the recovered replica converges to the same corpus.
	if err := recovered.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, want := searchFingerprint(t, recovered, queries...), searchFingerprint(t, eng, queries...); got != want {
		t.Fatalf("post-recovery compaction diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLiveSnapshotCorruptionRejected(t *testing.T) {
	eng := engine.New(xmltree.MustParseString(liveCorpusXML(4)))
	mustWrite(t, eng, "<product><name>fresh0</name><kind>gps</kind></product>", -1)
	var buf bytes.Buffer
	if err := Save(&buf, eng, Meta{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xff
	if _, _, err := Load(bytes.NewReader(raw), xmltree.MustParseString("<other/>"), engine.Config{}); err == nil {
		t.Fatal("corrupt live snapshot loaded without error")
	}
}
