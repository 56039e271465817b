package xsact

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

func liveFacadeXML(n int) string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < n; i++ {
		kind := []string{"gps", "radio", "solar"}[i%3]
		fmt.Fprintf(&b, "<product><name>unit%d</name><kind>%s</kind></product>", i, kind)
	}
	b.WriteString("</catalog>")
	return b.String()
}

// facadeFingerprint canonicalizes a document's full query behaviour:
// document-order results, ranked pages with exact score bits, paging
// envelopes, and the serialized corpus itself.
func facadeFingerprint(t *testing.T, d *Document, queries []string) string {
	t.Helper()
	var b strings.Builder
	for _, q := range queries {
		rs, err := d.Search(q)
		fmt.Fprintf(&b, "q=%s err=%v n=%d\n", q, err, len(rs))
		for _, r := range rs {
			b.WriteString(r.Describe())
			b.WriteString("\n")
		}
		for _, limit := range []int{0, 2} {
			for _, offset := range []int{0, 1} {
				page, scores, total, err := d.SearchRankedPage(q, limit, offset)
				fmt.Fprintf(&b, "page l=%d o=%d err=%v total=%d\n", limit, offset, err, total)
				for i, r := range page {
					fmt.Fprintf(&b, "%016x %s\n", math.Float64bits(scores[i]), r.Describe())
				}
			}
		}
	}
	b.WriteString(d.XML())
	return b.String()
}

// TestFacadeLiveEquivalence is the end-to-end version of the update
// package's property test: after interleaved facade writes (through
// the caching engine layer), every query answer and the serialized
// corpus must be byte-identical to a from-scratch one-index parse of
// the same logical corpus — for a document over one index and over
// K ∈ {2, 8} shard parts.
func TestFacadeLiveEquivalence(t *testing.T) {
	queries := []string{"gps", "radio unit4", "solar", "unit1", "nothere"}
	for _, k := range []int{1, 2, 8} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			doc := liveDoc(t, func() *xmltree.Node { return xmltree.MustParseString(liveFacadeXML(9)) }, k, 0)

			// Mirror the logical corpus as XML fragments.
			frags := make([]string, 0, 12)
			for i := 0; i < 9; i++ {
				kind := []string{"gps", "radio", "solar"}[i%3]
				frags = append(frags, fmt.Sprintf("<product><name>unit%d</name><kind>%s</kind></product>", i, kind))
			}
			ids := make([]string, len(frags))
			for i := range ids {
				ids[i] = fmt.Sprint(i)
			}

			check := func(step string) {
				t.Helper()
				cold, err := ParseString("<catalog>" + strings.Join(frags, "") + "</catalog>")
				if err != nil {
					t.Fatal(err)
				}
				if got, want := facadeFingerprint(t, doc, queries), facadeFingerprint(t, cold, queries); got != want {
					t.Fatalf("%s: live document diverges from cold parse:\nlive:\n%s\ncold:\n%s", step, got, want)
				}
			}

			add := func(frag string) {
				t.Helper()
				id, err := doc.AddEntity(frag)
				if err != nil {
					t.Fatal(err)
				}
				frags = append(frags, frag)
				ids = append(ids, id)
			}
			remove := func(i int) {
				t.Helper()
				if err := doc.RemoveEntity(ids[i]); err != nil {
					t.Fatal(err)
				}
				frags = append(frags[:i], frags[i+1:]...)
				ids = append(ids[:i], ids[i+1:]...)
			}

			add(`<product><name>fresh10</name><kind>gps</kind></product>`)
			check("after add")
			remove(2)
			check("after remove")
			add(`<product><name>fresh11</name><kind>radio</kind></product>`)
			remove(0)
			check("after mixed batch")
			if backlog(doc) == 0 {
				t.Fatal("no pending backlog before compaction")
			}
			if err := doc.Compact(); err != nil {
				t.Fatal(err)
			}
			// Compaction renumbers; refresh the handles positionally.
			for i := range ids {
				ids[i] = fmt.Sprint(i)
			}
			check("after compact")
			if n := backlog(doc); n != 0 {
				t.Fatalf("backlog of %d after compaction", n)
			}
			remove(len(ids) - 1)
			check("after post-compaction remove")
		})
	}
}

// TestLiveSnapshotFacadeRoundTrip: a written document snapshots in the
// journaled layout and LoadSnapshot resumes it, pending writes intact.
func TestLiveSnapshotFacadeRoundTrip(t *testing.T) {
	doc, err := ParseString(liveFacadeXML(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.AddEntity(`<product><name>fresh</name><kind>laser</kind></product>`); err != nil {
		t.Fatal(err)
	}
	if err := doc.RemoveEntity("1"); err != nil {
		t.Fatal(err)
	}
	var snap strings.Builder
	if err := doc.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// The XML argument is superseded by the snapshot's own base.
	loaded, err := LoadSnapshotString("<catalog/>", strings.NewReader(snap.String()))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"laser", "gps", "unit1"}
	if got, want := facadeFingerprint(t, loaded, queries), facadeFingerprint(t, doc, queries); got != want {
		t.Fatalf("snapshot round-trip diverges:\n%s\nvs\n%s", got, want)
	}
	if delta, tombs := loaded.PendingUpdates(); delta != 1 || tombs != 1 {
		t.Fatalf("pending backlog lost in round-trip: %d/%d", delta, tombs)
	}
}

// TestLiveRandomizedFacadeOps is a lighter random interleaving at the
// facade level (the update package holds the exhaustive property
// test), catching regressions in the cache layer's epoch handling.
func TestLiveRandomizedFacadeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	doc, err := ParseString(liveFacadeXML(6))
	if err != nil {
		t.Fatal(err)
	}
	live := 6
	serial := 100
	for op := 0; op < 30; op++ {
		switch {
		case rng.Float64() < 0.5 || live <= 1:
			frag := fmt.Sprintf("<product><name>r%d</name><kind>gps</kind></product>", serial)
			serial++
			if _, err := doc.AddEntity(frag); err != nil {
				t.Fatal(err)
			}
			live++
		case rng.Float64() < 0.7:
			rs, err := doc.Search("gps")
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) == 0 {
				t.Fatal("gps matched nothing despite gps entities present")
			}
		default:
			if err := doc.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Final sanity: search count equals the number of gps entities.
	if _, err := doc.Search("gps"); err != nil {
		t.Fatal(err)
	}
}
