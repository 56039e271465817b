package slca

import (
	"math/rand"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/reference"
)

// TestStreamsKeepRootSLCA: the document root's Dewey ID is the nil
// slice, so a stream that used nil to mean "no tentative result yet"
// silently dropped a root SLCA. Every stream must match the reference
// on lists that hold the root itself.
func TestStreamsKeepRootSLCA(t *testing.T) {
	var root dewey.ID // what xmltree.Parse assigns the document element
	cases := [][]index.PostingList{
		{{root}},
		{{root}, {root}},
		{{root}, {dewey.New(0, 1)}},
		{{root}, {dewey.New(0), dewey.New(2, 1)}},
		{{root, dewey.New(1)}, {dewey.New(0), dewey.New(2)}},
		{{root, dewey.New(0, 0)}, {dewey.New(0, 1)}},
	}
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		ls := randomLists(r, 1+r.Intn(3))
		for i := range ls {
			if r.Intn(2) == 0 {
				ls[i] = append(index.PostingList{root}, ls[i]...)
			}
		}
		cases = append(cases, ls)
	}
	for ci, ls := range cases {
		want := reference.Naive(ls)
		for name, got := range map[string][]dewey.ID{
			"ScanStream":          Collect(ScanStream(ls)),
			"IndexedLookupStream": Collect(IndexedLookupStream(ls)),
			"Stream":              Collect(Stream(ls)),
		} {
			if !sameIDs(got, want) {
				t.Fatalf("case %d: %s = %v, want %v (lists %v)", ci, name, idStrings(got), idStrings(want), ls)
			}
		}
	}
}
