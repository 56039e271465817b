package slca

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/reference"
)

// TestStreamCrossAlgorithmEquivalence: on random posting lists, every
// stream consumed to exhaustion must produce exactly the reference
// oracle's result set, in the same document order.
func TestStreamCrossAlgorithmEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		k := 1 + r.Intn(3)
		ls := randomLists(r, k)
		want := reference.Naive(ls)
		checks := map[string][]dewey.ID{
			"ScanStream":          Collect(ScanStream(ls)),
			"IndexedLookupStream": Collect(IndexedLookupStream(ls)),
			"Stream":              Collect(Stream(ls)),
		}
		for name, got := range checks {
			if !sameIDs(got, want) {
				t.Fatalf("trial %d: %s mismatch:\n got %v\nwant %v\nlists %v",
					trial, name, idStrings(got), idStrings(want), ls)
			}
		}
	}
}

// TestStreamPrefixInvariance: for every k, the first k pulls of the
// stream equal the first k entries of the reference eager output in
// document order — the property that makes early termination exact.
func TestStreamPrefixInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		ls := randomLists(r, 1+r.Intn(3))
		want := reference.ScanEager(ls)
		for _, k := range []int{1, 2, 3, 7} {
			if k > len(want) {
				k = len(want)
			}
			for name, mk := range map[string]func() Iterator{
				"scan":    func() Iterator { return ScanStream(ls) },
				"indexed": func() Iterator { return IndexedLookupStream(ls) },
			} {
				it := mk()
				var got []dewey.ID
				for i := 0; i < k; i++ {
					v, ok := it.Next()
					if !ok {
						break
					}
					got = append(got, v)
				}
				if !sameIDs(got, want[:k]) {
					t.Fatalf("trial %d: %s prefix %d mismatch: got %v want %v (lists %v)",
						trial, name, k, idStrings(got), idStrings(want[:k]), ls)
				}
			}
		}
	}
}

func TestStreamEmptyAndSingleList(t *testing.T) {
	if _, ok := Stream(nil).Next(); ok {
		t.Fatal("no lists should stream nothing")
	}
	if _, ok := Stream(lists(ids("0.1"), nil)).Next(); ok {
		t.Fatal("an empty list should stream nothing")
	}
	got := Collect(Stream(lists(ids("0.1", "0.1.2", "2"))))
	if !reflect.DeepEqual(idStrings(got), []string{"0.1.2", "2"}) {
		t.Fatalf("single-list stream got %v", idStrings(got))
	}
}

// TestStreamedIDsAppendSafe: streamed IDs are capacity-pinned views,
// so a consumer that extends one (e.g. building a child path) must get
// a fresh backing array instead of clobbering the index storage the
// view aliases.
func TestStreamedIDsAppendSafe(t *testing.T) {
	ls := lists(ids("0.0", "0.1.0"), ids("0.1.1"))
	it := IndexedLookupStream(ls)
	v, ok := it.Next()
	if !ok {
		t.Fatal("expected a result")
	}
	_ = append(v, 99) // extending a view must copy, not write through
	got := Collect(IndexedLookupStream(ls))
	want := Collect(IndexedLookupStream(lists(ids("0.0", "0.1.0"), ids("0.1.1"))))
	if !sameIDs(got, want) {
		t.Fatalf("append through a streamed view corrupted index state: %v vs %v",
			idStrings(got), idStrings(want))
	}
}

func TestPlanStreamed(t *testing.T) {
	stats := index.PlanStats{Min: 1000, Max: 50000}
	if !PlanStreamed(stats, 10) {
		t.Fatal("small window over a large result bound should stream")
	}
	if PlanStreamed(stats, 500) {
		t.Fatal("window close to the result bound should stay eager")
	}
	if PlanStreamed(stats, 0) {
		t.Fatal("need <= 0 (all results) cannot stream")
	}
	if PlanStreamed(index.PlanStats{Min: 8, Max: 8}, 10) {
		t.Fatal("driver shorter than the window should stay eager")
	}
	if PlanStreamed(stats, 1<<62+1) {
		t.Fatal("a window near MaxInt must not overflow into a streamed route")
	}
}

func sameIDs(a, b []dewey.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
