package slca

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/reference"
)

// TestPropScanEagerMatchesNaive cross-checks the linear-merge stream
// (Scan Eager's discipline) against the reference oracle on random
// inputs, the same way the galloping stream is verified.
func TestPropScanEagerMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for i := 0; i < 500; i++ {
		k := 1 + r.Intn(3)
		ls := randomLists(r, k)
		scan := Collect(ScanStream(ls))
		naive := reference.Naive(ls)
		if !reflect.DeepEqual(idStrings(scan), idStrings(naive)) {
			t.Fatalf("iteration %d: scan %v != naive %v (lists %v)",
				i, idStrings(scan), idStrings(naive), ls)
		}
	}
}

// TestPropScanEagerMatchesIndexedLookup holds the linear-merge stream
// to the reference Indexed Lookup Eager on up to four lists.
func TestPropScanEagerMatchesIndexedLookup(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for i := 0; i < 500; i++ {
		ls := randomLists(r, 1+r.Intn(4))
		a := Collect(ScanStream(ls))
		b := reference.IndexedLookupEager(ls)
		if !reflect.DeepEqual(idStrings(a), idStrings(b)) {
			t.Fatalf("iteration %d: scan %v != indexed %v", i, idStrings(a), idStrings(b))
		}
	}
}

func TestScanEagerEdgeCases(t *testing.T) {
	if got := Collect(ScanStream(nil)); got != nil {
		t.Fatalf("no lists -> %v", got)
	}
	if got := Collect(ScanStream(lists(ids("0.0"), nil))); got != nil {
		t.Fatalf("empty list -> %v", got)
	}
	got := Collect(ScanStream(lists(ids("0.1", "0.1.2"))))
	if !reflect.DeepEqual(idStrings(got), []string{"0.1.2"}) {
		t.Fatalf("single keyword -> %v", idStrings(got))
	}
}

func BenchmarkScanStream(b *testing.B) {
	ls := buildBenchLists(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Collect(ScanStream(ls))
	}
}
