package dewey

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRootProperties(t *testing.T) {
	r := Root()
	if r.Level() != 0 {
		t.Fatalf("root level = %d, want 0", r.Level())
	}
	if _, ok := r.Parent(); ok {
		t.Fatal("root must not have a parent")
	}
	if got := r.String(); got != "/" {
		t.Fatalf("root String() = %q, want /", got)
	}
}

func TestChildParentRoundTrip(t *testing.T) {
	id := New(3, 1, 4)
	child := id.Child(5)
	if child.Level() != 4 {
		t.Fatalf("child level = %d, want 4", child.Level())
	}
	parent, ok := child.Parent()
	if !ok {
		t.Fatal("child must have a parent")
	}
	if !parent.Equal(id) {
		t.Fatalf("parent = %v, want %v", parent, id)
	}
}

func TestChildDoesNotAliasParent(t *testing.T) {
	id := New(1, 2)
	c0 := id.Child(0)
	c1 := id.Child(9)
	if c0[2] != 0 || c1[2] != 9 {
		t.Fatalf("children alias storage: %v %v", c0, c1)
	}
	if id.Level() != 2 {
		t.Fatalf("parent mutated: %v", id)
	}
}

func TestCompareDocumentOrder(t *testing.T) {
	cases := []struct {
		a, b ID
		want int
	}{
		{Root(), Root(), 0},
		{Root(), New(0), -1},
		{New(0), Root(), 1},
		{New(0), New(1), -1},
		{New(0, 5), New(0, 5), 0},
		{New(0, 5), New(0, 6), -1},
		{New(1), New(0, 9, 9), 1},
		{New(0, 1), New(0, 1, 0), -1}, // ancestor precedes descendant
	}
	for _, c := range cases {
		got := c.a.Compare(c.b)
		if sign(got) != c.want {
			t.Errorf("Compare(%v,%v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestAncestry(t *testing.T) {
	a := New(0, 2)
	d := New(0, 2, 7, 1)
	if !a.IsAncestorOf(d) {
		t.Fatal("a should be ancestor of d")
	}
	if d.IsAncestorOf(a) {
		t.Fatal("d must not be ancestor of a")
	}
	if a.IsAncestorOf(a) {
		t.Fatal("IsAncestorOf must be proper")
	}
	if !a.IsAncestorOrSelf(a) {
		t.Fatal("IsAncestorOrSelf must include self")
	}
	if New(0, 3).IsAncestorOf(d) {
		t.Fatal("sibling branch is not an ancestor")
	}
	if !Root().IsAncestorOf(d) {
		t.Fatal("root is an ancestor of every non-root node")
	}
}

func TestLCA(t *testing.T) {
	cases := []struct {
		a, b, want ID
	}{
		{New(0, 1, 2), New(0, 1, 3), New(0, 1)},
		{New(0, 1, 2), New(0, 1, 2, 5), New(0, 1, 2)},
		{New(0), New(1), Root()},
		{New(2, 2), New(2, 2), New(2, 2)},
		{Root(), New(4, 4), Root()},
	}
	for _, c := range cases {
		got := c.a.LCA(c.b)
		if !got.Equal(c.want) {
			t.Errorf("LCA(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		rev := c.b.LCA(c.a)
		if !rev.Equal(c.want) {
			t.Errorf("LCA not symmetric: LCA(%v,%v) = %v", c.b, c.a, rev)
		}
		if p := c.a.PrefixLCA(c.b); !p.Equal(c.want) {
			t.Errorf("PrefixLCA(%v,%v) = %v, want %v", c.a, c.b, p, c.want)
		}
	}
}

// TestPrefixLCACapPinned: PrefixLCA results share the receiver's
// backing array but pin capacity, so appending to the result cannot
// overwrite the receiver's later components.
func TestPrefixLCACapPinned(t *testing.T) {
	a := New(0, 1, 2)
	p := a.PrefixLCA(New(0, 1, 9))
	if cap(p) != len(p) {
		t.Fatalf("cap(%v) = %d, want pinned to len %d", p, cap(p), len(p))
	}
	_ = append(p, 77)
	if !a.Equal(New(0, 1, 2)) {
		t.Fatalf("append through PrefixLCA result mutated receiver: %v", a)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	for _, id := range []ID{Root(), New(0), New(1, 0, 7), New(12, 345, 6)} {
		s := id.String()
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !back.Equal(id) {
			t.Fatalf("round trip %v -> %q -> %v", id, s, back)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"a", "0.x", "-1", "0.-2", "0..1"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseEmptyIsRoot(t *testing.T) {
	id, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if id.Level() != 0 {
		t.Fatalf("Parse(\"\") = %v, want root", id)
	}
}

func randomID(r *rand.Rand, maxDepth, maxFanout int) ID {
	depth := r.Intn(maxDepth + 1)
	id := make(ID, depth)
	for i := range id {
		id[i] = r.Intn(maxFanout)
	}
	return id
}

func TestPropCompareAntisymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := randomID(r, 6, 4)
		b := randomID(r, 6, 4)
		if sign(a.Compare(b)) != -sign(b.Compare(a)) {
			t.Fatalf("antisymmetry violated for %v, %v", a, b)
		}
	}
}

func TestPropCompareTransitiveViaSort(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ids := make([]ID, 500)
	for i := range ids {
		ids[i] = randomID(r, 5, 5)
	}
	sort.Slice(ids, func(i, j int) bool { return SortIDs(ids[i], ids[j]) })
	for i := 1; i < len(ids); i++ {
		if ids[i-1].Compare(ids[i]) > 0 {
			t.Fatalf("sort produced out-of-order pair at %d: %v > %v", i, ids[i-1], ids[i])
		}
	}
}

func TestPropLCAIsCommonAncestor(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a := randomID(r, 6, 4)
		b := randomID(r, 6, 4)
		l := a.LCA(b)
		if !l.IsAncestorOrSelf(a) || !l.IsAncestorOrSelf(b) {
			t.Fatalf("LCA(%v,%v)=%v is not a common ancestor", a, b, l)
		}
		// Lowest: extending the LCA by one step along a (if possible)
		// must fail to be an ancestor-or-self of b unless a==b prefix.
		if len(l) < len(a) && len(l) < len(b) {
			deeper := l.Child(a[len(l)])
			if deeper.IsAncestorOrSelf(b) {
				t.Fatalf("LCA(%v,%v)=%v is not lowest", a, b, l)
			}
		}
	}
}

func TestPropLCALevelEqualsCommonPrefixLen(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		a := make(ID, len(aRaw)%7)
		for i := range a {
			a[i] = int(aRaw[i%maxInt(1, len(aRaw))] % 5)
		}
		b := make(ID, len(bRaw)%7)
		for i := range b {
			b[i] = int(bRaw[i%maxInt(1, len(bRaw))] % 5)
		}
		return a.LCA(b).Level() == CommonPrefixLen(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestCloneIndependent(t *testing.T) {
	a := New(1, 2, 3)
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func BenchmarkCompare(b *testing.B) {
	x := New(0, 1, 2, 3, 4, 5, 6, 7)
	y := New(0, 1, 2, 3, 4, 5, 6, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Compare(y)
	}
}

func BenchmarkLCA(b *testing.B) {
	x := New(0, 1, 2, 3, 4, 5, 6, 7)
	y := New(0, 1, 2, 3, 9, 9, 9, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.LCA(y)
	}
}

func TestAppendToMatchesString(t *testing.T) {
	for _, id := range []ID{nil, {0}, {0, 2, 1}, {12, 0, 345, 6789}, {-1, 3}} {
		want := "prefix:" + id.String()
		if got := string(id.AppendTo([]byte("prefix:"))); got != want {
			t.Fatalf("AppendTo(%v) = %q, want %q", []int(id), got, want)
		}
	}
	if got := (ID{0, 2, 1}).String(); got != "0.2.1" {
		t.Fatalf("String = %q", got)
	}
}
