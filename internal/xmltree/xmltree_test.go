package xmltree

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dewey"
)

const sampleDoc = `
<products>
  <product sku="A1">
    <name>TomTom Go 630</name>
    <rating>4.2</rating>
    <reviews>
      <review>
        <pros><pro>compact</pro><pro>easy to read</pro></pros>
        <uses><bestuse>auto</bestuse></uses>
      </review>
      <review>
        <pros><pro>compact</pro></pros>
      </review>
    </reviews>
  </product>
  <product sku="B2">
    <name>TomTom Go 730</name>
    <rating>4.1</rating>
  </product>
</products>`

func mustSample(t *testing.T) *Node {
	t.Helper()
	root, err := ParseString(sampleDoc)
	if err != nil {
		t.Fatalf("parse sample: %v", err)
	}
	return root
}

func TestParseBasicShape(t *testing.T) {
	root := mustSample(t)
	if root.Tag != "products" {
		t.Fatalf("root tag = %q", root.Tag)
	}
	prods := root.ChildElements()
	if len(prods) != 2 {
		t.Fatalf("got %d products, want 2", len(prods))
	}
	if got := prods[0].FirstChildElement("name").Value(); got != "TomTom Go 630" {
		t.Fatalf("name = %q", got)
	}
	if sku, ok := prods[0].Attr("sku"); !ok || sku != "A1" {
		t.Fatalf("sku = %q, %v", sku, ok)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"unclosed":       `<a><b></a>`,
		"empty":          ``,
		"two roots":      `<a/><b/>`,
		"text outside":   `hello<a/>`,
		"stray end":      `</a>`,
		"trailing text2": `<a/>world`,
	}
	for name, doc := range cases {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("%s: ParseString(%q) succeeded, want error", name, doc)
		}
	}
}

func TestDeweyIDsAssigned(t *testing.T) {
	root := mustSample(t)
	if root.ID.Level() != 0 {
		t.Fatalf("root ID = %v", root.ID)
	}
	second := root.Children[1]
	if !second.ID.Equal(dewey.New(1)) {
		t.Fatalf("second product ID = %v, want 1", second.ID)
	}
	name := second.FirstChildElement("name")
	if !name.ID.Equal(dewey.New(1, 0)) {
		t.Fatalf("name ID = %v, want 1.0", name.ID)
	}
	// NodeAt inverts the labelling.
	if got := root.NodeAt(name.ID); got != name {
		t.Fatalf("NodeAt(%v) = %v", name.ID, got)
	}
}

func TestNodeAtBadPaths(t *testing.T) {
	root := mustSample(t)
	if root.NodeAt(dewey.New(9)) != nil {
		t.Fatal("NodeAt out-of-range ordinal should be nil")
	}
	if root.NodeAt(dewey.New(0, 0, 0, 0, 0, 0, 0)) != nil {
		t.Fatal("NodeAt too-deep path should be nil")
	}
	if root.NodeAt(dewey.Root()) != root {
		t.Fatal("NodeAt(root) should be the node itself")
	}
}

func TestWalkPreorderAndPrune(t *testing.T) {
	root := mustSample(t)
	var order []string
	root.Walk(func(n *Node) bool {
		if n.Kind == Element {
			order = append(order, n.Tag)
		}
		return n.Tag != "reviews" // prune below reviews
	})
	joined := strings.Join(order, ",")
	for _, tag := range order {
		if tag == "review" || tag == "pros" || tag == "pro" {
			t.Fatalf("pruning failed: %s", joined)
		}
	}
	if !strings.HasPrefix(joined, "products,product,name") {
		t.Fatalf("unexpected preorder prefix: %s", joined)
	}
}

func TestValueAndDeepValue(t *testing.T) {
	root := mustSample(t)
	prod := root.Children[0]
	if v := prod.Value(); v != "" {
		t.Fatalf("container Value() = %q, want empty", v)
	}
	dv := prod.DeepValue()
	for _, want := range []string{"TomTom Go 630", "4.2", "compact", "auto"} {
		if !strings.Contains(dv, want) {
			t.Fatalf("DeepValue missing %q: %s", want, dv)
		}
	}
}

// TestValueJoinsTextChildren pins Value's join rule against a plain
// reimplementation: each text child trimmed, a space before every text
// once the value so far is non-empty, and a lone text child returned
// without building a new string.
func TestValueJoinsTextChildren(t *testing.T) {
	want := func(n *Node) string {
		var b strings.Builder
		for _, c := range n.Children {
			if c.Kind == Text {
				if b.Len() > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(strings.TrimSpace(c.Text))
			}
		}
		return b.String()
	}
	for _, texts := range [][]string{
		nil, {"  a b  "}, {"a", "b"}, {"  ", "b"}, {"a", "  "}, {"", "", "c"}, {" x ", "y", " z"},
	} {
		n := NewElement("v")
		for i, s := range texts {
			n.AppendChild(NewText(s))
			if i == 0 {
				n.AppendChild(NewElement("sep"))
			}
		}
		if got := n.Value(); got != want(n) {
			t.Fatalf("Value of %q = %q, want %q", texts, got, want(n))
		}
	}
	leaf := NewElement("name").AppendChild(NewText(" TomTom "))
	if n := testing.AllocsPerRun(100, func() { _ = leaf.Value() }); n != 0 {
		t.Fatalf("a lone text child's value allocated %v times, want 0 (a slice of the tree's text)", n)
	}
}

func TestLeafElement(t *testing.T) {
	root := mustSample(t)
	name := root.Children[0].FirstChildElement("name")
	if !name.IsLeafElement() {
		t.Fatal("name should be a leaf element")
	}
	if root.IsLeafElement() {
		t.Fatal("root is not a leaf element")
	}
	empty := NewElement("empty")
	if !empty.IsLeafElement() {
		t.Fatal("childless element counts as leaf")
	}
}

func TestFindAll(t *testing.T) {
	root := mustSample(t)
	pros := root.FindAll("pro")
	if len(pros) != 3 {
		t.Fatalf("found %d pro nodes, want 3", len(pros))
	}
	// Document order.
	for i := 1; i < len(pros); i++ {
		if pros[i-1].ID.Compare(pros[i].ID) >= 0 {
			t.Fatalf("FindAll not in document order: %v !< %v", pros[i-1].ID, pros[i].ID)
		}
	}
}

func TestPathAndDepth(t *testing.T) {
	root := mustSample(t)
	pro := root.FindAll("pro")[0]
	if got := pro.Path(); got != "products/product/reviews/review/pros/pro" {
		t.Fatalf("Path = %q", got)
	}
	if pro.Depth() != 5 {
		t.Fatalf("Depth = %d, want 5", pro.Depth())
	}
	if pro.Root() != root {
		t.Fatal("Root() did not find tree root")
	}
}

func TestBuilderAPI(t *testing.T) {
	doc := NewElement("catalog")
	b := doc.Elem("book")
	b.Leaf("title", "TAoCP").Leaf("author", "Knuth")
	b.SetAttr("isbn", "0-201-89683-4")
	doc.AssignIDs(nil)

	if doc.CountNodes() != 6 { // catalog, book, title, #text, author, #text
		t.Fatalf("CountNodes = %d, want 6", doc.CountNodes())
	}
	if got := b.FirstChildElement("title").Value(); got != "TAoCP" {
		t.Fatalf("title = %q", got)
	}
	if v, ok := b.Attr("isbn"); !ok || v != "0-201-89683-4" {
		t.Fatalf("attr = %q %v", v, ok)
	}
	if _, ok := b.Attr("missing"); ok {
		t.Fatal("missing attr reported present")
	}
}

func TestSetAttrReplaces(t *testing.T) {
	n := NewElement("x").SetAttr("a", "1").SetAttr("a", "2")
	if len(n.Attrs) != 1 || n.Attrs[0].Value != "2" {
		t.Fatalf("SetAttr did not replace: %+v", n.Attrs)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	root := mustSample(t)
	out := XMLString(root)
	back, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse serialized output: %v\n%s", err, out)
	}
	assertTreesEqual(t, root, back)
}

func TestSerializeEscaping(t *testing.T) {
	n := NewElement("m")
	n.Leaf("v", `a<b & "c">d`)
	n.SetAttr("q", `x"y<z`)
	out := XMLString(n)
	back, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse escaped: %v\n%s", err, out)
	}
	if got := back.FirstChildElement("v").Value(); got != `a<b & "c">d` {
		t.Fatalf("escaped value round trip = %q", got)
	}
	if got, _ := back.Attr("q"); got != `x"y<z` {
		t.Fatalf("escaped attr round trip = %q", got)
	}
}

func assertTreesEqual(t *testing.T, a, b *Node) {
	t.Helper()
	if a.Kind != b.Kind || a.Tag != b.Tag {
		t.Fatalf("node mismatch: %v %q vs %v %q", a.Kind, a.Tag, b.Kind, b.Tag)
	}
	if a.Kind == Text && strings.TrimSpace(a.Text) != strings.TrimSpace(b.Text) {
		t.Fatalf("text mismatch: %q vs %q", a.Text, b.Text)
	}
	if len(a.Attrs) != len(b.Attrs) {
		t.Fatalf("attr count mismatch on <%s>: %v vs %v", a.Tag, a.Attrs, b.Attrs)
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			t.Fatalf("attr mismatch on <%s>: %v vs %v", a.Tag, a.Attrs[i], b.Attrs[i])
		}
	}
	if len(a.Children) != len(b.Children) {
		t.Fatalf("child count mismatch on <%s>: %d vs %d", a.Tag, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		assertTreesEqual(t, a.Children[i], b.Children[i])
	}
}

func TestCloneDeepAndIndependent(t *testing.T) {
	root := mustSample(t)
	cp := root.Clone()
	assertTreesEqual(t, root, cp)
	if cp.Parent != nil {
		t.Fatal("clone root should have nil parent")
	}
	cp.Children[0].FirstChildElement("name").Children[0].Text = "changed"
	if root.Children[0].FirstChildElement("name").Value() == "changed" {
		t.Fatal("clone shares storage with original")
	}
}

// randomTree builds a random tree for property tests.
func randomTree(r *rand.Rand, depth int) *Node {
	tags := []string{"a", "b", "c", "d"}
	n := NewElement(tags[r.Intn(len(tags))])
	if depth == 0 || r.Intn(3) == 0 {
		n.AppendText("v" + string(rune('a'+r.Intn(26))))
		return n
	}
	kids := 1 + r.Intn(3)
	for i := 0; i < kids; i++ {
		n.AppendChild(randomTree(r, depth-1))
	}
	return n
}

func TestPropSerializeParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		tree := randomTree(r, 4)
		tree.AssignIDs(nil)
		back, err := ParseString(XMLString(tree))
		if err != nil {
			t.Fatalf("iteration %d: %v\n%s", i, err, XMLString(tree))
		}
		assertTreesEqual(t, tree, back)
	}
}

func TestPropDeweyIDsMatchStructure(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		tree := randomTree(r, 4)
		tree.AssignIDs(nil)
		tree.Walk(func(n *Node) bool {
			if tree.NodeAt(n.ID) != n {
				t.Fatalf("NodeAt(%v) does not resolve to the labelled node", n.ID)
			}
			for j, c := range n.Children {
				if !c.ID.Equal(n.ID.Child(j)) {
					t.Fatalf("child %d of %v has ID %v", j, n.ID, c.ID)
				}
			}
			return true
		})
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(sampleDoc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialize(b *testing.B) {
	root := MustParseString(sampleDoc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = XMLString(root)
	}
}
