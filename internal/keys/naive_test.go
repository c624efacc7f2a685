package keys_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xarch/internal/keys"
	"xarch/internal/keys/keystest"
	"xarch/internal/xmltree"
)

// randomSpec grows a specification from the root down: every key's
// context is an already keyed pattern, targets are one or two segments
// over a tiny alphabet with wildcards, so patterns overlap in every way
// (literal beside wildcard, equal length, prefix of one another).
func randomSpec(rng *rand.Rand) *keys.Spec {
	segs := []string{"a", "b", "c", keys.Wildcard}
	s := &keys.Spec{Keys: []*keys.Key{{Target: keys.Path{"r"}}}}
	patterns := []keys.Path{{"r"}}
	for n := 2 + rng.Intn(10); n > 0; n-- {
		ctx := patterns[rng.Intn(len(patterns))]
		target := keys.Path{segs[rng.Intn(len(segs))]}
		if rng.Intn(3) == 0 {
			target = append(target, segs[rng.Intn(len(segs))])
		}
		s.Keys = append(s.Keys, &keys.Key{Context: ctx, Target: target})
		patterns = append(patterns, ctx.Concat(target))
	}
	return s
}

func TestMatcherAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"r", "a", "b", "c", "d", keys.Wildcard}
	overlapping := 0
	for i := 0; i < 300; i++ {
		s := randomSpec(rng)
		if err := s.Normalize(); err != nil {
			t.Fatalf("spec %d: %v\n%s", i, err, s)
		}
		for j := 0; j < 200; j++ {
			p := make(keys.Path, rng.Intn(6))
			for d := range p {
				p[d] = names[rng.Intn(len(names))]
			}
			if len(p) > 0 && rng.Intn(4) > 0 {
				p[0] = "r"
			}
			want := keystest.KeyFor(s, p)
			if got := s.KeyFor(p); got != want {
				t.Fatalf("spec %d: KeyFor(%s) = %v, want %v\n%s", i, p.Absolute(), got, want, s)
			}
			if got := s.IsKeyed(p); got != (want != nil) {
				t.Fatalf("spec %d: IsKeyed(%s) = %v", i, p.Absolute(), got)
			}
			if got, want := s.IsFrontier(p), keystest.IsFrontier(s, p); got != want {
				t.Fatalf("spec %d: IsFrontier(%s) = %v, want %v\n%s", i, p.Absolute(), got, want, s)
			}
			matches := 0
			for _, k := range s.AllKeys() {
				if k.NodePath().Matches(p) {
					matches++
				}
			}
			if matches > 1 {
				overlapping++
			}
		}
	}
	if overlapping == 0 {
		t.Error("no concrete path matched two patterns; first-match order was never exercised")
	}
}

// TestCheckDocumentAgainstNaive pins the validation report — every
// violation's keys.Path, keys.Key and Msg, in order — to the pattern-loop reference,
// on each violation class and on random documents under overlapping specs:
// CheckDocument, which flattens the tree it is given, and Check over the
// slab the tokenizer fills from the document's text. The random trees are
// also built with what only code can put in a tree — text that is white
// space only, text beside text, namespace declarations — where uniqueness
// is decided on the tree's own forms rather than on the stored keys.
func TestCheckDocumentAgainstNaive(t *testing.T) {
	compare := func(label string, s *keys.Spec, doc *xmltree.Node) {
		t.Helper()
		want := keystest.CheckDocument(s, doc)
		if got := s.CheckDocument(doc); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: report differs from reference\n got: %v\nwant: %v", label, got, want)
		}
		if d := xmltree.Flatten(doc); !d.Normalized {
			return // its text would not parse back to the same tree
		}
		var d xmltree.Flat
		if err := d.Read(strings.NewReader(doc.XML())); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := s.Check(&d); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: report over the tokenized slab differs from reference\n got: %v\nwant: %v", label, got, want)
		}
	}
	company := keys.MustParseSpec(keys.CompanySpec)
	site := keys.MustParseSpec("(/, (site, {}))\n(/site, (item, {id}))\n(/site/item, (name, {}))")
	entries := keys.MustParseSpec("(/, (db, {}))\n(/db, (entry, {\\e}))")
	rooted := keys.MustParseSpec("(/, (db, {}))\n(/, (db/a, {n}))")
	violations := 0
	for i, c := range []struct {
		spec *keys.Spec
		doc  string
	}{
		{company, keys.Version4},
		{company, `<db><dept><name>finance</name></dept><dept><name>finance</name></dept></db>`},
		{company, `<db><dept><name>f</name><emp><fn>J</fn><ln>D</ln></emp><emp><fn>J</fn><ln>D</ln></emp><emp><fn>J</fn><ln>D</ln></emp></dept></db>`},
		{company, `<db><dept><name>f</name><emp><fn>a</fn><ln>b</ln><tel>1</tel><tel>1</tel></emp></dept></db>`},
		{company, `<db><dept><emp><fn>a</fn><ln>b</ln></emp></dept></db>`},
		{company, `<db><dept><name>a</name><name>b</name></dept></db>`},
		{company, `<db><dept><name>f</name><budget>10</budget></dept></db>`},
		{company, `<db><dept>stray<name>f</name>more</dept><db/></db>`},
		{company, `<other/>`},
		{site, `<site><item id="i1" extra="y"><name>x</name></item><item id="i1"><name>y</name><name>z</name></item></site>`},
		{entries, `<db><entry><a>1</a></entry><entry><a>1</a></entry><entry><a>2</a></entry></db>`},
		{rooted, `<db><a><n>1</n></a><a><n>1</n><c/></a><a><n>1</n></a></db>`},
	} {
		doc := xmltree.MustParseString(c.doc)
		violations += len(c.spec.CheckDocument(doc))
		compare(fmt.Sprintf("class %d", i), c.spec, doc)
	}
	// Siblings whose values differ only as trees: the same data to the
	// archiver (which the sort then rejects), distinct to validation.
	text, elem, attr := xmltree.TextNode, xmltree.Elem, xmltree.AttrNode
	for i, doc := range []*xmltree.Node{
		elem("db", elem("entry", elem("a")), elem("entry", text(" "), elem("a"))),
		elem("db", elem("entry", text("xy")), elem("entry", text("x"), text("y"))),
		elem("db", elem("entry", elem("a")), elem("entry", attr("xmlns:p", "urn:p"), elem("a"))),
	} {
		if errs := entries.CheckDocument(doc); len(errs) != 0 {
			t.Errorf("tree %d: siblings that differ as trees reported as duplicates: %v", i, errs)
		}
		compare(fmt.Sprintf("tree %d", i), entries, doc)
	}
	if violations < 12 {
		t.Errorf("violation classes produced only %d violations in all", violations)
	}

	rng := rand.New(rand.NewSource(11))
	names := []string{"a", "b", "c", "d"}
	var grow func(depth int, raw bool) *xmltree.Node
	grow = func(depth int, raw bool) *xmltree.Node {
		n := xmltree.Elem(names[rng.Intn(len(names))])
		if rng.Intn(5) == 0 {
			n.Append(xmltree.AttrNode(names[rng.Intn(len(names))], "v"))
		}
		if raw && rng.Intn(6) == 0 {
			n.Append(xmltree.AttrNode("xmlns:"+names[rng.Intn(len(names))], "urn:x"))
		}
		if rng.Intn(6) == 0 {
			n.Append(xmltree.TextNode("t"))
		}
		for k := rng.Intn(4); k > 0 && depth < 4; k-- {
			if raw && rng.Intn(4) == 0 {
				n.Append(xmltree.TextNode([]string{" ", "", "t"}[rng.Intn(3)]))
			}
			n.Append(grow(depth+1, raw))
		}
		return n
	}
	for i := 0; i < 400; i++ {
		s := randomSpec(rng)
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		doc := grow(0, i%2 == 1)
		doc.Name = "r"
		compare(fmt.Sprintf("random %d", i), s, doc)
	}
}

// TestCheckRootContextDuplicates: a key whose context is the document root
// and whose target lies below the root element is checked from above the
// root, ahead of what the walk below finds, and agrees with the reference.
func TestCheckRootContextDuplicates(t *testing.T) {
	spec := keys.MustParseSpec("(/, (db, {}))\n(/, (db/a, {n}))\n(/db/a, (b, {}))")
	for _, c := range []struct {
		doc  string
		want []string
	}{
		{`<db><a><n>1</n></a><a><n>2</n></a></db>`, nil},
		{`<db><a><n>1</n></a><a><n>1</n></a></db>`, []string{"keys: duplicate key value among targets at /: (/, (db/a, {n}))"}},
		{`<db><a><n>1</n><c/></a><a><n>1</n></a></db>`, []string{
			"keys: duplicate key value among targets at /: (/, (db/a, {n}))",
			"keys: unkeyed element above the frontier at /db/a/c",
		}},
	} {
		doc := xmltree.MustParseString(c.doc)
		errs := spec.CheckDocument(doc)
		var got []string
		for _, e := range errs {
			got = append(got, e.Error())
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: %q, want %q", c.doc, got, c.want)
		}
		if ref := keystest.CheckDocument(spec, doc); !reflect.DeepEqual(ref, errs) {
			t.Errorf("%s: %v, the reference %v", c.doc, errs, ref)
		}
	}
}
