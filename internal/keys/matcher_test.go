package keys

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"xarch/internal/xmltree"
)

// The reference the compiled matcher is tested against: the loops over
// every pattern with Path.Matches that Spec used before it compiled a trie.

func naiveKeyFor(s *Spec, concrete Path) *Key {
	for _, k := range s.AllKeys() {
		if k.NodePath().Matches(concrete) {
			return k
		}
	}
	return nil
}

func naiveIsFrontier(s *Spec, concrete Path) bool {
	for _, p := range s.FrontierPaths() {
		if p.Matches(concrete) {
			return true
		}
	}
	return false
}

func naiveCheckDocument(s *Spec, doc *xmltree.Node) []*ValidationError {
	var errs []*ValidationError
	naiveCheckNode(s, doc, Path{doc.Name}, &errs)
	return errs
}

func naiveCheckNode(s *Spec, n *xmltree.Node, p Path, errs *[]*ValidationError) {
	if naiveKeyFor(s, p) == nil {
		*errs = append(*errs, &ValidationError{Path: p.Absolute(), Msg: "unkeyed element above the frontier"})
		return
	}
	for _, k := range s.AllKeys() {
		if !k.NodePath().Matches(p) {
			continue
		}
		for _, kp := range k.KeyPaths {
			if len(kp) == 0 {
				continue
			}
			if vals := kp.Resolve(n); len(vals) != 1 {
				*errs = append(*errs, &ValidationError{
					Path: p.Absolute(), Key: k.String(),
					Msg: fmt.Sprintf("key path %s resolves to %d nodes, want 1", kp, len(vals)),
				})
			}
		}
	}
	for _, k := range s.AllKeys() {
		if !k.Context.Matches(p) {
			continue
		}
		seen := map[string]bool{}
	targets:
		for _, t := range k.Target.Resolve(n) {
			tuple := ""
			for _, kp := range k.KeyPaths {
				vals := kp.Resolve(t)
				if len(vals) != 1 {
					continue targets
				}
				tuple += "|" + xmltree.Canonical(vals[0])
			}
			if seen[tuple] {
				*errs = append(*errs, &ValidationError{
					Path: p.Absolute(), Key: k.String(), Msg: "duplicate key value among targets",
				})
			}
			seen[tuple] = true
		}
	}
	if naiveIsFrontier(s, p) {
		return
	}
	for _, a := range n.Attrs {
		if ap := p.Concat(Path{a.Name}); naiveKeyFor(s, ap) == nil {
			*errs = append(*errs, &ValidationError{Path: ap.Absolute(), Msg: "unkeyed attribute above the frontier"})
		}
	}
	for _, c := range n.Children {
		switch c.Kind {
		case xmltree.Text:
			*errs = append(*errs, &ValidationError{Path: p.Absolute(), Msg: "text content above the frontier"})
		case xmltree.Element:
			naiveCheckNode(s, c, p.Concat(Path{c.Name}), errs)
		}
	}
}

// randomSpec grows a specification from the root down: every key's
// context is an already keyed pattern, targets are one or two segments
// over a tiny alphabet with wildcards, so patterns overlap in every way
// (literal beside wildcard, equal length, prefix of one another).
func randomSpec(rng *rand.Rand) *Spec {
	segs := []string{"a", "b", "c", Wildcard}
	s := &Spec{Keys: []*Key{{Target: Path{"r"}}}}
	patterns := []Path{{"r"}}
	for n := 2 + rng.Intn(10); n > 0; n-- {
		ctx := patterns[rng.Intn(len(patterns))]
		target := Path{segs[rng.Intn(len(segs))]}
		if rng.Intn(3) == 0 {
			target = append(target, segs[rng.Intn(len(segs))])
		}
		s.Keys = append(s.Keys, &Key{Context: ctx, Target: target})
		patterns = append(patterns, ctx.Concat(target))
	}
	return s
}

func TestMatcherAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"r", "a", "b", "c", "d", Wildcard}
	overlapping := 0
	for i := 0; i < 300; i++ {
		s := randomSpec(rng)
		if err := s.Normalize(); err != nil {
			t.Fatalf("spec %d: %v\n%s", i, err, s)
		}
		for j := 0; j < 200; j++ {
			p := make(Path, rng.Intn(6))
			for d := range p {
				p[d] = names[rng.Intn(len(names))]
			}
			if len(p) > 0 && rng.Intn(4) > 0 {
				p[0] = "r"
			}
			want := naiveKeyFor(s, p)
			if got := s.KeyFor(p); got != want {
				t.Fatalf("spec %d: KeyFor(%s) = %v, want %v\n%s", i, p.Absolute(), got, want, s)
			}
			if got := s.IsKeyed(p); got != (want != nil) {
				t.Fatalf("spec %d: IsKeyed(%s) = %v", i, p.Absolute(), got)
			}
			if got, want := s.IsFrontier(p), naiveIsFrontier(s, p); got != want {
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
// violation's Path, Key and Msg, in order — to the pattern-loop reference,
// on each violation class and on random documents under overlapping specs.
func TestCheckDocumentAgainstNaive(t *testing.T) {
	compare := func(label string, s *Spec, doc *xmltree.Node) {
		t.Helper()
		got, want := s.CheckDocument(doc), naiveCheckDocument(s, doc)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: report differs from reference\n got: %v\nwant: %v", label, got, want)
		}
	}
	company := MustParseSpec(companySpec)
	site := MustParseSpec("(/, (site, {}))\n(/site, (item, {id}))\n(/site/item, (name, {}))")
	entries := MustParseSpec("(/, (db, {}))\n(/db, (entry, {\\e}))")
	violations := 0
	for i, c := range []struct {
		spec *Spec
		doc  string
	}{
		{company, version4},
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
	} {
		doc := xmltree.MustParseString(c.doc)
		violations += len(c.spec.CheckDocument(doc))
		compare(fmt.Sprintf("class %d", i), c.spec, doc)
	}
	if violations < 12 {
		t.Errorf("violation classes produced only %d violations in all", violations)
	}

	rng := rand.New(rand.NewSource(11))
	names := []string{"a", "b", "c", "d"}
	var grow func(depth int) *xmltree.Node
	grow = func(depth int) *xmltree.Node {
		n := xmltree.Elem(names[rng.Intn(len(names))])
		if rng.Intn(5) == 0 {
			n.Append(xmltree.AttrNode(names[rng.Intn(len(names))], "v"))
		}
		if rng.Intn(6) == 0 {
			n.Append(xmltree.TextNode("t"))
		}
		for k := rng.Intn(4); k > 0 && depth < 4; k-- {
			n.Append(grow(depth + 1))
		}
		return n
	}
	for i := 0; i < 200; i++ {
		s := randomSpec(rng)
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		doc := grow(0)
		doc.Name = "r"
		compare(fmt.Sprintf("random %d", i), s, doc)
	}
}

func TestMatcherAllocatesNothing(t *testing.T) {
	s := MustParseSpec(`
(/, (site, {}))
(/site, (regions, {}))
(/site/regions, (africa, {}))
(/site/regions/_, (item, {id}))
(/site/regions/_/item, (name, {}))
`)
	keyed := Path{"site", "regions", "asia", "item", "name"}
	unkeyed := Path{"site", "regions", "asia", "item", "name", "below"}
	var k *Key
	var b bool
	for name, f := range map[string]func(){
		"KeyFor":     func() { k = s.KeyFor(keyed); k = s.KeyFor(unkeyed) },
		"IsKeyed":    func() { b = s.IsKeyed(keyed); b = s.IsKeyed(unkeyed) },
		"IsFrontier": func() { b = s.IsFrontier(keyed); b = s.IsFrontier(unkeyed) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
	_, _ = k, b
}

// TestLazyNormalizeConcurrent shares one hand-assembled, never normalized
// Spec between goroutines; run under -race it proves the lazy path is
// synchronized.
func TestLazyNormalizeConcurrent(t *testing.T) {
	s := &Spec{Keys: []*Key{
		{Target: Path{"db"}},
		{Context: Path{"db"}, Target: Path{"dept"}, KeyPaths: []Path{{"name"}}},
	}}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if k := s.KeyFor(Path{"db", "dept", "name"}); k == nil || !k.Implied {
					t.Error("implied key of a lazily normalized spec not found")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNormalizeAgainRecompiles(t *testing.T) {
	s := MustParseSpec("(/, (db, {}))\n(/db, (dept, {}))")
	emp := Path{"db", "dept", "emp"}
	if s.IsKeyed(emp) || !s.IsFrontier(Path{"db", "dept"}) {
		t.Fatal("unexpected matcher before the key is appended")
	}
	s.Keys = append(s.Keys, &Key{Context: Path{"db", "dept"}, Target: Path{"emp"}})
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !s.IsKeyed(emp) || !s.IsFrontier(emp) || s.IsFrontier(Path{"db", "dept"}) {
		t.Error("second Normalize kept the stale matcher")
	}
	if got := s.KeyFor(emp).Pattern(); got != "/db/dept/emp" {
		t.Errorf("Pattern() = %q", got)
	}
}

func TestKeyPathOrder(t *testing.T) {
	s := MustParseSpec("(/, (db, {}))\n(/db, (c, {name, Date/Month, CNtype}))")
	k := s.KeyFor(Path{"db", "c"})
	if got := fmt.Sprint(k.KeyPathOrder(), k.SortedKeyPathNames()); got != "[2 1 0] [CNtype Date/Month name]" {
		t.Errorf("key-path order = %s", got)
	}
}
