package extmem

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
)

// mkEntry builds a child entry keyed by one {num} path with canonical
// form t(<v>) (display <v>).
func mkEntry(name, path, val string) childEntry {
	return childEntry{name: name, key: &tkey{paths: []string{path}, canon: []string{"t(" + val + ")"}}}
}

func mkRoot(segSizes []int, entries []childEntry) *rootRecord {
	r := &rootRecord{name: "db"}
	i := 0
	for _, n := range segSizes {
		s := &segmentRecord{entries: entries[i : i+n]}
		r.segs = append(r.segs, s)
		i += n
	}
	if i != len(entries) {
		panic("segSizes do not cover entries")
	}
	return r
}

// refLookup is the pre-index reference: a linear scan over every entry,
// returning the first two matches in physical order.
func refLookup(r *rootRecord, step *core.SelectorStep) []segEntry {
	var out []segEntry
	for _, s := range r.segs {
		for i := range s.entries {
			e := &s.entries[i]
			if len(out) < 2 && e.name == step.Tag && (e.key != nil || len(step.Preds) == 0) && step.MatchesKey(keyDisplay(e.key)) {
				out = append(out, segEntry{seg: s, i: i})
			}
		}
	}
	return out
}

// lookup is what History takes from the root's index: the entries of the
// first two matches.
func lookup(r *rootRecord, step *core.SelectorStep) []segEntry {
	var out []segEntry
	hits, n := r.index().firstTwo(step)
	for _, p := range hits[:n] {
		out = append(out, r.at(p))
	}
	return out
}

func stepOf(tag string, preds ...core.Predicate) *core.SelectorStep {
	return &core.SelectorStep{Tag: tag, Preds: preds}
}

// forceIndex drops the small-root threshold so the fixtures below
// exercise the indexed path.
func forceIndex(t *testing.T) {
	t.Helper()
	old := dirIndexMinEntries
	dirIndexMinEntries = 0
	t.Cleanup(func() { dirIndexMinEntries = old })
}

func checkLookup(t *testing.T, r *rootRecord, step *core.SelectorStep) {
	t.Helper()
	got := lookup(r, step)
	want := refLookup(r, step)
	if len(got) != len(want) {
		t.Fatalf("lookup(%s%v): %d matches, want %d", step.Tag, step.Preds, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("lookup(%s%v): match %d is %s{%v}, want %s{%v}",
				step.Tag, step.Preds, i, got[i].e().name, got[i].e().key, want[i].e().name, want[i].e().key)
		}
	}
}

// TestDirIndexLookup drives the binary-search lookup against the linear
// reference over every step shape: keyless, fully keyed (hit, miss,
// duplicate display), under-specified, and unknown names.
func TestDirIndexLookup(t *testing.T) {
	forceIndex(t)
	var entries []childEntry
	for i := 0; i < 40; i++ {
		entries = append(entries, mkEntry("emp", "id", fmt.Sprintf("e%03d", i)))
	}
	// Two entries with distinct canonical keys but equal display values
	// (t(x) vs e(v(t(x))) both display differently — use two key paths
	// colliding on the joined display instead).
	entries = append(entries,
		childEntry{name: "item", key: &tkey{paths: []string{"id"}, canon: []string{"t(zz)"}}},
		childEntry{name: "item", key: &tkey{paths: []string{"id"}, canon: []string{"t(zz)"}}},
	)
	entries = append(entries, childEntry{name: "plain"}) // keyless entry
	r := mkRoot([]int{7, 13, 20, 2, 1}, entries)

	checkLookup(t, r, stepOf("emp", core.Predicate{Path: "id", Value: "e000"}))
	checkLookup(t, r, stepOf("emp", core.Predicate{Path: "id", Value: "e021"}))
	checkLookup(t, r, stepOf("emp", core.Predicate{Path: "id", Value: "e039"}))
	checkLookup(t, r, stepOf("emp", core.Predicate{Path: "id", Value: "nosuch"}))
	checkLookup(t, r, stepOf("emp", core.Predicate{Path: "wrongpath", Value: "e000"}))
	checkLookup(t, r, stepOf("emp"))                                           // ambiguous: first two in physical order
	checkLookup(t, r, stepOf("item", core.Predicate{Path: "id", Value: "zz"})) // duplicate display: ambiguous
	checkLookup(t, r, stepOf("plain"))
	checkLookup(t, r, stepOf("plain", core.Predicate{Path: "id", Value: "x"})) // keyless entry, keyed step
	checkLookup(t, r, stepOf("nosuch"))
	checkLookup(t, r, stepOf("aaaa")) // before every name
	checkLookup(t, r, stepOf("zzzz")) // after every name
}

// TestDirIndexMixedShapes: a name whose entries disagree on key-path
// shape disables the display fast path for that name but stays exact.
func TestDirIndexMixedShapes(t *testing.T) {
	forceIndex(t)
	entries := []childEntry{
		mkEntry("n", "a", "1"),
		{name: "n", key: &tkey{paths: []string{"a", "b"}, canon: []string{"t(1)", "t(2)"}}},
		mkEntry("n", "a", "3"),
	}
	r := mkRoot([]int{3}, entries)
	if tgt, ok := r.index().exactTarget(stepOf("n", core.Predicate{Path: "a", Value: "1"})); ok {
		t.Fatalf("mixed-shape name offered a fast path (target %q)", tgt)
	}
	checkLookup(t, r, stepOf("n", core.Predicate{Path: "a", Value: "1"}))
	checkLookup(t, r, stepOf("n", core.Predicate{Path: "a", Value: "1"}, core.Predicate{Path: "b", Value: "2"}))
	checkLookup(t, r, stepOf("n", core.Predicate{Path: "b", Value: "2"}))
}

// TestDirIndexUnsortedFallback: a directory violating the sort
// invariant (never produced by a healthy archive) falls back to the
// plain scan rather than missing matches.
func TestDirIndexUnsortedFallback(t *testing.T) {
	forceIndex(t)
	entries := []childEntry{
		mkEntry("z", "id", "1"),
		mkEntry("a", "id", "2"), // out of order
	}
	r := mkRoot([]int{2}, entries)
	if r.index().sorted {
		t.Fatal("index did not detect the unsorted directory")
	}
	checkLookup(t, r, stepOf("a", core.Predicate{Path: "id", Value: "2"}))
	checkLookup(t, r, stepOf("z"))
}

// TestDirIndexSmallRootLinear: below the build threshold no index is
// constructed and lookups run the original linear scan.
func TestDirIndexSmallRootLinear(t *testing.T) {
	entries := []childEntry{
		mkEntry("emp", "id", "a"),
		mkEntry("emp", "id", "b"),
	}
	r := mkRoot([]int{2}, entries)
	if !r.index().small {
		t.Fatal("small root built an index")
	}
	checkLookup(t, r, stepOf("emp", core.Predicate{Path: "id", Value: "b"}))
	checkLookup(t, r, stepOf("emp"))
	checkLookup(t, r, stepOf("nosuch"))
}

// TestDirIndexLookupCost: a fully-keyed lookup over a wide root touches
// O(log n) entries, pinned by counting display derivations indirectly —
// the lookup must not materialize a display for every entry. (The
// directory benchmarks measure wall-clock; this guards the shape.)
func TestDirIndexLookupCost(t *testing.T) {
	const n = 1 << 15
	entries := make([]childEntry, n)
	for i := range entries {
		entries[i] = mkEntry("rec", "id", fmt.Sprintf("k%06d", i))
	}
	r := mkRoot([]int{n}, entries)
	r.index() // build outside the measurement
	for _, probe := range []int{0, 1, n / 2, n - 1} {
		step := stepOf("rec", core.Predicate{Path: "id", Value: fmt.Sprintf("k%06d", probe)})
		got := lookup(r, step)
		if len(got) != 1 || got[0].e() != &r.segs[0].entries[probe] {
			t.Fatalf("lookup k%06d: %v", probe, got)
		}
	}
}

// mkKids builds a posting whose kid mini-index lists entries.
func mkKids(entries []childEntry) *idxEntry {
	ent := &idxEntry{hasKids: true}
	for _, e := range entries {
		ent.kids = append(ent.kids, idxKid{name: e.name, key: e.key})
	}
	return ent
}

// checkKidMatch holds the kid index to the linear reference over the kid
// list: every match in physical order, and the first two a History takes.
func checkKidMatch(t *testing.T, ent *idxEntry, step *core.SelectorStep) {
	t.Helper()
	var want []int32
	for i, k := range ent.kids {
		if k.name == step.Tag && (k.key != nil || len(step.Preds) == 0) && step.MatchesKey(keyDisplay(k.key)) {
			want = append(want, int32(i))
		}
	}
	ix := ent.kidIndex()
	if got := slices.Collect(ix.matches(step)); !slices.Equal(got, want) {
		t.Errorf("matches(%s%v): %v, want %v", step.Tag, step.Preds, got, want)
	}
	if hits, n := ix.firstTwo(step); !slices.Equal(hits[:n], want[:min(len(want), 2)]) {
		t.Errorf("firstTwo(%s%v): %v, want %v", step.Tag, step.Preds, hits[:n], want[:min(len(want), 2)])
	}
}

// TestDirIndexKidLookup drives the kid mini-index through the same index
// as a root's entries, against the linear reference: keyless, fully keyed
// (hit, miss, duplicate display), under-specified, unknown names, mixed
// shapes, and an unsorted list falling back to the scan.
func TestDirIndexKidLookup(t *testing.T) {
	forceIndex(t)
	var kids []childEntry
	kids = append(kids, childEntry{name: "address"}) // keyless
	for i := 0; i < 30; i++ {
		kids = append(kids, mkEntry("person", "id", fmt.Sprintf("p%03d", i)))
	}
	kids = append(kids,
		childEntry{name: "watch", key: &tkey{paths: []string{"id"}, canon: []string{"t(w)"}}},
		childEntry{name: "watch", key: &tkey{paths: []string{"id"}, canon: []string{"t(w)"}}}, // duplicate display
		mkEntry("zone", "a", "1"),
		mkEntry("zone", "a", "3"),
		childEntry{name: "zone", key: &tkey{paths: []string{"a", "b"}, canon: []string{"t(1)", "t(2)"}}}, // mixed shape: longer keys sort last
	)
	ent := mkKids(kids)
	ix := ent.kidIndex()
	if ix.small || !ix.sorted {
		t.Fatalf("kid index small=%v sorted=%v, want a built, sorted index", ix.small, ix.sorted)
	}
	if _, ok := ix.seek(stepOf("person", core.Predicate{Path: "id", Value: "p007"})); !ok {
		t.Error("a fully keyed kid step did not take the binary search")
	}
	steps := []*core.SelectorStep{
		stepOf("address"),
		stepOf("address", core.Predicate{Path: "id", Value: "x"}), // keyless kid, keyed step
		stepOf("person", core.Predicate{Path: "id", Value: "p000"}),
		stepOf("person", core.Predicate{Path: "id", Value: "p017"}),
		stepOf("person", core.Predicate{Path: "id", Value: "p029"}),
		stepOf("person", core.Predicate{Path: "id", Value: "nosuch"}),
		stepOf("person", core.Predicate{Path: "wrongpath", Value: "p000"}),
		stepOf("person"), // under-specified: every person
		stepOf("watch", core.Predicate{Path: "id", Value: "w"}),
		stepOf("zone", core.Predicate{Path: "a", Value: "1"}),
		stepOf("zone", core.Predicate{Path: "a", Value: "1"}, core.Predicate{Path: "b", Value: "2"}),
		stepOf("zone", core.Predicate{Path: "b", Value: "2"}),
		stepOf("nosuch"),
		stepOf("aaaa"),
		stepOf("zzzz"),
	}
	for _, step := range steps {
		checkKidMatch(t, ent, step)
	}

	// An unsorted kid list (never stored by a healthy archive) scans.
	unsorted := mkKids([]childEntry{mkEntry("z", "id", "1"), mkEntry("a", "id", "2"), mkEntry("z", "id", "3")})
	if unsorted.kidIndex().sorted {
		t.Fatal("kid index did not detect the unsorted list")
	}
	for _, step := range []*core.SelectorStep{
		stepOf("a", core.Predicate{Path: "id", Value: "2"}),
		stepOf("z", core.Predicate{Path: "id", Value: "3"}),
		stepOf("z"),
	} {
		checkKidMatch(t, unsorted, step)
	}
}

// TestKidIndexSharedByReaders: a posting's kid index is built by whichever
// reader asks first and shared by every view of the generation, so the
// first kid lookups arrive from several readers at once; each must answer
// what a lone reader of the same versions answers.
func TestKidIndexSharedByReaders(t *testing.T) {
	xm := datagen.NewXMark(datagen.XMarkConfig{Seed: 5, Items: 30, People: 80, Categories: 4, OpenAucts: 10, ClosedAucts: 6})
	c := postingCorpus{spec: xm.Spec()}
	doc := xm.Document()
	for v := 0; v < 3; v++ {
		c.docs = append(c.docs, doc)
		doc = xm.KeyModChanges(doc, 0.1)
	}
	var selectors []string
	for _, p := range c.docs[0].Child("people").ChildrenNamed("person") {
		id, _ := p.Attr("id")
		selectors = append(selectors, "/site/people/person[id="+id+"]")
	}
	selectors = append(selectors, "/site/people/person", "/site/people/person[id=nosuch]")
	open := func() *Archiver {
		dir := t.TempDir()
		if err := c.build(t, dir, 2048).Close(); err != nil {
			t.Fatal(err)
		}
		ar, err := Open(dir, c.spec, Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ar.Close() })
		return ar
	}
	answer := func(q *QueryView, sel string) string {
		h, err := q.History(sel)
		if err != nil {
			return err.Error()
		}
		return h.String()
	}
	lone, err := open().OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, sel := range selectors {
		want[sel] = answer(lone, sel)
	}
	lone.Close()

	ar := open()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q, err := ar.OpenQuery()
			if err != nil {
				t.Error(err)
				return
			}
			defer q.Close()
			for i := range selectors {
				sel := selectors[(i+r*len(selectors)/4)%len(selectors)]
				if got := answer(q, sel); got != want[sel] {
					t.Errorf("reader %d: History(%s) = %s, a lone reader says %s", r, sel, got, want[sel])
				}
			}
		}(r)
	}
	wg.Wait()
}
