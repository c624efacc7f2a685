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
			if len(out) < 2 && step.Matches(e.name, keyValue(e.key)) {
				out = append(out, segEntry{seg: s, i: i})
			}
		}
	}
	return out
}

// lookup is what History takes from the root's list: the entries of the
// first two matches, in stored order.
func lookup(r *rootRecord, step *core.SelectorStep) []segEntry {
	var out []segEntry
	for p := range r.index().Matches(step) {
		if out = append(out, r.at(p)); len(out) == 2 {
			break
		}
	}
	return out
}

func stepOf(tag string, preds ...core.Predicate) *core.SelectorStep {
	return &core.SelectorStep{Tag: tag, Preds: preds}
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

// TestDirIndexLookup drives the root's list, across its segments, against
// the linear reference over every step shape: keyless, fully keyed (hit,
// miss, duplicate display), under-specified, and unknown names. It holds
// enough entries for the list to binary-search.
func TestDirIndexLookup(t *testing.T) {
	var entries []childEntry
	for i := 0; i < 70; i++ {
		entries = append(entries, mkEntry("emp", "id", fmt.Sprintf("e%03d", i)))
	}
	// Two entries with equal keys, hence equal display values.
	entries = append(entries,
		childEntry{name: "item", key: &tkey{paths: []string{"id"}, canon: []string{"t(zz)"}}},
		childEntry{name: "item", key: &tkey{paths: []string{"id"}, canon: []string{"t(zz)"}}},
	)
	entries = append(entries, childEntry{name: "plain"}) // keyless entry
	r := mkRoot([]int{7, 13, 50, 2, 1}, entries)
	if _, cmps, _ := r.index().Find(stepOf("emp", core.Predicate{Path: "id", Value: "e000"}), "/db/emp"); cmps > 10 {
		t.Fatalf("a fully keyed step compared %d entries, not a binary search", cmps)
	}

	checkLookup(t, r, stepOf("emp", core.Predicate{Path: "id", Value: "e000"}))
	checkLookup(t, r, stepOf("emp", core.Predicate{Path: "id", Value: "e021"}))
	checkLookup(t, r, stepOf("emp", core.Predicate{Path: "id", Value: "e069"}))
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
		if step.Matches(k.name, keyValue(k.key)) {
			want = append(want, int32(i))
		}
	}
	if got := slices.Collect(ent.kidIndex().Matches(step)); !slices.Equal(got, want) {
		t.Errorf("Matches(%s%v): %v, want %v", step.Tag, step.Preds, got, want)
	}
}

// TestDirIndexKidLookup drives the kid mini-index through the same index
// as a root's entries, against the linear reference: keyless, fully keyed
// (hit, miss, duplicate display), under-specified, unknown names, mixed
// shapes, and an unsorted list falling back to the scan. Both lists are
// long enough for the list to binary-search.
func TestDirIndexKidLookup(t *testing.T) {
	var kids []childEntry
	kids = append(kids, childEntry{name: "address"}) // keyless
	for i := 0; i < 60; i++ {
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
	if _, cmps, _ := ent.kidIndex().Find(stepOf("person", core.Predicate{Path: "id", Value: "p007"}), "/person"); cmps > 10 {
		t.Errorf("a fully keyed kid step compared %d kids, not a binary search", cmps)
	}
	steps := []*core.SelectorStep{
		stepOf("address"),
		stepOf("address", core.Predicate{Path: "id", Value: "x"}), // keyless kid, keyed step
		stepOf("person", core.Predicate{Path: "id", Value: "p000"}),
		stepOf("person", core.Predicate{Path: "id", Value: "p017"}),
		stepOf("person", core.Predicate{Path: "id", Value: "p029"}),
		stepOf("person", core.Predicate{Path: "id", Value: "p059"}),
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
	var shuffled []childEntry
	for i := 0; i < 70; i++ {
		shuffled = append(shuffled, mkEntry([]string{"z", "a"}[i%2], "id", fmt.Sprint(i)))
	}
	unsorted := mkKids(shuffled)
	if _, cmps, _ := unsorted.kidIndex().Find(stepOf("a", core.Predicate{Path: "id", Value: "3"}), "/a"); cmps < len(shuffled) {
		t.Fatalf("kid index searched the unsorted list (%d comparisons), did not scan it", cmps)
	}
	for _, step := range []*core.SelectorStep{
		stepOf("a", core.Predicate{Path: "id", Value: "3"}),
		stepOf("z", core.Predicate{Path: "id", Value: "4"}),
		stepOf("z"),
		stepOf("a"),
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
