package keyindex

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"xarch/internal/anode"
	"xarch/internal/core"
)

// mkIdent builds the identity of an element keyed by the given path/value
// pairs (sorted by path), with canonical form t(<v>) and display <v>.
func mkIdent(name string, pathVals ...string) *Ident {
	var kv *anode.KeyValue
	for i := 0; i < len(pathVals); i += 2 {
		if kv == nil {
			kv = &anode.KeyValue{}
		}
		kv.Paths = append(kv.Paths, pathVals[i])
		kv.Canon = append(kv.Canon, "t("+pathVals[i+1]+")")
		kv.Disp = append(kv.Disp, pathVals[i+1])
	}
	id := IdentOf(name, kv)
	return &id
}

func stepOf(tag string, preds ...core.Predicate) *core.SelectorStep {
	return &core.SelectorStep{Tag: tag, Preds: preds}
}

// forceIndex drops the small-list threshold so the fixtures below exercise
// the binary search.
func forceIndex(t *testing.T) {
	t.Helper()
	old := minEntries
	minEntries = 0
	t.Cleanup(func() { minEntries = old })
}

// checkLookup holds the list to a linear scan over every identity: every
// match in stored order, and what Find makes of the first two.
func checkLookup(t *testing.T, ids []*Ident, step *core.SelectorStep) {
	t.Helper()
	var want []int32
	for i, id := range ids {
		if step.Matches(id.Name, id.Key) {
			want = append(want, int32(i))
		}
	}
	l := NewList(ids)
	if got := slices.Collect(l.Matches(step)); !slices.Equal(got, want) {
		t.Errorf("Matches(%s%v): %v, want %v", step.Tag, step.Preds, got, want)
	}
	pos, _, err := l.Find(step, "/"+step.Tag)
	switch {
	case len(want) == 0 && !errors.Is(err, core.ErrNoSuchElement):
		t.Errorf("Find(%s%v) = %d, %v; want no such element", step.Tag, step.Preds, pos, err)
	case len(want) == 1 && (err != nil || pos != want[0]):
		t.Errorf("Find(%s%v) = %d, %v; want %d", step.Tag, step.Preds, pos, err, want[0])
	case len(want) > 1:
		wantErr := core.AmbiguousSelectorError("/"+step.Tag, ids[want[0]].Label, ids[want[1]].Label)
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("Find(%s%v) = %d, %v; want %v", step.Tag, step.Preds, pos, err, wantErr)
		}
	}
}

// TestListLookup drives the binary search against the linear reference
// over every step shape: keyless, fully keyed (hit, miss, duplicate
// display), under-specified, and unknown names.
func TestListLookup(t *testing.T) {
	forceIndex(t)
	var ids []*Ident
	for i := 0; i < 40; i++ {
		ids = append(ids, mkIdent("emp", "id", fmt.Sprintf("e%03d", i)))
	}
	ids = append(ids, mkIdent("item", "id", "zz"), mkIdent("item", "id", "zz"), mkIdent("plain"))
	for _, step := range []*core.SelectorStep{
		stepOf("emp", core.Predicate{Path: "id", Value: "e000"}),
		stepOf("emp", core.Predicate{Path: "id", Value: "e021"}),
		stepOf("emp", core.Predicate{Path: "id", Value: "e039"}),
		stepOf("emp", core.Predicate{Path: "id", Value: "nosuch"}),
		stepOf("emp", core.Predicate{Path: "wrongpath", Value: "e000"}),
		stepOf("emp"), // ambiguous: first two in stored order
		stepOf("item", core.Predicate{Path: "id", Value: "zz"}), // duplicate display: ambiguous
		stepOf("plain"),
		stepOf("plain", core.Predicate{Path: "id", Value: "x"}), // keyless entry, keyed step
		stepOf("nosuch"),
		stepOf("aaaa"), // before every name
		stepOf("zzzz"), // after every name
	} {
		checkLookup(t, ids, step)
	}
}

// TestListDisplayOrder: canonical order and display order disagree. A
// structured key and a text key with equal displays are one ambiguous
// fully keyed step, and every scan reports matches in stored order.
func TestListDisplayOrder(t *testing.T) {
	forceIndex(t)
	rec := func(canon, disp string) *Ident {
		id := IdentOf("rec", &anode.KeyValue{Paths: []string{"id"}, Canon: []string{canon}, Disp: []string{disp}})
		return &id
	}
	ids := []*Ident{rec(`e(ide(b))`, `e(ide(b))`), rec(`t(a\()`, `a(`), rec(`t(aB)`, `aB`),
		rec(`t(e\(ide\(b\)\))`, `e(ide(b))`), rec(`t(x=y\\)`, `x=y\`)}
	slices.SortFunc(ids, func(a, b *Ident) int { return a.Key.Compare(b.Key) }) // t(aB) before t(a\(), while "a(" < "aB"
	l := NewList(ids)
	if !l.sorted {
		t.Fatal("the stored order was not recognized")
	}
	if _, ok := l.seek(stepOf("rec", core.Predicate{Path: "id", Value: "aB"}), new(int)); !ok {
		t.Error("a fully keyed step did not take the binary search")
	}
	for _, step := range []*core.SelectorStep{
		stepOf("rec"),
		stepOf("rec", core.Predicate{Path: "id", Value: "e(ide(b))"}),
		stepOf("rec", core.Predicate{Path: "id", Value: "a("}),
		stepOf("rec", core.Predicate{Path: "id", Value: "aB"}),
		stepOf("rec", core.Predicate{Path: "id", Value: `x=y\`}),
	} {
		checkLookup(t, ids, step)
	}
}

// TestListMixedShapes: a name whose identities disagree on key-path
// shape disables the display fast path for that name but stays exact.
func TestListMixedShapes(t *testing.T) {
	forceIndex(t)
	ids := []*Ident{mkIdent("n", "a", "1"), mkIdent("n", "a", "1", "b", "2"), mkIdent("n", "a", "3")}
	if tgt, ok := NewList(ids).exactTarget(stepOf("n", core.Predicate{Path: "a", Value: "1"})); ok {
		t.Fatalf("mixed-shape name offered a fast path (target %q)", tgt)
	}
	checkLookup(t, ids, stepOf("n", core.Predicate{Path: "a", Value: "1"}))
	checkLookup(t, ids, stepOf("n", core.Predicate{Path: "a", Value: "1"}, core.Predicate{Path: "b", Value: "2"}))
	checkLookup(t, ids, stepOf("n", core.Predicate{Path: "b", Value: "2"}))
}

// TestListUnsortedFallback: a list violating the sort invariant (never
// produced by a healthy archive) falls back to the plain scan rather than
// missing matches.
func TestListUnsortedFallback(t *testing.T) {
	forceIndex(t)
	ids := []*Ident{mkIdent("z", "id", "1"), mkIdent("a", "id", "2")} // out of order
	if NewList(ids).sorted {
		t.Fatal("list did not detect the unsorted order")
	}
	checkLookup(t, ids, stepOf("a", core.Predicate{Path: "id", Value: "2"}))
	checkLookup(t, ids, stepOf("z"))
}

// TestListSmallLinear: below the build threshold no search structure is
// constructed and lookups run the linear scan.
func TestListSmallLinear(t *testing.T) {
	ids := []*Ident{mkIdent("emp", "id", "a"), mkIdent("emp", "id", "b")}
	if !NewList(ids).small {
		t.Fatal("small list built a search structure")
	}
	checkLookup(t, ids, stepOf("emp", core.Predicate{Path: "id", Value: "b"}))
	checkLookup(t, ids, stepOf("emp"))
	checkLookup(t, ids, stepOf("nosuch"))
}

// TestListLookupCost: a fully-keyed lookup over a wide list compares
// O(log n) identities.
func TestListLookupCost(t *testing.T) {
	const n = 1 << 15
	ids := make([]*Ident, n)
	for i := range ids {
		ids[i] = mkIdent("rec", "id", fmt.Sprintf("k%06d", i))
	}
	l := NewList(ids)
	for _, probe := range []int{0, 1, n / 2, n - 1} {
		pos, cmps, err := l.Find(stepOf("rec", core.Predicate{Path: "id", Value: fmt.Sprintf("k%06d", probe)}), "/rec")
		if err != nil || pos != int32(probe) {
			t.Fatalf("Find k%06d = %d, %v", probe, pos, err)
		}
		if cmps > 20 {
			t.Errorf("Find k%06d compared %d identities, want about log2(%d)", probe, cmps, n)
		}
	}
}
