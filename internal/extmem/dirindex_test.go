package extmem

import (
	"fmt"
	"testing"

	"xarch/internal/core"
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
	got := r.lookup(step)
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
		got := r.lookup(step)
		if len(got) != 1 || got[0].e() != &r.segs[0].entries[probe] {
			t.Fatalf("lookup k%06d: %v", probe, got)
		}
	}
}
