package extmem

import (
	"iter"
	"sort"
	"strings"

	"xarch/internal/core"
)

// dirIndex is the lazily-built lookup index over one ordered list of
// identities: a root's level-2 entries across its segments, or the kids of
// one record's posting (its kid mini-index). Both lists are kept
// sorted by (name, canonical key) — the merge emits siblings in that order,
// the rebuild re-derives it from the payloads, and a posting records its
// kids in stored order — so the index binary-searches instead of walking
// every identity:
//
//   - the contiguous run of identities with a given tag name is found by
//     binary search over the list;
//   - a fully-keyed selector step (its predicates name exactly the key
//     paths the identities of that name carry) resolves with one binary
//     search over a display-ordered permutation, because canonical
//     order and display order need not agree while selector predicates
//     compare display values.
//
// Under-specified steps fall back to a linear scan of the name run,
// and an unsorted list (which a healthy archive never produces)
// disables the index entirely — both fallbacks reproduce the exact
// scan semantics, ambiguity detection included, which the randomized
// differential against the in-memory engine pins.
//
// The index holds positions only, besides the list itself: names and
// display keys are read from the shared identity tables
// (segmentRecord.idents, idxEntry's kid identities). It belongs to an
// immutable rootRecord or idxEntry and is built at most once (sync.Once),
// on first use, shared by every query view that sees its owner. Lists
// below dirIndexMinEntries skip the build: at that size the plain scan
// beats the O(n log n) construction it would amortize.
type dirIndex struct {
	ids    []*entryIdent     // the list, in physical order
	byDisp []int32           // positions sorted by (name, display key, position)
	shapes map[string]string // name -> uniform joined key-path shape
	mixed  map[string]bool   // name -> identities disagree on key-path shape
	sorted bool              // identities verified (name, canonical key)-sorted
	small  bool              // below dirIndexMinEntries: no index built
}

// dirIndexMinEntries is the list length below which lookups stay on the
// plain linear scan instead of building the index. A variable so tests
// can exercise the indexed path on small fixtures.
var dirIndexMinEntries = 64

func newDirIndex(ids []*entryIdent) *dirIndex {
	ix := &dirIndex{ids: ids, sorted: true}
	if len(ids) < dirIndexMinEntries {
		ix.small = true
		return ix
	}
	ix.shapes, ix.mixed = map[string]string{}, map[string]bool{}
	ix.byDisp = make([]int32, len(ids))
	for i, id := range ids {
		if i > 0 && compareLabels(ids[i-1].name, ids[i-1].canon, id.name, id.canon) > 0 {
			ix.sorted = false
		}
		ix.byDisp[i] = int32(i)
		shape := joinedPaths(id.canon)
		if cur, ok := ix.shapes[id.name]; !ok {
			ix.shapes[id.name] = shape
		} else if cur != shape {
			ix.mixed[id.name] = true
		}
	}
	sort.Slice(ix.byDisp, func(i, j int) bool {
		a, b := ix.byDisp[i], ix.byDisp[j]
		if c := ids[a].compare(ids[b].name, ids[b].joined); c != 0 {
			return c < 0
		}
		return a < b
	})
	return ix
}

// segEntry addresses one child entry inside its segment.
type segEntry struct {
	seg *segmentRecord
	i   int
}

func (m segEntry) e() *childEntry { return &m.seg.entries[m.i] }

// index returns the index over the root's level-2 entries, building it on
// first use.
func (r *rootRecord) index() *dirIndex {
	r.idxOnce.Do(func() {
		ids := make([]*entryIdent, 0, r.entryCount())
		r.cum = make([]int, len(r.segs)+1)
		for i, s := range r.segs {
			r.cum[i] = len(ids)
			segIDs := s.idents()
			for ei := range segIDs {
				ids = append(ids, &segIDs[ei])
			}
		}
		r.cum[len(r.segs)] = len(ids)
		r.idx = newDirIndex(ids)
	})
	return r.idx
}

// at resolves a position in the root's entry list to its segment and entry.
func (r *rootRecord) at(pos int32) segEntry {
	si := sort.Search(len(r.cum), func(i int) bool { return r.cum[i] > int(pos) }) - 1
	return segEntry{seg: r.segs[si], i: int(pos) - r.cum[si]}
}

// kidIndex returns the index over the posting's kids, deriving their
// identities with it on first use.
func (e *idxEntry) kidIndex() *dirIndex {
	e.kidOnce.Do(func() {
		idents := make([]entryIdent, len(e.kids))
		ids := make([]*entryIdent, len(e.kids))
		for i := range e.kids {
			idents[i] = identOf(e.kids[i].name, e.kids[i].key)
			ids[i] = &idents[i]
		}
		e.kidIdx = newDirIndex(ids)
	})
	return e.kidIdx
}

// compare orders the identity against a (name, joined display key) pair:
// byDisp's order.
func (id *entryIdent) compare(name, joined string) int {
	if c := strings.Compare(id.name, name); c != 0 {
		return c
	}
	return strings.Compare(id.joined, joined)
}

// joinedPaths renders a key annotation's path names (already sorted by
// path, §4.2) as one comparable shape string.
func joinedPaths(k *tkey) string {
	if k == nil {
		return ""
	}
	return strings.Join(k.paths, "\x00")
}

// matches yields the positions of the identities matching the step, in
// physical (name, canonical key) order — the order the linear scan would
// discover them in.
func (ix *dirIndex) matches(step *core.SelectorStep) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		if pos, ok := ix.seek(step); ok {
			for _, p := range pos {
				if !yield(p) {
					return
				}
			}
			return
		}
		lo, hi := 0, len(ix.ids)
		if !ix.small && ix.sorted {
			lo = sort.Search(hi, func(i int) bool { return ix.ids[i].name >= step.Tag })
			hi = lo + sort.Search(hi-lo, func(i int) bool { return ix.ids[lo+i].name > step.Tag })
		}
		for i := lo; i < hi; i++ {
			if entryMatches(step, ix.ids[i]) && !yield(int32(i)) {
				return
			}
		}
	}
}

// firstTwo returns the positions of the first n ≤ 2 matches of the step.
// History resolves the first and reports ambiguity with the second; nothing
// past the second match can change either outcome.
func (ix *dirIndex) firstTwo(step *core.SelectorStep) (hits [2]int32, n int) {
	for p := range ix.matches(step) {
		hits[n] = p
		if n++; n == 2 {
			break
		}
	}
	return hits, n
}

// seek answers a fully-keyed step over a uniform key shape by binary
// search: every identity of the step's name carries exactly the predicate
// paths, so predicate matching reduces to display-key equality, and the
// identities that match are one run of the display-ordered permutation. It
// returns their positions, ascending. ok is false when the step cannot be
// answered this way — a small or unsorted list, an under-specified step,
// mixed key shapes — and the caller scans.
func (ix *dirIndex) seek(step *core.SelectorStep) (pos []int32, ok bool) {
	if ix.small || !ix.sorted || len(step.Preds) == 0 {
		return nil, false
	}
	target, ok := ix.exactTarget(step)
	if !ok {
		return nil, false
	}
	lo := sort.Search(len(ix.byDisp), func(i int) bool { return ix.ids[ix.byDisp[i]].compare(step.Tag, target) >= 0 })
	hi := lo
	for ; hi < len(ix.byDisp); hi++ {
		id := ix.ids[ix.byDisp[hi]]
		if id.compare(step.Tag, target) != 0 {
			break
		}
		if !entryMatches(step, id) {
			// Cannot happen while the uniformity invariant holds;
			// re-derive the answer the slow way rather than trust it.
			return nil, false
		}
	}
	return ix.byDisp[lo:hi], true
}

// exactTarget reports whether the step's predicates name exactly the
// (uniform) key paths of the identities with the step's tag, returning the
// joined display target for the binary search.
func (ix *dirIndex) exactTarget(step *core.SelectorStep) (string, bool) {
	if ix.mixed[step.Tag] {
		return "", false
	}
	shape, ok := ix.shapes[step.Tag]
	if !ok {
		return "", false
	}
	preds := step.Preds
	if len(preds) == 1 {
		return preds[0].Value, preds[0].Path == shape
	}
	if !sort.SliceIsSorted(preds, func(i, j int) bool { return preds[i].Path < preds[j].Path }) {
		sorted := append([]core.Predicate(nil), preds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
		preds = sorted
	}
	paths := make([]string, len(preds))
	vals := make([]string, len(preds))
	for i, p := range preds {
		paths[i] = p.Path
		vals[i] = p.Value
	}
	if strings.Join(paths, "\x00") != shape {
		return "", false
	}
	return strings.Join(vals, "\x00"), true
}
