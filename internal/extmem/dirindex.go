package extmem

import (
	"sort"
	"strings"

	"xarch/internal/core"
)

// dirIndex is the lazily-built lookup index over one root's level-2
// child entries. The entries themselves are kept sorted by
// (name, canonical key) across a root's segments — the merge emits them
// in that order and the rebuild re-derives it from the payloads — so
// the index can binary-search instead of walking every entry:
//
//   - the contiguous run of entries with a given tag name is found by
//     binary search over the flat (segment, entry) space;
//   - a fully-keyed selector step (its predicates name exactly the key
//     paths the entries of that name carry) resolves with one binary
//     search over a display-ordered permutation, because canonical
//     order and display order need not agree while selector predicates
//     compare display values.
//
// Under-specified steps fall back to a linear scan of the name run,
// and an unsorted directory (which a healthy archive never produces)
// disables the index entirely — both fallbacks reproduce the exact
// scan semantics, ambiguity detection included, which the randomized
// differential against the in-memory engine pins.
//
// The index holds positions only: names and display keys are read from the
// segments' shared identity tables (segmentRecord.idents). It belongs to an
// immutable rootRecord and is built at most once per directory generation
// (sync.Once), shared by every query view that captured the generation.
// Roots below dirIndexMinEntries skip the build entirely: at that size the
// plain scan beats the O(n log n) construction it would amortize.
type dirIndex struct {
	segs   []*segmentRecord
	cum    []int             // cum[i] = entries before segs[i]; len(segs)+1 entries
	byDisp []int32           // physical positions sorted by (name, display key, position)
	shapes map[string]string // name -> uniform joined key-path shape
	mixed  map[string]bool   // name -> entries disagree on key-path shape
	sorted bool              // entries verified (name, canonical key)-sorted
	small  bool              // below dirIndexMinEntries: no index built
}

// dirIndexMinEntries is the root size below which lookups stay on the
// plain linear scan instead of building the index. A variable so tests
// can exercise the indexed path on small fixtures.
var dirIndexMinEntries = 64

// segEntry addresses one child entry inside its segment.
type segEntry struct {
	seg *segmentRecord
	i   int
}

func (m segEntry) e() *childEntry { return &m.seg.entries[m.i] }

// index returns the root's entry index, building it on first use.
func (r *rootRecord) index() *dirIndex {
	r.idxOnce.Do(func() { r.idx = buildDirIndex(r) })
	return r.idx
}

func buildDirIndex(r *rootRecord) *dirIndex {
	ix := &dirIndex{segs: r.segs, sorted: true}
	n := 0
	ix.cum = make([]int, len(r.segs)+1)
	for i, s := range r.segs {
		ix.cum[i] = n
		n += len(s.entries)
	}
	ix.cum[len(r.segs)] = n
	if n < dirIndexMinEntries {
		ix.small = true
		return ix
	}
	ix.shapes, ix.mixed = map[string]string{}, map[string]bool{}
	ix.byDisp = make([]int32, n)
	ids := make([]*entryIdent, 0, n) // by flat position, for the sort only
	var prevName string
	var prevKey *tkey
	flat := 0
	for _, s := range r.segs {
		segIDs := s.idents()
		for ei := range s.entries {
			e := &s.entries[ei]
			ids = append(ids, &segIDs[ei])
			if flat > 0 && compareLabels(prevName, prevKey, e.name, e.key) > 0 {
				ix.sorted = false
			}
			prevName, prevKey = e.name, e.key
			ix.byDisp[flat] = int32(flat)
			shape := joinedPaths(e.key)
			if cur, ok := ix.shapes[e.name]; !ok {
				ix.shapes[e.name] = shape
			} else if cur != shape {
				ix.mixed[e.name] = true
			}
			flat++
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

// at resolves a flat physical position to its segment and entry.
func (ix *dirIndex) at(flat int) segEntry {
	si := sort.Search(len(ix.cum), func(i int) bool { return ix.cum[i] > flat }) - 1
	return segEntry{seg: ix.segs[si], i: flat - ix.cum[si]}
}

// ident returns the identity of the entry at a flat physical position.
func (ix *dirIndex) ident(flat int) *entryIdent {
	se := ix.at(flat)
	return &se.seg.idents()[se.i]
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

// lookup returns the first two child entries of r matching the step, in
// physical (name, canonical key) order — the order the linear scan
// would discover them in. Callers resolve the first and report
// ambiguity with the second; nothing past the second match can change
// either outcome, so the search stops there.
func (r *rootRecord) lookup(step *core.SelectorStep) []segEntry {
	ix := r.index()
	if flats, ok := ix.seek(step); ok {
		var out []segEntry
		for _, p := range flats[:min(len(flats), 2)] {
			out = append(out, ix.at(int(p)))
		}
		return out
	}
	lo, hi := 0, ix.cum[len(ix.segs)]
	if !ix.small && ix.sorted {
		lo = sort.Search(hi, func(i int) bool { return ix.at(i).e().name >= step.Tag })
		hi = lo + sort.Search(hi-lo, func(i int) bool { return ix.at(lo+i).e().name > step.Tag })
	}
	return ix.scanRange(step, lo, hi)
}

// seek answers a fully-keyed step over a uniform key shape by binary
// search: every entry of the step's name carries exactly the predicate
// paths, so predicate matching reduces to display-key equality, and the
// entries that match are one run of the display-ordered permutation. It
// returns their physical positions, ascending. ok is false when the step
// cannot be answered this way — a small or unsorted root, an
// under-specified step, mixed key shapes — and the caller scans.
func (ix *dirIndex) seek(step *core.SelectorStep) (flats []int32, ok bool) {
	if ix.small || !ix.sorted || len(step.Preds) == 0 {
		return nil, false
	}
	target, ok := ix.exactTarget(step)
	if !ok {
		return nil, false
	}
	lo := sort.Search(len(ix.byDisp), func(i int) bool { return ix.ident(int(ix.byDisp[i])).compare(step.Tag, target) >= 0 })
	hi := lo
	for ; hi < len(ix.byDisp); hi++ {
		id := ix.ident(int(ix.byDisp[hi]))
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
// (uniform) key paths of the entries with the step's tag, returning the
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

// scanRange is the linear walk over the flat positions [lo, hi), segment
// by segment: exactly the pre-index scan, returning the first two matches.
func (ix *dirIndex) scanRange(step *core.SelectorStep, lo, hi int) []segEntry {
	var out []segEntry
	for si, s := range ix.segs {
		base := ix.cum[si]
		if base >= hi {
			break
		}
		if ix.cum[si+1] <= lo {
			continue
		}
		ids := s.idents()
		for i := max(lo-base, 0); i < len(s.entries) && base+i < hi; i++ {
			if !entryMatches(step, &ids[i]) {
				continue
			}
			if out = append(out, segEntry{seg: s, i: i}); len(out) == 2 {
				return out
			}
		}
	}
	return out
}
