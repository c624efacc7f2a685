package keyindex

import (
	"iter"
	"sort"
	"strings"

	"xarch/internal/anode"
	"xarch/internal/core"
	"xarch/internal/xmltree"
)

// Ident is what a query derives from the name and key of one member of a
// list: the display values selector predicates compare, the label results
// and errors print, and the canonical values whose order the list checks.
// It is a function of the immutable name and key alone.
type Ident struct {
	Name   string
	Label  string          // "emp{fn=John,ln=Doe}"
	Key    *anode.KeyValue // nil for an unkeyed node
	joined string          // the display values joined by NUL: byDisp's sort key
}

// IdentOf is the identity of an element named name whose key is key (nil
// for an unkeyed element), which it keeps.
func IdentOf(name string, key *anode.KeyValue) Ident {
	if key.Len() == 0 {
		return Ident{Name: name, Label: name}
	}
	return Ident{Name: name, Label: name + key.String(), Key: key,
		joined: strings.Join(key.Disp, "\x00")} // XML text cannot contain NUL
}

// Display derives the display values of canonical key values, by the
// derivation the annotator applies, so that a key read back from storage
// matches a selector exactly like the annotated node it was written from.
func Display(canon []string) []string {
	disp := make([]string, len(canon))
	for i, c := range canon {
		disp[i] = xmltree.DisplayFromCanonical(c)
	}
	return disp
}

// shape joins the identity's key-path names into one comparable string.
func (id *Ident) shape() string {
	if id.Key == nil {
		return ""
	}
	return strings.Join(id.Key.Paths, "\x00")
}

// compareDisp orders the identity against a (name, joined display key)
// pair: byDisp's order.
func (id *Ident) compareDisp(name, joined string) int {
	if c := strings.Compare(id.Name, name); c != 0 {
		return c
	}
	return strings.Compare(id.joined, joined)
}

// List is the §7.2 sorted list of one keyed node's children: the in-memory
// engine keeps one per non-frontier node, the external engine one over a
// root's level-2 entries across its segments, one over a posting's kids and
// one over the roots. Both engines store siblings in (name, canonical key)
// order, so the list binary-searches instead of walking every identity:
//
//   - the contiguous run of identities with a given tag name is found by
//     binary search over the list;
//   - a fully-keyed selector step (its predicates name exactly the key
//     paths the identities of that name carry) resolves with one binary
//     search over a display-ordered permutation, because canonical order
//     and display order need not agree while selector predicates compare
//     display values.
//
// Under-specified steps fall back to a linear scan of the name run, and an
// unsorted list (which a healthy archive never produces) disables the
// search entirely. Both fallbacks report matches in stored order, as a
// scan of the siblings would, and a fully-keyed step that two identities
// of equal display match is ambiguous on every path.
//
// A List is immutable once built and safe for concurrent use. Lists
// shorter than minEntries build nothing: at that size the plain scan beats
// the O(n log n) construction it would amortize.
type List struct {
	ids    []*Ident          // the list, in stored order
	byDisp []int32           // positions sorted by (name, display key, position)
	shapes map[string]string // name -> uniform joined key-path shape
	mixed  map[string]bool   // name -> identities disagree on key-path shape
	sorted bool              // identities verified (name, canonical key)-sorted
	small  bool              // below minEntries: no search structure built
}

// minEntries is the list length below which lookups stay on the plain
// linear scan. A variable so that tests can search small fixtures.
var minEntries = 64

// NewList builds the list over ids, which it keeps.
func NewList(ids []*Ident) *List {
	l := &List{ids: ids, sorted: true}
	if len(ids) < minEntries {
		l.small = true
		return l
	}
	l.shapes, l.mixed = map[string]string{}, map[string]bool{}
	l.byDisp = make([]int32, len(ids))
	for i, id := range ids {
		// Siblings are stored in <=lab order (§4.2): name, then key.
		if i > 0 && (ids[i-1].Name > id.Name || ids[i-1].Name == id.Name && ids[i-1].Key.Compare(id.Key) > 0) {
			l.sorted = false
		}
		l.byDisp[i] = int32(i)
		shape := id.shape()
		if cur, ok := l.shapes[id.Name]; !ok {
			l.shapes[id.Name] = shape
		} else if cur != shape {
			l.mixed[id.Name] = true
		}
	}
	sort.Slice(l.byDisp, func(i, j int) bool {
		a, b := l.byDisp[i], l.byDisp[j]
		if c := ids[a].compareDisp(ids[b].Name, ids[b].joined); c != 0 {
			return c < 0
		}
		return a < b
	})
	return l
}

// Find returns the position of the one identity the step selects, or the
// error a resolver reports when none or more than one does; path is the
// selector prefix through the step. cmps is the number of identities it
// compared, for the O(l log d) bound.
func (l *List) Find(step *core.SelectorStep, path string) (pos int32, cmps int, err error) {
	var hits [2]int32
	n := 0
	l.visit(step, &cmps, func(p int32) bool {
		hits[n] = p
		n++
		return n < 2
	})
	switch n {
	case 0:
		return -1, cmps, core.NoSuchElementError(path)
	case 2:
		return -1, cmps, core.AmbiguousSelectorError(path, l.ids[hits[0]].Label, l.ids[hits[1]].Label)
	}
	return hits[0], cmps, nil
}

// Matches yields the positions of the identities matching the step, in
// stored order.
func (l *List) Matches(step *core.SelectorStep) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		var cmps int
		l.visit(step, &cmps, yield)
	}
}

// visit passes the positions of the matching identities to yield, in
// stored order, until it returns false, counting comparisons into cmps.
func (l *List) visit(step *core.SelectorStep, cmps *int, yield func(int32) bool) {
	if pos, ok := l.seek(step, cmps); ok {
		for _, p := range pos {
			if !yield(p) {
				return
			}
		}
		return
	}
	lo, hi := 0, len(l.ids)
	if !l.small && l.sorted {
		lo = sort.Search(hi, func(i int) bool { *cmps++; return l.ids[i].Name >= step.Tag })
		hi = lo + sort.Search(hi-lo, func(i int) bool { *cmps++; return l.ids[lo+i].Name > step.Tag })
	}
	for i := lo; i < hi; i++ {
		*cmps++
		if step.Matches(l.ids[i].Name, l.ids[i].Key) && !yield(int32(i)) {
			return
		}
	}
}

// seek answers a fully-keyed step over a uniform key shape by binary
// search, counting comparisons into cmps: every identity of the step's name
// carries exactly the predicate paths, so predicate matching reduces to
// display-key equality, and the identities that match are one run of the
// display-ordered permutation. It returns their positions, ascending. ok is
// false when the step cannot be answered this way — a small or unsorted
// list, an under-specified step, mixed key shapes — and the caller scans.
func (l *List) seek(step *core.SelectorStep, cmps *int) (pos []int32, ok bool) {
	if l.small || !l.sorted || len(step.Preds) == 0 {
		return nil, false
	}
	target, ok := l.exactTarget(step)
	if !ok {
		return nil, false
	}
	lo := sort.Search(len(l.byDisp), func(i int) bool {
		*cmps++
		return l.ids[l.byDisp[i]].compareDisp(step.Tag, target) >= 0
	})
	hi := lo
	for ; hi < len(l.byDisp); hi++ {
		*cmps++
		id := l.ids[l.byDisp[hi]]
		if id.compareDisp(step.Tag, target) != 0 {
			break
		}
		if !step.Matches(id.Name, id.Key) {
			// Cannot happen while the uniformity invariant holds;
			// re-derive the answer the slow way rather than trust it.
			return nil, false
		}
	}
	return l.byDisp[lo:hi], true
}

// exactTarget reports whether the step's predicates name exactly the
// (uniform) key paths of the identities with the step's tag, returning the
// joined display target for the binary search.
func (l *List) exactTarget(step *core.SelectorStep) (string, bool) {
	if l.mixed[step.Tag] {
		return "", false
	}
	shape, ok := l.shapes[step.Tag]
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
