// Package keyindex implements the temporal-history index of §7.2 of
// Buneman et al., "Archiving Scientific Data": for each keyed node, a
// sorted list of its children's key values, each entry carrying the
// child's effective timestamp and a link to its own sorted list. The
// history of an element identified by a key path of length l resolves with
// one binary search per step — O(l log d) for maximum degree d.
package keyindex

import (
	"sort"
	"strings"
	"sync/atomic"

	"xarch/internal/anode"
	"xarch/internal/core"
	"xarch/internal/intervals"
)

// entry is one record of a sorted child list: the child's search label,
// its effective timestamp ("timestamp offset") and its own sorted list
// ("index offset").
type entry struct {
	tag      string
	dispKey  string // key-path display values joined; the search key
	time     *intervals.Set
	node     *anode.Node
	children []entry
}

// Index is the sorted-list history index of an archive. An Index is
// immutable after Build and safe for concurrent History calls.
type Index struct {
	archive *core.Archive
	top     []entry
	// searches counts binary-search comparisons, for the O(l log d) bench.
	searches atomic.Int64
}

// SearchCount returns the number of comparisons performed since the index
// was built or ResetSearches was last called.
func (ix *Index) SearchCount() int { return int(ix.searches.Load()) }

// ResetSearches zeroes the comparison counter.
func (ix *Index) ResetSearches() { ix.searches.Store(0) }

// Build constructs the index with a single scan through the archive
// (§7.2): archive children are already label-sorted, but the search order
// here is by display value, so each list is re-sorted once at build time.
func Build(a *core.Archive) *Index {
	ix := &Index{archive: a}
	root := a.Root()
	ix.top = buildEntries(root, root.Time)
	return ix
}

func buildEntries(n *anode.Node, eff *intervals.Set) []entry {
	if n.Frontier {
		return nil
	}
	out := make([]entry, 0, len(n.Children))
	for _, c := range n.Children {
		t := c.Time
		if t == nil {
			t = eff
		}
		e := entry{
			tag:     c.Name,
			dispKey: dispKey(c),
			time:    t,
			node:    c,
		}
		e.children = buildEntries(c, t)
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].tag != out[j].tag {
			return out[i].tag < out[j].tag
		}
		return out[i].dispKey < out[j].dispKey
	})
	return out
}

func dispKey(n *anode.Node) string {
	if n.Key == nil {
		return ""
	}
	return strings.Join(n.Key.Disp, "\x00")
}

// History resolves a selector (the same syntax as core.Archive.History)
// with one binary search per step when the selector specifies every key
// path; under-specified steps fall back to a linear scan of that list.
// It is safe to call concurrently.
func (ix *Index) History(selector string) (*intervals.Set, error) {
	steps, err := core.ParseSelector(selector)
	if err != nil {
		return nil, err
	}
	list := ix.top
	var cur *entry
	path := ""
	searches := 0
	defer func() { ix.searches.Add(int64(searches)) }()
	for si := range steps {
		step := &steps[si]
		path += "/" + step.Tag
		found, err := ix.find(list, step, path, &searches)
		if err != nil {
			return nil, err
		}
		if found.node.Frontier && si+1 < len(steps) {
			// The sorted lists stop at the frontier (§7.2 indexes keyed
			// nodes): resolve the rest as the scan does.
			_, eff, err := core.ResolveFrom(found.node, found.time, steps[si+1:], path)
			if err != nil {
				return nil, err
			}
			return eff.Clone(), nil
		}
		cur = found
		list = found.children
	}
	return cur.time.Clone(), nil
}

// find locates the entry matching the step in the sorted list,
// accumulating comparison counts into searches (one atomic update per
// History call, not per comparison).
func (ix *Index) find(list []entry, step *core.SelectorStep, path string, searches *int) (*entry, error) {
	if target, ok := exactKey(step); ok {
		// Fully-specified key: binary search by (tag, dispKey).
		lo, hi := 0, len(list)
		for lo < hi {
			mid := (lo + hi) / 2
			*searches++
			if less(list[mid].tag, list[mid].dispKey, step.Tag, target) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(list) && list[lo].tag == step.Tag && list[lo].dispKey == target &&
			matchesNode(list[lo].node, step) {
			return &list[lo], nil
		}
		// A miss may mean the step named only some of the key paths (the
		// joined key then differs); fall through to the linear scan.
	}
	// Under-specified predicates: linear scan with ambiguity detection.
	var found *entry
	for i := range list {
		*searches++
		if list[i].tag != step.Tag || !matchesNode(list[i].node, step) {
			continue
		}
		if found != nil {
			return nil, core.AmbiguousSelectorError(path, found.node.Label(), list[i].node.Label())
		}
		found = &list[i]
	}
	if found == nil {
		return nil, core.NoSuchElementError(path)
	}
	return found, nil
}

// exactKey reports whether the step pins down every key path of the
// target's key, returning the joined display key. It must check against
// the actual key shape, which it can only do per candidate; the fast path
// applies when predicate count equals the key-path count of a candidate,
// verified in find via matchesNode.
func exactKey(step *core.SelectorStep) (string, bool) {
	if len(step.Preds) == 0 {
		return "", false
	}
	// Predicates sorted by path, mirroring KeyValue's canonical order.
	preds := append([]core.Predicate{}, step.Preds...)
	sort.Slice(preds, func(i, j int) bool { return preds[i].Path < preds[j].Path })
	vals := make([]string, len(preds))
	for i, p := range preds {
		vals[i] = p.Value
	}
	return strings.Join(vals, "\x00"), true
}

// matchesNode defers to the shared selector matcher in core, so the
// indexed and scan paths can never disagree on predicate semantics.
func matchesNode(n *anode.Node, step *core.SelectorStep) bool {
	if n.Key == nil {
		return len(step.Preds) == 0
	}
	return step.MatchesKey(n.Key.Paths, n.Key.Disp)
}

func less(tagA, keyA, tagB, keyB string) bool {
	if tagA != tagB {
		return tagA < tagB
	}
	return keyA < keyB
}
