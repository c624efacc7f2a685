// Package keyindex implements the temporal-history index of §7.2 of
// Buneman et al., "Archiving Scientific Data": for each keyed node, a
// sorted list of its children's keys, each entry carrying the child's
// effective timestamp and a link to its own sorted list. The history of an
// element identified by a key path of length l resolves with one binary
// search per step — O(l log d) for maximum degree d.
//
// List is that sorted list, and it is the only one: the in-memory engine
// keeps one per non-frontier node of its annotated tree (Index), and the
// external engine keeps one over its roots, one over each root's level-2
// entries and one over each posting's kids. Both match a selector step
// with core.SelectorStep.Matches, and both report no match and ambiguity
// through List.Find.
package keyindex

import (
	"sync"
	"sync/atomic"

	"xarch/internal/anode"
	"xarch/internal/core"
	"xarch/internal/intervals"
)

// level is the list of one non-frontier node's children ("index offset"),
// built by the first lookup that reaches the node, with its effective
// timestamp ("timestamp offset"), which children without one inherit.
type level struct {
	node  *anode.Node
	eff   *intervals.Set
	once  sync.Once
	list  *List
	below []*level // a child's own level; nil for a frontier child
}

// Index is the sorted-list history index of an in-memory archive. An
// Index is safe for concurrent History calls; the archive must not change
// under it.
type Index struct {
	top *level
	// searches counts list comparisons, for the O(l log d) bench.
	searches atomic.Int64
}

// SearchCount returns the number of comparisons performed since the index
// was built or ResetSearches was last called.
func (ix *Index) SearchCount() int { return int(ix.searches.Load()) }

// ResetSearches zeroes the comparison counter.
func (ix *Index) ResetSearches() { ix.searches.Store(0) }

// Build returns the index of the archive. A level's list is built when a
// lookup first reaches its node, so the first History after an Add pays
// for the lists on its path, not for the whole archive. Archive children
// are already in (name, canonical key) order
// (anode.Node.SortChildrenByLabel), which is the order a List searches.
func Build(a *core.Archive) *Index {
	root := a.Root()
	return &Index{top: &level{node: root, eff: root.Time}}
}

// build builds the level's list on first use and returns the level.
func (lv *level) build() *level {
	lv.once.Do(func() {
		kids := lv.node.Children
		idents := make([]Ident, len(kids))
		ids := make([]*Ident, len(kids))
		lv.below = make([]*level, len(kids))
		for i, c := range kids {
			idents[i] = IdentOf(c.Name, c.Key)
			ids[i] = &idents[i]
			if !c.Frontier {
				lv.below[i] = &level{node: c, eff: effOf(c, lv.eff)}
			}
		}
		lv.list = NewList(ids)
	})
	return lv
}

// effOf is a node's effective timestamp under its parent's.
func effOf(n *anode.Node, parent *intervals.Set) *intervals.Set {
	if n.Time != nil {
		return n.Time
	}
	return parent
}

// History resolves a selector (the same syntax as core.Archive.History)
// with one list lookup per step: a binary search when the step names every
// key path, a scan of the name's run otherwise. Steps below a frontier
// node resolve as the scan does. It is safe to call concurrently.
func (ix *Index) History(selector string) (*intervals.Set, error) {
	steps, err := core.ParseSelector(selector)
	if err != nil {
		return nil, err
	}
	lv := ix.top
	var eff *intervals.Set
	path := ""
	searches := 0
	defer func() { ix.searches.Add(int64(searches)) }()
	for si := range steps {
		path += "/" + steps[si].Tag
		pos, cmps, err := lv.build().list.Find(&steps[si], path)
		searches += cmps
		if err != nil {
			return nil, err
		}
		c := lv.node.Children[pos]
		eff = effOf(c, lv.eff)
		if lv.below[pos] == nil && si+1 < len(steps) {
			// The sorted lists stop at the frontier (§7.2 indexes keyed
			// nodes): resolve the rest as the scan does.
			if _, eff, err = core.ResolveFrom(c, eff, steps[si+1:], path); err != nil {
				return nil, err
			}
			break
		}
		lv = lv.below[pos]
	}
	return eff.Clone(), nil
}
