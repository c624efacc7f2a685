package qlang

import (
	"math"
	"sort"

	"xarch/internal/anode"
	"xarch/internal/core"
	"xarch/internal/intervals"
	"xarch/internal/xmltree"
)

// Result is one matching record of a Select evaluation.
type Result struct {
	Path     string `json:"path"`     // "/root{...}" or "/root{...}/record{...}"
	Versions string `json:"versions"` // interval-set string of matching versions
}

// AttrFact is one XML attribute occurrence inside a record subtree. Time is
// the effective lifespan of the attribute's element; nil means it inherits
// the record lifespan.
type AttrFact struct {
	Name  string
	Value string
	Time  *intervals.Set
}

// ChangeItem is one content-change fact of a record: a content group
// anywhere in the record subtree began at some version. Explicit items
// carry that version; the inherit item (Explicit false) resolves to the
// record lifespan's minimum at evaluation time. Lists are canonical:
// at most one inherit item first, then distinct versions ascending.
type ChangeItem struct {
	Explicit bool
	V        int
}

// RecordFacts are the attribute and change facts of one record, sufficient to
// evaluate @name[=value] and changed predicates. They are derivable either
// from a materialized annotated subtree (FactsOf) or from an index's postings.
type RecordFacts struct {
	HasGroups bool
	Changes   []ChangeItem
	Attrs     []AttrFact
}

// FactsOf extracts RecordFacts from a record's annotated subtree. Effective
// times follow core.ResolveFrom semantics: an explicit node time replaces the
// inherited one; group content inherits the group time. Content groups at
// every depth contribute change facts: an explicit group changed at its
// time's minimum, a shared (nil-time) group at its owning element's
// effective minimum — the record lifespan's, when fully inherited.
func FactsOf(n *anode.Node) *RecordFacts {
	f := &RecordFacts{}
	f.collect(n, nil)
	f.Changes = NormalizeChanges(f.Changes)
	return f
}

// NormalizeChanges puts a change list in canonical form: at most one
// inherit item first, then distinct explicit versions ascending. Collection
// order is walk-dependent, so the canonical form is what gets stored and
// compared. It reuses cs's storage.
func NormalizeChanges(cs []ChangeItem) []ChangeItem {
	if len(cs) == 0 {
		return cs
	}
	inherit := false
	seen := map[int]bool{}
	var vs []int
	for _, c := range cs {
		if !c.Explicit {
			inherit = true
		} else if !seen[c.V] {
			seen[c.V] = true
			vs = append(vs, c.V)
		}
	}
	sort.Ints(vs)
	out := cs[:0]
	if inherit {
		out = append(out, ChangeItem{})
	}
	for _, v := range vs {
		out = append(out, ChangeItem{Explicit: true, V: v})
	}
	return out
}

// collect gathers attribute facts below n, where t is n's effective time
// relative to the record lifespan (nil = inherit).
func (f *RecordFacts) collect(n *anode.Node, t *intervals.Set) {
	for _, a := range n.Attrs {
		at := t
		if a.Time != nil {
			at = a.Time
		}
		f.Attrs = append(f.Attrs, AttrFact{Name: a.Name, Value: a.Data, Time: at})
	}
	for _, c := range n.Children {
		if c.Kind != xmltree.Element {
			continue
		}
		ct := t
		if c.Time != nil {
			ct = c.Time
		}
		f.collect(c, ct)
	}
	if n.Groups != nil {
		f.HasGroups = true
	}
	for _, g := range n.Groups {
		gt := t
		if g.Time != nil {
			gt = g.Time
			if !g.Time.Empty() {
				f.Changes = append(f.Changes, ChangeItem{Explicit: true, V: g.Time.Min()})
			}
		} else if t != nil && !t.Empty() {
			f.Changes = append(f.Changes, ChangeItem{Explicit: true, V: t.Min()})
		} else {
			f.Changes = append(f.Changes, ChangeItem{})
		}
		for _, it := range g.Content {
			switch it.Kind {
			case xmltree.Attr:
				at := gt
				if it.Time != nil {
					at = it.Time
				}
				f.Attrs = append(f.Attrs, AttrFact{Name: it.Name, Value: it.Data, Time: at})
			case xmltree.Element:
				ct := gt
				if it.Time != nil {
					ct = it.Time
				}
				f.collect(it, ct)
			}
		}
	}
}

// EvalAttr evaluates an attribute predicate against facts: the union of the
// effective lifespans of every element bearing a matching attribute,
// intersected with the record lifespan.
func EvalAttr(f *RecordFacts, p *AttrPred, life *intervals.Set) *intervals.Set {
	acc := intervals.New()
	for i := range f.Attrs {
		a := &f.Attrs[i]
		if a.Name != p.Name {
			continue
		}
		if p.HasValue && a.Value != p.Value {
			continue
		}
		t := a.Time
		if t == nil {
			t = life
		}
		acc = acc.Union(t)
	}
	return acc.Intersect(life)
}

// ChangeSet evaluates the changed-versions point set of facts within
// [lo, hi]: the start version of every content group in the record subtree,
// or the record's first version when its content is entirely group-free.
func ChangeSet(f *RecordFacts, life *intervals.Set, lo, hi int) *intervals.Set {
	out := intervals.New()
	add := func(v int) {
		if lo <= v && v <= hi {
			out.Add(v)
		}
	}
	if !f.HasGroups {
		if !life.Empty() {
			add(life.Min())
		}
		return out
	}
	for _, c := range f.Changes {
		if c.Explicit {
			add(c.V)
		} else if !life.Empty() {
			add(life.Min())
		}
	}
	return out
}

// EvalPath walks steps below n (effective time eff), returning the union of
// the effective lifespans of all matching descendants. Matching follows
// core.ResolveFrom — Children only, explicit times replace inherited ones —
// but takes every match instead of erroring on ambiguity.
func EvalPath(n *anode.Node, eff *intervals.Set, steps []core.SelectorStep) *intervals.Set {
	if len(steps) == 0 {
		return intervals.New().Union(eff)
	}
	step := &steps[0]
	acc := intervals.New()
	for _, c := range n.Children {
		if c.Kind != xmltree.Element {
			continue
		}
		if !step.Matches(c.Name, c.Key) {
			continue
		}
		ceff := eff
		if c.Time != nil {
			ceff = c.Time
		}
		acc = acc.Union(EvalPath(c, ceff, steps[1:]))
	}
	return acc
}

// Source is where an engine keeps what a Record does not carry: the parts
// that cost I/O or a tree, asked for only when a predicate needs them.
type Source interface {
	// Node materializes the record's annotated subtree, for scan
	// evaluation of path, attribute and changed predicates.
	Node() (*anode.Node, error)
	// Facts returns index-derived facts (shared, read-only), or nil to have
	// them derived from Node.
	Facts() (*RecordFacts, error)
	// PathSet evaluates steps, relative to the record's children, without
	// materializing the whole record (index-assisted); life is the record's
	// lifespan. ok=false falls back to Node + EvalPath.
	PathSet(steps []core.SelectorStep, life *intervals.Set) (s *intervals.Set, ok bool, err error)
}

// NodeSource is the Source of a record whose subtree is already in memory.
type NodeSource anode.Node

func (n *NodeSource) Node() (*anode.Node, error)   { return (*anode.Node)(n), nil }
func (n *NodeSource) Facts() (*RecordFacts, error) { return nil, nil }
func (n *NodeSource) PathSet([]core.SelectorStep, *intervals.Set) (*intervals.Set, bool, error) {
	return nil, false, nil
}

// Record is one evaluable archive record: a level-2 entry of a keyed root, or
// a raw (frontier-at-depth-1) root itself.
type Record struct {
	RootName  string
	RootKey   *anode.KeyValue
	RootLabel string // display label of the root, e.g. `gene{name=BRCA2}`
	Name      string // record element name; empty for raw roots
	Key       *anode.KeyValue
	Label     string // display label of the record element
	Raw       bool   // record is the root itself (no level-2 step)
	Life      *intervals.Set
	Versions  int // total archive versions (range default upper bound)
	Src       Source
}

// Path returns the record's display path.
func (r *Record) Path() string {
	if r.Raw {
		return "/" + r.RootLabel
	}
	return "/" + r.RootLabel + "/" + r.Label
}

func (r *Record) facts() (*RecordFacts, error) {
	if f, err := r.Src.Facts(); f != nil || err != nil {
		return f, err
	}
	n, err := r.Src.Node()
	if err != nil {
		return nil, err
	}
	return FactsOf(n), nil
}

// span resolves a query span's open ends: version 1, the archive's last.
func (r *Record) span(sp Span) (lo, hi int) {
	lo, hi = 1, r.Versions
	if sp.HasLo {
		lo = sp.Lo
	}
	if sp.HasHi {
		hi = sp.Hi
	}
	return lo, hi
}

func (r *Record) spanSet(sp Span) *intervals.Set {
	lo, hi := r.span(sp)
	if hi < lo {
		return intervals.New()
	}
	return intervals.FromRange(lo, hi)
}

// evalPathPred evaluates a path predicate against the record. steps[0] must
// match the root; for non-raw records steps[1] must match the record element;
// remaining steps walk the materialized subtree.
func (r *Record) evalPathPred(p *PathPred) (*intervals.Set, error) {
	steps := p.Steps
	if len(steps) == 0 || !steps[0].Matches(r.RootName, r.RootKey) {
		return intervals.New(), nil
	}
	steps = steps[1:]
	if !r.Raw {
		if len(steps) == 0 {
			return r.Life.Clone(), nil
		}
		if !steps[0].Matches(r.Name, r.Key) {
			return intervals.New(), nil
		}
		steps = steps[1:]
	}
	if len(steps) == 0 {
		return r.Life.Clone(), nil
	}
	if s, ok, err := r.Src.PathSet(steps, r.Life); err != nil {
		return nil, err
	} else if ok {
		return s.Intersect(r.Life), nil
	}
	n, err := r.Src.Node()
	if err != nil {
		return nil, err
	}
	return EvalPath(n, r.Life, steps).Intersect(r.Life), nil
}

func (r *Record) leaf(p Pred) (*intervals.Set, error) {
	switch p := p.(type) {
	case *PathPred:
		return r.evalPathPred(p)
	case *AttrPred:
		f, err := r.facts()
		if err != nil {
			return nil, err
		}
		return EvalAttr(f, p, r.Life), nil
	case *RangePred:
		return r.spanSet(p.Span).Intersect(r.Life), nil
	case *AtPred:
		return intervals.New(p.V).Intersect(r.Life), nil
	case *ChangedPred:
		f, err := r.facts()
		if err != nil {
			return nil, err
		}
		lo, hi := 0, math.MaxInt
		if p.HasRange {
			lo, hi = r.span(p.Span)
		}
		return ChangeSet(f, r.Life, lo, hi), nil
	}
	return intervals.New(), nil
}

// EvalRecord evaluates e against one record, returning the set of versions
// at which the record matches (possibly empty).
func EvalRecord(e Expr, r *Record) (*intervals.Set, error) {
	switch e := e.(type) {
	case *And:
		l, err := EvalRecord(e.L, r)
		if err != nil {
			return nil, err
		}
		if l.Empty() {
			return l, nil
		}
		rr, err := EvalRecord(e.R, r)
		if err != nil {
			return nil, err
		}
		return l.Intersect(rr), nil
	case *Or:
		l, err := EvalRecord(e.L, r)
		if err != nil {
			return nil, err
		}
		rr, err := EvalRecord(e.R, r)
		if err != nil {
			return nil, err
		}
		return l.Union(rr), nil
	case *Not:
		x, err := EvalRecord(e.X, r)
		if err != nil {
			return nil, err
		}
		return r.Life.Minus(x), nil
	case Pred:
		return r.leaf(e)
	}
	return intervals.New(), nil
}

// EvalAll evaluates e against every record and collects the non-empty
// matches, sorted by display path. Both engines funnel their Select through
// this, so result shape and ordering are defined once.
func EvalAll(e Expr, recs []Record) ([]Result, error) {
	var out []Result
	for i := range recs {
		r := &recs[i]
		s, err := EvalRecord(e, r)
		if err != nil {
			return nil, err
		}
		if s.Empty() {
			continue
		}
		out = append(out, Result{Path: r.Path(), Versions: s.String()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// RequiredAttrs returns attribute predicates that every matching record must
// satisfy with a non-empty set (the conjunctive spine of e). Used by planners
// to narrow candidates through an inverted index; the result is only ever a
// superset filter — evaluation stays exact.
func RequiredAttrs(e Expr) []*AttrPred {
	switch e := e.(type) {
	case *And:
		return append(RequiredAttrs(e.L), RequiredAttrs(e.R)...)
	case *AttrPred:
		return []*AttrPred{e}
	}
	return nil
}

// RequiredPaths is RequiredAttrs for path predicates: a record whose root or
// own element fails a step of one of them evaluates that conjunct, and so e,
// to the empty set. Paths under OR or NOT are not on the spine.
func RequiredPaths(e Expr) []*PathPred {
	switch e := e.(type) {
	case *And:
		return append(RequiredPaths(e.L), RequiredPaths(e.R)...)
	case *PathPred:
		return []*PathPred{e}
	}
	return nil
}
