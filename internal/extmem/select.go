package extmem

import (
	"slices"

	"xarch/internal/anode"
	"xarch/internal/core"
	"xarch/internal/intervals"
	"xarch/internal/keys"
	"xarch/internal/qlang"
	"xarch/internal/xmltree"
)

// Select evaluates a boolean query expression against the view's records
// (level-2 entries and raw roots), returning the non-empty matches sorted
// by path. The plan narrows before any record is built (selectRecords), then
// evaluates the survivors exactly: attribute, changed and shallow path
// predicates from the postings' facts alone, deeper path predicates by
// seeking the matched child subtree through the per-entry mini-index.
// With NoAttrIndex every record the path spine leaves is read and
// materialized; the two answer identically.
func (q *QueryView) Select(e qlang.Expr) ([]qlang.Result, error) {
	recs, err := q.selectRecords(e)
	if err != nil {
		return nil, err
	}
	return qlang.EvalAll(e, recs)
}

// recordSource is the qlang.Source of one record: where its subtree and its
// posting are. s is nil for a raw root, ent with NoAttrIndex.
type recordSource struct {
	q   *QueryView
	r   *rootRecord
	s   *segmentRecord
	i   int // entry index within s
	ent *idxEntry
}

func (src *recordSource) Node() (*anode.Node, error) {
	var e *childEntry
	if src.s != nil {
		e = &src.s.entries[src.i]
	}
	return src.q.recordNode(src.r, src.s, e)
}

func (src *recordSource) Facts() (*qlang.RecordFacts, error) {
	if src.ent == nil {
		return nil, nil
	}
	return &src.ent.facts, nil
}

// posting returns the posting of entry i of s, nil with NoAttrIndex.
func (q *QueryView) posting(s *segmentRecord, i int) (*idxEntry, error) {
	if q.ar.cfg.NoAttrIndex {
		return nil, nil
	}
	posts, err := q.ar.postings(s)
	if err != nil {
		return nil, err
	}
	return posts[i], nil
}

// selectRecords enumerates the view's records in directory order, skipping
// those the expression's conjunctive spine rules out: unless NoAttrIndex,
// records lacking a required attribute; always, records whose root fails
// step 0, or whose own element fails step 1, of a required path of two or
// more steps. The root's list finds the entries the first such path's step
// 1 selects — by binary search where the step is fully keyed — and each is
// compared against the others. Both are superset filters and evaluation
// stays exact. Ordinals must match buildInv: a raw root is one, any other
// root one per segment entry (base + flat position).
func (q *QueryView) selectRecords(e qlang.Expr) ([]qlang.Record, error) {
	var cand []int // sorted ordinals; nil: every record is a candidate
	if !q.ar.cfg.NoAttrIndex {
		if preds := qlang.RequiredAttrs(e); len(preds) > 0 {
			var err error
			if cand, err = q.candidates(preds); err != nil {
				return nil, err
			}
		}
	}
	var spine []*qlang.PathPred
	for _, p := range qlang.RequiredPaths(e) {
		if len(p.Steps) >= 2 {
			spine = append(spine, p)
		}
	}
	hint := len(cand) // with neither filter, every record: one slab each
	if cand == nil && spine == nil {
		hint = q.d.entryCount() + len(q.d.roots)
	}
	recs, srcs := make([]qlang.Record, 0, hint), make([]recordSource, 0, hint)
	// add appends the record at ordinal ord (entry i of s, or the raw root r
	// itself when s is nil) unless the plan rules it out. Ordinals arrive
	// ascending, so cand is consumed from its head.
	var err error
	add := func(r *rootRecord, rootEff *intervals.Set, s *segmentRecord, i, ord int) {
		if cand != nil {
			for len(cand) > 0 && cand[0] < ord {
				cand = cand[1:]
			}
			if len(cand) == 0 || cand[0] != ord {
				return
			}
		}
		var perr error
		rid := r.ident()
		rec := qlang.Record{RootName: r.name, RootKey: rid.Key, RootLabel: rid.Label, Raw: s == nil, Life: rootEff, Versions: q.d.versions}
		src := recordSource{q: q, r: r, s: s, i: i}
		if s != nil {
			id := &s.idents()[i]
			for _, p := range spine {
				if !p.Steps[1].Matches(id.Name, id.Key) {
					return
				}
			}
			rec.Name, rec.Key, rec.Label, rec.Life = id.Name, id.Key, id.Label, entryEff(&s.entries[i], rootEff)
			src.ent, perr = q.posting(s, i)
		} else if !q.ar.cfg.NoAttrIndex {
			src.ent, perr = q.ar.rootPosting(r)
		}
		if perr != nil && err == nil {
			err = perr
		}
		recs, srcs = append(recs, rec), append(srcs, src)
	}
	ord := 0
nextRoot:
	for _, r := range q.d.roots {
		base := ord
		if r.raw {
			ord++
		} else {
			ord += r.entryCount()
		}
		for _, p := range spine {
			if rid := r.ident(); !p.Steps[0].Matches(rid.Name, rid.Key) {
				continue nextRoot
			}
		}
		rootEff := q.rootEff(r)
		if r.raw {
			add(r, rootEff, nil, 0, base)
			continue
		}
		if len(spine) > 0 {
			for flat := range r.index().Matches(&spine[0].Steps[1]) {
				m := r.at(flat)
				add(r, rootEff, m.seg, m.i, base+int(flat))
			}
			continue
		}
		for _, s := range r.segs {
			for i := range s.entries {
				add(r, rootEff, s, i, base)
				base++
			}
		}
	}
	if err != nil {
		return nil, err
	}
	for i := range recs {
		recs[i].Src = &srcs[i]
	}
	return recs, nil
}

// PathSet evaluates a path predicate (steps relative to the record's
// children) through the entry's kid mini-index, whose list finds the
// matching kids: one-step predicates are answered from kid metadata alone;
// deeper ones seek each matching kid's subtree through the segment
// directory and walk only those bytes.
func (src *recordSource) PathSet(steps []core.SelectorStep, eff *intervals.Set) (*intervals.Set, bool, error) {
	ent := src.ent
	if ent == nil || !ent.hasKids {
		return nil, false, nil
	}
	q := src.q
	en := &src.s.entries[src.i]
	acc := intervals.New()
	for ki := range ent.kidIndex().Matches(&steps[0]) {
		k := &ent.kids[ki]
		keff := eff
		if k.time != nil {
			keff = k.time
		}
		if len(steps) == 1 {
			acc = acc.Union(keff)
			continue
		}
		tr, key, err := q.openSubtree([]streamPart{{seg: src.s, off: en.offset + k.off, n: k.size}}, k.name)
		if err != nil {
			return nil, false, err
		}
		node, err := q.subtreeANode(tr, k.name, key, q.spec.Cursor().Child(src.r.name).Child(en.name).Child(k.name))
		tr.release()
		if err != nil {
			return nil, false, err
		}
		acc = acc.Union(qlang.EvalPath(node, keff, steps[1:]))
	}
	return acc, true, nil
}

// recordNode materializes one record's annotated subtree: entry e of s, or
// the raw root r itself when s is nil — the record-sized unit Select
// evaluates a predicate over when no index answers it.
func (q *QueryView) recordNode(r *rootRecord, s *segmentRecord, e *childEntry) (*anode.Node, error) {
	parts, name, cur := rootParts(r), r.name, q.spec.Cursor().Child(r.name)
	if s != nil {
		parts, name, cur = entryParts(s, e), e.name, cur.Child(e.name)
	}
	tr, key, err := q.openSubtree(parts, name)
	if err != nil {
		return nil, err
	}
	defer tr.release()
	return q.subtreeANode(tr, name, key, cur)
}

// openSubtree opens a stream over parts, which hold one subtree named name,
// and consumes its open token, returning the token's key. A failed read is
// reported as itself, not as corruption.
func (q *QueryView) openSubtree(parts []streamPart, name string) (*tokenReader, *tkey, error) {
	tr := q.ar.readParts(parts)
	t, err := tr.mustTake(name)
	if err == nil && t.op != tokOpen {
		err = corruptf("%s has no open token", name)
	}
	if err != nil {
		tr.release()
		return nil, nil, err
	}
	return tr, t.key, nil
}

// subtreeANode materializes the subtree whose open token was just
// consumed, at position cur of the key spec, so frontier subtrees keep
// their content groups (frontierANode). Explicit child timestamps and key
// annotations are carried onto the nodes, so qlang's path walk matches
// exactly like the in-memory engine's. It is the one way a stored subtree
// becomes an anode.Node.
func (q *QueryView) subtreeANode(tr *tokenReader, name string, key *tkey, cur keys.Cursor) (*anode.Node, error) {
	if cur.Frontier() {
		return q.frontierANode(tr, name, key)
	}
	n := &anode.Node{Kind: xmltree.Element, Name: name, Key: keyValue(key)}
	for {
		t, err := tr.mustTake(name)
		if err != nil {
			return nil, err
		}
		if t.op == tokClose {
			return n, nil
		}
		if t.op != tokOpen && t.op != tokAttr {
			return nil, corruptf("unexpected token %#x below %s", t.op, name)
		}
		tn, err := q.name(t.tag)
		if err != nil {
			return nil, err
		}
		if t.op == tokAttr { // the reader has refused one that follows a child
			n.Attrs = append(n.Attrs, &anode.Node{Kind: xmltree.Attr, Name: tn, Data: t.data})
			continue
		}
		child, err := q.subtreeANode(tr, tn, t.key, cur.Child(tn))
		if err != nil {
			return nil, err
		}
		if child.Time, err = tokenEff(t); err != nil {
			return nil, err
		}
		n.Children = append(n.Children, child)
	}
}

// frontierANode reads the frontier record whose open token was just
// consumed straight into a node, as the in-memory loader builds it: its
// content, or its timestamped groups with the content outside every group
// as an untimed group first. Groups nest in nothing, hold no group and
// close before the record does; anything else is corruption.
func (q *QueryView) frontierANode(tr *tokenReader, name string, key *tkey) (*anode.Node, error) {
	n := &anode.Node{Kind: xmltree.Element, Name: name, Key: keyValue(key), Frontier: true}
	var shared []*anode.Node
	var group *anode.Group
	var stack []*anode.Node // the open elements below the record
	for {
		t, err := tr.mustTake("frontier content")
		if err != nil {
			return nil, err
		}
		var item *anode.Node
		switch t.op {
		case tokTSOpen:
			if len(stack) > 0 || group != nil {
				return nil, corruptf("nested timestamp group")
			}
			ts, err := tokenEff(t)
			if err != nil {
				return nil, err
			}
			group = &anode.Group{Time: ts}
			n.Groups = append(n.Groups, group)
			continue
		case tokTSClose:
			if len(stack) > 0 || group == nil {
				return nil, corruptf("unbalanced timestamp group")
			}
			group = nil
			continue
		case tokClose:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
				continue
			}
			if group != nil {
				return nil, corruptf("unterminated timestamp group")
			}
			if n.Groups == nil {
				n.SetContentItems(shared)
			} else if len(shared) > 0 {
				n.Groups = slices.Insert(n.Groups, 0, &anode.Group{Content: shared}) // inherited time
			}
			return n, nil
		case tokOpen, tokAttr:
			tn, err := q.name(t.tag)
			if err != nil {
				return nil, err
			}
			item = &anode.Node{Kind: xmltree.Element, Name: tn}
			if t.op == tokAttr {
				item.Kind, item.Data = xmltree.Attr, t.data
			}
		case tokText:
			item = &anode.Node{Kind: xmltree.Text, Data: t.data}
		default:
			return nil, corruptf("unexpected token %#x in frontier content", t.op)
		}
		switch top := len(stack) - 1; {
		case top >= 0 && item.Kind == xmltree.Attr:
			stack[top].Attrs = append(stack[top].Attrs, item)
		case top >= 0:
			stack[top].Children = append(stack[top].Children, item)
		case group != nil:
			group.Content = append(group.Content, item)
		default:
			shared = append(shared, item)
		}
		if t.op == tokOpen {
			stack = append(stack, item)
		}
	}
}
