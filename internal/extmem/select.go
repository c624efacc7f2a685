package extmem

import (
	"xarch/internal/anode"
	"xarch/internal/intervals"
	"xarch/internal/keys"
	"xarch/internal/qlang"
	"xarch/internal/xmltree"
)

// Select evaluates a boolean query expression against the view's records
// (level-2 entries and raw roots), returning the non-empty matches sorted
// by path. When the view carries a fresh attribute index the planner
// narrows the record set through the inverted attribute map and answers
// attribute/changed predicates — and shallow path predicates — from the
// sidecar alone; deeper path predicates seek the matched child subtree
// through the per-entry mini-index. Without a sidecar every record is
// scanned and materialized exactly; the two paths answer identically.
func (q *QueryView) Select(e qlang.Expr) ([]qlang.Result, error) {
	recs, err := q.selectRecords(e)
	if err != nil {
		return nil, err
	}
	return qlang.EvalAll(e, recs)
}

func tkeyInfo(k *tkey) *qlang.KeyInfo {
	if k == nil {
		return nil
	}
	paths, disp := keyDisplay(k)
	return &qlang.KeyInfo{Paths: paths, Disp: disp}
}

// selectRecords enumerates the view's records in directory order,
// skipping — when an index is available — records that cannot satisfy the
// expression's required attribute predicates. The enumeration order must
// match attrIndex.buildInv exactly: raw roots one ordinal, non-raw roots
// one ordinal per segment entry.
func (q *QueryView) selectRecords(e qlang.Expr) ([]*qlang.Record, error) {
	var cand map[int]bool
	if q.aidx != nil {
		if preds := qlang.RequiredAttrs(e); len(preds) > 0 {
			cand = map[int]bool{}
			for _, o := range q.aidx.candidates(q.d, preds) {
				cand[o] = true
			}
		}
	}
	var recs []*qlang.Record
	ord := 0
	for _, r := range q.d.roots {
		rootEff, err := q.rootEff(r)
		if err != nil {
			return nil, err
		}
		if r.raw {
			o := ord
			ord++
			if cand != nil && !cand[o] {
				continue
			}
			r := r
			rec := &qlang.Record{
				RootName:  r.name,
				RootKey:   tkeyInfo(r.key),
				RootLabel: keyLabel(r.name, r.key),
				Raw:       true,
				Life:      rootEff,
				Versions:  q.versions,
				Node:      func() (*anode.Node, error) { return q.rawNode(r) },
			}
			if q.aidx != nil {
				if ri := q.aidx.raws[keyLabel(r.name, r.key)]; ri != nil {
					ent := ri.e
					rec.Facts = func() (*qlang.RecordFacts, error) { return idxToFacts(ent) }
				}
			}
			recs = append(recs, rec)
			continue
		}
		rootLabel := keyLabel(r.name, r.key)
		rootKey := tkeyInfo(r.key)
		for _, s := range r.segs {
			var fi *fileIdx
			if q.aidx != nil {
				fi = q.aidx.files[s.file]
			}
			for i := range s.entries {
				o := ord
				ord++
				if cand != nil && !cand[o] {
					continue
				}
				en := &s.entries[i]
				eff, err := entryEff(en, rootEff)
				if err != nil {
					return nil, err
				}
				r, s, en := r, s, en
				rec := &qlang.Record{
					RootName:  r.name,
					RootKey:   rootKey,
					RootLabel: rootLabel,
					Name:      en.name,
					Key:       tkeyInfo(en.key),
					Label:     keyLabel(en.name, en.key),
					Life:      eff,
					Versions:  q.versions,
					Node:      func() (*anode.Node, error) { return q.entryNode(r, s, en) },
				}
				if fi != nil && i < len(fi.entries) {
					ent := fi.entries[i]
					rec.Facts = func() (*qlang.RecordFacts, error) { return idxToFacts(ent) }
					if ent.hasKids {
						rec.PathSet = func(p *qlang.PathPred) (*intervals.Set, bool, error) {
							return q.kidPathSet(r, s, en, ent, eff, p)
						}
					}
				}
				recs = append(recs, rec)
			}
		}
	}
	return recs, nil
}

// kidPathSet evaluates a path predicate (steps relative to the record's
// children) through the entry's kid mini-index: one-step predicates are
// answered from kid metadata alone; deeper ones seek each matching kid's
// subtree through the segment directory and walk only those bytes.
func (q *QueryView) kidPathSet(r *rootRecord, s *segmentRecord, en *childEntry, ent *idxEntry, eff *intervals.Set, p *qlang.PathPred) (*intervals.Set, bool, error) {
	step := &p.Steps[0]
	acc := intervals.New()
	for ki := range ent.kids {
		k := &ent.kids[ki]
		if k.name != step.Tag || !entryMatches(step, k.key) {
			continue
		}
		keff := eff
		if k.timeStr != "" {
			ts, err := intervals.Parse(k.timeStr)
			if err != nil {
				return nil, false, corruptf("attr index timestamp %q", k.timeStr)
			}
			keff = ts
		}
		if len(p.Steps) == 1 {
			acc = acc.Union(keff)
			continue
		}
		tr := q.stream([]streamPart{{seg: s, off: en.offset + k.off, n: k.size}})
		t, ok := tr.take()
		if !ok || t.op != tokOpen {
			tr.release()
			return nil, false, corruptf("kid %s has no open token", k.name)
		}
		node, err := q.subtreeANode(tr, k.name, t.key, q.spec.Cursor().Child(r.name).Child(en.name).Child(k.name))
		tr.release()
		if err != nil {
			return nil, false, err
		}
		acc = acc.Union(qlang.EvalPath(node, keff, p.Steps[1:]))
	}
	return acc, true, nil
}

// rawNode materializes a raw root's annotated subtree.
func (q *QueryView) rawNode(r *rootRecord) (*anode.Node, error) {
	tr := q.stream(rootParts(r))
	defer tr.release()
	if t, ok := tr.take(); !ok || t.op != tokOpen {
		return nil, corruptf("raw root %s has no open token", r.name)
	}
	body, err := readFrontierBody(tr)
	if err != nil {
		return nil, err
	}
	return q.bodyToANode(r.name, body)
}

// entryNode materializes one level-2 entry's annotated subtree — the
// record-sized unit Select evaluates path, attribute and changed
// predicates over when no index applies.
func (q *QueryView) entryNode(r *rootRecord, s *segmentRecord, en *childEntry) (*anode.Node, error) {
	tr := q.stream(entryParts(s, en))
	defer tr.release()
	t, ok := tr.take()
	if !ok || t.op != tokOpen {
		return nil, corruptf("entry %s has no open token", en.name)
	}
	return q.subtreeANode(tr, en.name, t.key, q.spec.Cursor().Child(r.name).Child(en.name))
}

// subtreeANode materializes the subtree whose open token was just
// consumed, at position cur of the key spec, so frontier subtrees take the
// group-preserving body reader. Explicit child timestamps and key
// annotations are carried onto the nodes, so qlang's path walk matches
// exactly like the in-memory engine's.
func (q *QueryView) subtreeANode(tr *tokenReader, name string, key *tkey, cur keys.Cursor) (*anode.Node, error) {
	if cur.Frontier() {
		body, err := readFrontierBody(tr)
		if err != nil {
			return nil, err
		}
		n, err := q.bodyToANode(name, body)
		if err != nil {
			return nil, err
		}
		n.Key = tkeyValue(key)
		return n, nil
	}
	n := &anode.Node{Kind: xmltree.Element, Name: name, Key: tkeyValue(key)}
	for _, at := range drainAttrs(tr) {
		an, err := q.name(at.tag)
		if err != nil {
			return nil, err
		}
		n.Attrs = append(n.Attrs, &anode.Node{Kind: xmltree.Attr, Name: an, Data: at.data})
	}
	for {
		t, ok := tr.peek()
		if !ok {
			if tr.err != nil {
				return nil, tr.err
			}
			return nil, corruptf("missing close below %s", name)
		}
		if t.op == tokClose {
			tr.take()
			return n, nil
		}
		if t.op != tokOpen {
			return nil, corruptf("unexpected token %#x below %s", t.op, name)
		}
		tr.take()
		cn, err := q.name(t.tag)
		if err != nil {
			return nil, err
		}
		child, err := q.subtreeANode(tr, cn, t.key, cur.Child(cn))
		if err != nil {
			return nil, err
		}
		if t.data != "" {
			ts, terr := tokenEff(t)
			if terr != nil {
				return nil, corruptf("bad timestamp %q", t.data)
			}
			child.Time = ts
		}
		n.Children = append(n.Children, child)
	}
}

func tkeyValue(k *tkey) *anode.KeyValue {
	if k == nil {
		return nil
	}
	paths, disp := keyDisplay(k)
	return &anode.KeyValue{Paths: paths, Canon: append([]string(nil), k.canon...), Disp: disp}
}
