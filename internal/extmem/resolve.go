package extmem

import (
	"xarch/internal/anode"
	"xarch/internal/core"
	"xarch/internal/intervals"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// ---------------------------------------------------------------------------
// History queries (§7.2, streaming)

// resolved carries the outcome of a selector resolution. err holds
// selector-semantic failures (no match, deeper ambiguity) that are only
// reported once the enclosing level has been scanned to the end — a later
// sibling match turns them into an ambiguity error at this level, exactly
// like the in-memory resolver that checks all siblings before descending.
type resolved struct {
	eff  *intervals.Set
	node *anode.Node // only populated when the caller asked for the body
	err  error
}

// History returns the versions in which the selected element exists,
// resolving the selector through the key directory.
func (q *QueryView) History(selector string) (*intervals.Set, error) {
	steps, err := core.ParseSelector(selector)
	if err != nil {
		return nil, err
	}
	r, err := q.resolveSelector(steps, false)
	if err != nil {
		return nil, err
	}
	return r.eff.Clone(), nil
}

// ContentHistory returns, for a frontier element, the versions at which
// its content changed.
func (q *QueryView) ContentHistory(selector string) ([]int, error) {
	steps, err := core.ParseSelector(selector)
	if err != nil {
		return nil, err
	}
	r, err := q.resolveSelector(steps, true)
	if err != nil {
		return nil, err
	}
	return core.ContentChangeVersions(r.node, r.eff), nil
}

// resolveSelector resolves the top two selector steps against the lists
// of the in-memory key directory — no I/O at all — and descends into at
// most one matched subtree by seeking straight to its bytes. A list lookup
// finds every match of its step before anything descends, as the in-memory
// resolver (core.ResolveFrom) does; resolveLevel's streaming scan below
// the kid index cannot, and defers its outcome in resolved.err.
func (q *QueryView) resolveSelector(steps []core.SelectorStep, wantBody bool) (*resolved, error) {
	path := "/" + steps[0].Tag
	pos, _, err := q.d.rootList().Find(&steps[0], path)
	if err != nil {
		return nil, err
	}
	r := q.d.roots[pos]
	res, err := q.resolveRoot(r, q.rootEff(r), steps, path, wantBody)
	if err != nil {
		return nil, err
	}
	if res.err != nil {
		return nil, res.err
	}
	return res, nil
}

// resolveRoot resolves the remaining steps inside a matched root record.
func (q *QueryView) resolveRoot(r *rootRecord, eff *intervals.Set, steps []core.SelectorStep, stepPath string, wantBody bool) (*resolved, error) {
	last := len(steps) == 1
	if r.raw {
		// Frontier root: its body must be read from the segment bytes.
		if last && !wantBody {
			return &resolved{eff: eff}, nil
		}
		tr, key, err := q.openSubtree(rootParts(r), r.name)
		if err != nil {
			return nil, err
		}
		defer tr.release()
		return q.resolveInto(tr, r.name, key, eff, steps, stepPath, q.spec.Cursor().Child(r.name), wantBody)
	}
	if last {
		return &resolved{eff: eff, node: &anode.Node{Kind: xmltree.Element, Name: r.name}}, nil
	}
	// Level 2: look the step up in the list over the root's entries, which
	// binary-searches them across the root's segments.
	step := &steps[1]
	childPath := stepPath + "/" + step.Tag
	pos, _, err := r.index().Find(step, childPath)
	if err != nil {
		return nil, err
	}
	m := r.at(pos)
	return q.resolveEntry(r, m, entryEff(m.e(), eff), steps[1:], childPath, wantBody)
}

// resolveEntry resolves the remaining steps inside one matched child
// entry, reading the child's bytes only when the answer needs them:
// History on a selective two-step selector is answered from the
// directory alone.
func (q *QueryView) resolveEntry(r *rootRecord, m segEntry, eff *intervals.Set, steps []core.SelectorStep, stepPath string, wantBody bool) (*resolved, error) {
	e := m.e()
	last := len(steps) == 1
	if last && !wantBody {
		return &resolved{eff: eff}, nil
	}
	cur := q.spec.Cursor().Child(r.name).Child(e.name)
	if !cur.Frontier() {
		if last {
			// Above-frontier nodes have no content groups; ContentHistory
			// reports their first version.
			return &resolved{eff: eff, node: &anode.Node{Kind: xmltree.Element, Name: e.name}}, nil
		}
		// With its segment's postings the entry's direct children carry
		// byte spans: resolve the next step against that mini-index and seek
		// straight to the one matched child subtree, instead of streaming
		// every sibling of the entry.
		if res, ok, err := q.resolveViaKids(r, m, eff, steps, stepPath, wantBody); ok || err != nil {
			return res, err
		}
	}
	tr, key, err := q.openSubtree(entryParts(m.seg, e), e.name)
	if err != nil {
		return nil, err
	}
	defer tr.release()
	return q.resolveInto(tr, e.name, key, eff, steps, stepPath, cur, wantBody)
}

// resolveViaKids resolves steps[1] against the kid mini-index of the
// entry's posting — by the same list lookup as a level-2 step —
// seeking to the single matched child subtree, or, when the kid is the last
// step and no body is wanted, answering from its recorded lifespan without
// opening the segment. ok=false means no usable index (NoAttrIndex, or a
// frontier entry's posting, which records no kids) and the caller falls
// back to streaming the entry.
func (q *QueryView) resolveViaKids(r *rootRecord, m segEntry, eff *intervals.Set, steps []core.SelectorStep, stepPath string, wantBody bool) (*resolved, bool, error) {
	ent, err := q.posting(m.seg, m.i)
	if ent == nil || !ent.hasKids {
		return nil, false, err
	}
	step := &steps[1]
	kidPath := stepPath + "/" + step.Tag
	pos, _, err := ent.kidIndex().Find(step, kidPath)
	if err != nil {
		return nil, true, err
	}
	first := &ent.kids[pos]
	keff := eff
	if first.time != nil {
		keff = first.time
	}
	if len(steps) == 2 && !wantBody {
		// The kid is the last step: its recorded lifespan is the answer.
		return &resolved{eff: keff}, true, nil
	}
	tr, key, err := q.openSubtree([]streamPart{{seg: m.seg, off: m.e().offset + first.off, n: first.size}}, first.name)
	if err != nil {
		return nil, false, err
	}
	defer tr.release()
	res, err := q.resolveInto(tr, first.name, key, keff, steps[1:], kidPath, q.spec.Cursor().Child(r.name).Child(m.e().name).Child(first.name), wantBody)
	return res, true, err
}

// resolveLevel scans the sibling sequence at the cursor (stopping at the
// balancing close, which it does not consume) for elements matching the
// first step. The first match is resolved immediately — the stream cannot
// be revisited — and a second match turns the outcome into an ambiguity
// error. Every selector-semantic outcome, including ambiguity, travels as
// a soft resolved.err: the in-memory resolver checks each level's
// siblings before descending, so an ambiguity at an enclosing level must
// override whatever resolving inside the first match produced, and only
// the outermost still-ambiguous level is reported.
func (q *QueryView) resolveLevel(tr *tokenReader, steps []core.SelectorStep, parentEff *intervals.Set, path string, up keys.Cursor, wantBody bool) (*resolved, error) {
	step := &steps[0]
	stepPath := path + "/" + step.Tag
	var res *resolved
	var foundLabel string
	ambiguous := false
	for {
		t, ok := tr.peek()
		if !ok || t.op == tokClose {
			break
		}
		if t.op != tokOpen {
			return nil, corruptf("unexpected token %#x at keyed level", t.op)
		}
		tr.take()
		name, err := q.name(t.tag)
		if err != nil {
			return nil, err
		}
		// The name first: deriving a key's display values allocates.
		if ambiguous || name != step.Tag || !step.Matches(name, keyValue(t.key)) {
			if err := tr.discardSubtree(); err != nil {
				return nil, err
			}
			continue
		}
		label := keyLabel(name, t.key)
		if res != nil {
			res = &resolved{err: core.AmbiguousSelectorError(stepPath, foundLabel, label)}
			ambiguous = true
			if err := tr.discardSubtree(); err != nil {
				return nil, err
			}
			continue
		}
		foundLabel = label
		eff := parentEff
		if ts, err := tokenEff(t); err != nil {
			return nil, err
		} else if ts != nil {
			eff = ts
		}
		res, err = q.resolveInto(tr, name, t.key, eff, steps, stepPath, up.Child(name), wantBody)
		if err != nil {
			return nil, err
		}
	}
	if tr.err != nil {
		return nil, tr.err
	}
	if res == nil {
		return &resolved{err: core.NoSuchElementError(stepPath)}, nil
	}
	return res, nil
}

// resolveInto resolves the remaining steps inside the (already-opened)
// matched node, whose key is key, and consumes the node's whole subtree.
func (q *QueryView) resolveInto(tr *tokenReader, name string, key *tkey, eff *intervals.Set, steps []core.SelectorStep, stepPath string, cur keys.Cursor, wantBody bool) (*resolved, error) {
	last := len(steps) == 1
	if cur.Frontier() {
		if last && !wantBody {
			if err := tr.discardSubtree(); err != nil {
				return nil, err
			}
			return &resolved{eff: eff}, nil
		}
		node, err := q.subtreeANode(tr, name, key, cur)
		if err != nil {
			return nil, err
		}
		if last {
			return &resolved{eff: eff, node: node}, nil
		}
		// Selector tails that descend below the frontier resolve over the
		// materialized (record-sized) body with the shared core resolver.
		n, eff2, serr := core.ResolveFrom(node, eff, steps[1:], stepPath)
		if serr != nil {
			return &resolved{err: serr}, nil
		}
		return &resolved{eff: eff2, node: n}, nil
	}
	if last {
		if err := tr.discardSubtree(); err != nil {
			return nil, err
		}
		// Above-frontier nodes have no content groups; ContentHistory
		// reports their first version.
		return &resolved{eff: eff, node: &anode.Node{Kind: xmltree.Element, Name: name}}, nil
	}
	drainAttrs(tr)
	sub, err := q.resolveLevel(tr, steps[1:], eff, stepPath, cur, wantBody)
	if err != nil {
		return nil, err
	}
	if t, ok := tr.take(); !ok || t.op != tokClose {
		return nil, corruptf("missing close at %s", stepPath)
	}
	return sub, nil
}
