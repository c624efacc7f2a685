package extmem

import (
	"fmt"
	"slices"

	"xarch/internal/intervals"
	"xarch/internal/keys"
)

// streamMerger implements the single-pass merge of the sorted archive and
// sorted version (§6.3), applying the Nested Merge rules (§4.2) over token
// streams, one level at a time through mergeLevel.
type streamMerger struct {
	dict    *dictionary
	spec    *keys.Spec
	out     *captureWriter
	i       int            // the new version number
	only    *intervals.Set // {i}, the stamp of a node only the version has; shared, read-only
	onlyStr string         // only, as written
	// The two sides of the frontier node being merged: their tokens are
	// copied out before the next node is read, so one pair serves them all.
	aBody, dBody fbody
	// The path isFrontier was last asked about, and the answer: siblings
	// come one after the other and share it.
	lastPath     []string
	lastFrontier bool
}

// isFrontier is spec.IsFrontier(path), looked up once per run of siblings.
func (sm *streamMerger) isFrontier(path []string) bool {
	if sm.lastPath == nil || !slices.Equal(path, sm.lastPath) {
		sm.lastPath = append(sm.lastPath[:0], path...)
		sm.lastFrontier = sm.spec.IsFrontier(keys.Path(path))
	}
	return sm.lastFrontier
}

// mergeLevel merges the sibling sequences at the heads of a (archive; nil
// for none) and d (version), children of the node at path: every child
// takes one of the three §4.2 cases — in both, archive only, version only.
// Both sides stop at a close tag or the end of their stream; inRange (nil:
// every child) limits the version children this level takes. parentEff is
// the parent's effective timestamp, already including version i. With sw
// set, every child is a directory entry, which sw brackets. A reader that
// ends on a failed read reports that error, not a malformed merge.
func (sm *streamMerger) mergeLevel(a, d *tokenReader, parentEff *intervals.Set, path []string, sw *segmentSetWriter, inRange func(string, *tkey) bool) error {
	for {
		var at token
		aOK := false
		if a != nil {
			if at, aOK = a.peek(); !aOK && a.err != nil {
				return a.err
			}
			aOK = aOK && at.op == tokOpen
		}
		dt, dOK := d.peek()
		if !dOK && d.err != nil {
			return d.err
		}
		dOK = dOK && dt.op == tokOpen
		if dOK && inRange != nil {
			dn, err := sm.dict.name(dt.tag)
			if err != nil {
				return err
			}
			dOK = inRange(dn, dt.key)
		}
		var an string
		var cmp int
		var err error
		switch {
		case aOK && dOK:
			if an, err = sm.dict.name(at.tag); err != nil {
				return err
			}
			dn, err := sm.dict.name(dt.tag)
			if err != nil {
				return err
			}
			cmp = compareLabels(an, at.key, dn, dt.key)
		case aOK:
			cmp = -1
		case dOK:
			cmp = 1
		default:
			return nil
		}
		switch {
		case cmp == 0:
			err = sm.mergeEqual(a, d, parentEff, append(path, an), sw)
		case cmp < 0:
			// §4.2 step (b): an inherited timestamp becomes explicit at
			// parentEff − {i}.
			ts, eff := at.data, at.time
			if ts == "" {
				eff = parentEff.Without(sm.i)
				ts = eff.String()
			}
			err = sm.copyChild(a, ts, eff, sw)
		default:
			err = sm.copyChild(d, sm.onlyStr, sm.only, sw)
		}
		if err != nil {
			return err
		}
	}
}

// mergeEqual merges the same-label nodes at the heads of a (archive) and d
// (version), children of a node whose effective timestamp is parentEff;
// path ends with their name. With sw set, the node is a directory entry.
func (sm *streamMerger) mergeEqual(a, d *tokenReader, parentEff *intervals.Set, path []string, sw *segmentSetWriter) error {
	at, _ := a.take()
	d.take()
	eff, timeStr, err := mergedTimeTok(at, parentEff, sm.i)
	if err != nil {
		return err
	}
	if sw != nil {
		sw.beginChild(path[len(path)-1], at.key, timeStr, eff)
	}
	sm.out.open(at.tag, at.key, timeStr)

	if sm.isFrontier(path) {
		if err := sm.aBody.read(a); err != nil {
			return err
		}
		if err := sm.dBody.read(d); err != nil {
			return err
		}
		if len(sm.dBody.groups) != 0 {
			return fmt.Errorf("extmem: version stream contains timestamp groups")
		}
		sm.emitMergedFrontier(&sm.aBody, sm.dBody.shared, eff)
		sm.out.close()
		return endChild(sw)
	}

	// Above the frontier: attributes are key-covered; emit the archive's
	// and check the version agrees.
	aAttrs := drainAttrs(a)
	dAttrs := drainAttrs(d)
	if a.err != nil {
		return a.err
	}
	if d.err != nil {
		return d.err
	}
	if !attrTokensEqual(aAttrs, dAttrs) {
		return fmt.Errorf("extmem: attributes of %s differ between archive and version %d", pathString(path), sm.i)
	}
	for _, t := range aAttrs {
		sm.out.writeToken(t)
	}
	if err := sm.mergeLevel(a, d, eff, path, nil, nil); err != nil {
		return err
	}
	if t, ok := a.take(); !ok || t.op != tokClose {
		return missingClose(a, "archive", path)
	}
	if t, ok := d.take(); !ok || t.op != tokClose {
		return missingClose(d, "version", path)
	}
	sm.out.close()
	return endChild(sw)
}

// missingClose reports a node whose close r did not hold: the error that
// ended r, if a read failed.
func missingClose(r *tokenReader, side string, path []string) error {
	if r.err != nil {
		return r.err
	}
	return fmt.Errorf("extmem: %s stream missing close at %s", side, pathString(path))
}

// copyChild copies the subtree at r's head whole, its open token stamped
// timeStr (eff parsed), into the merge's output; with sw set it is a
// directory entry.
func (sm *streamMerger) copyChild(r *tokenReader, timeStr string, eff *intervals.Set, sw *segmentSetWriter) error {
	t, _ := r.take()
	if sw != nil {
		name, err := sm.dict.name(t.tag)
		if err != nil {
			return err
		}
		sw.beginChild(name, t.key, timeStr, eff)
	}
	sm.out.open(t.tag, t.key, timeStr)
	if err := copyBalancedTo(r, sm.out); err != nil {
		return err
	}
	return endChild(sw)
}

// endChild completes the directory entry sw (nil for none) brackets.
func endChild(sw *segmentSetWriter) error {
	if sw == nil {
		return nil
	}
	sw.endChild()
	return sw.err
}

// fgroup is one timestamped content group of a frontier node.
type fgroup struct {
	time   *intervals.Set
	tokens []token
}

// fbody is the materialized content of a frontier node as the merge
// compares it: either shared tokens, or timestamped groups.
type fbody struct {
	shared []token
	groups []fgroup
}

// read reads tokens into b, over what b held and in its room, until the
// close balancing the (consumed) frontier-node open. Frontier subtrees fit
// in memory (they are record-sized); only the stream above the frontier
// is unbounded.
func (b *fbody) read(r *tokenReader) error {
	b.shared = b.shared[:0]
	groups := b.groups[:cap(b.groups)] // each with the token room of a group read before
	b.groups = b.groups[:0]
	depth := 1
	var group *fgroup
	for {
		t, err := r.mustTake("frontier content")
		if err != nil {
			return err
		}
		switch t.op {
		case tokTSOpen:
			if depth != 1 || group != nil {
				return corruptf("nested timestamp group")
			}
			// Group times are mutated downstream (emitMergedFrontier adds
			// version i), so a dictionary-shared pre-parsed set must be
			// cloned, never used in place.
			var ts *intervals.Set
			if t.time != nil {
				ts = t.time.Clone()
			} else {
				var err error
				ts, err = intervals.Parse(t.data)
				if err != nil {
					return corruptf("bad group timestamp %q: %v", t.data, err)
				}
			}
			if n := len(b.groups); n < len(groups) {
				b.groups = append(b.groups, fgroup{time: ts, tokens: groups[n].tokens[:0]})
			} else {
				b.groups = append(b.groups, fgroup{time: ts})
			}
			group = &b.groups[len(b.groups)-1]
			continue
		case tokTSClose:
			if group == nil {
				return corruptf("unbalanced timestamp group")
			}
			group = nil
			continue
		case tokOpen:
			depth++
		case tokClose:
			depth--
			if depth == 0 {
				if group != nil {
					return corruptf("unterminated timestamp group")
				}
				return nil
			}
		}
		if group != nil {
			group.tokens = append(group.tokens, t)
		} else {
			b.shared = append(b.shared, t)
		}
	}
}

// emitMergedFrontier applies the plain frontier-merge rules (§4.2) to the
// materialized contents and writes the result. eff is the node's effective
// timestamp including i. Contents are compared token by token, exactly: a
// fingerprint (§4.3) would have to read both sides whole before a
// comparison that stops at the first difference gets to answer.
func (sm *streamMerger) emitMergedFrontier(aBody *fbody, dTokens []token, eff *intervals.Set) {
	if len(aBody.groups) == 0 {
		if tokensEqual(aBody.shared, dTokens) {
			for _, t := range aBody.shared {
				sm.out.writeToken(t)
			}
			return
		}
		sm.writeGroup(eff.Without(sm.i), aBody.shared)
		sm.writeGroup(intervals.New(sm.i), dTokens)
		return
	}
	matched := false
	for gi := range aBody.groups {
		g := &aBody.groups[gi]
		if !matched && tokensEqual(g.tokens, dTokens) {
			g.time.Add(sm.i)
			matched = true
		}
	}
	for _, g := range aBody.groups {
		sm.writeGroup(g.time, g.tokens)
	}
	if !matched {
		sm.writeGroup(intervals.New(sm.i), dTokens)
	}
}

func (sm *streamMerger) writeGroup(t *intervals.Set, tokens []token) {
	sm.out.tsOpen(t.String())
	for _, tok := range tokens {
		sm.out.writeToken(tok)
	}
	sm.out.tsClose()
}

// drainAttrs consumes and returns the attribute tokens at the cursor head.
func drainAttrs(r *tokenReader) []token {
	var out []token
	for {
		t, ok := r.peek()
		if !ok || t.op != tokAttr {
			return out
		}
		r.take()
		out = append(out, t)
	}
}

func attrTokensEqual(a, b []token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].tag != b[i].tag || a[i].data != b[i].data {
			return false
		}
	}
	return true
}

// tokensEqual reports whether two balanced token sequences denote the
// same canonical content: it compares exactly the fields the canonical
// form renders (both streams share one dictionary, so tag ids stand in
// for names).
func tokensEqual(a, b []token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ta, tb := a[i], b[i]
		if ta.op != tb.op {
			return false
		}
		switch ta.op {
		case tokOpen:
			if ta.tag != tb.tag {
				return false
			}
		case tokAttr:
			if ta.tag != tb.tag || ta.data != tb.data {
				return false
			}
		case tokText:
			if ta.data != tb.data {
				return false
			}
		}
	}
	return true
}
