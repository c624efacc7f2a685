package extmem

import (
	"fmt"
	"slices"
	"strings"

	"xarch/internal/intervals"
	"xarch/internal/keys"
)

// streamMerger implements the single-pass merge of the sorted archive and
// sorted version (§6.3), applying the Nested Merge rules (§4.2) over token
// streams.
type streamMerger struct {
	dict *dictionary
	spec *keys.Spec
	out  *captureWriter
	i    int // the new version number
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

// mergeLevel merges the sibling sequences at the heads of a (archive) and
// d (version); both stop at a close tag or end of stream. parentEff is the
// parent's effective timestamp, already including version i.
func (sm *streamMerger) mergeLevel(a, d *tokenReader, parentEff *intervals.Set, path []string) error {
	for {
		at, aOK := a.peek()
		if aOK && at.op != tokOpen {
			aOK = false
		}
		dt, dOK := d.peek()
		if dOK && dt.op != tokOpen {
			dOK = false
		}
		switch {
		case aOK && dOK:
			an, err := sm.dict.name(at.tag)
			if err != nil {
				return err
			}
			dn, err := sm.dict.name(dt.tag)
			if err != nil {
				return err
			}
			cmp := strings.Compare(an, dn)
			if cmp == 0 {
				cmp = compareKeys(at.key, dt.key)
			}
			switch {
			case cmp == 0:
				if err := sm.mergeEqual(a, d, parentEff, append(path, an)); err != nil {
					return err
				}
			case cmp < 0:
				if err := sm.copyArchiveChild(a, parentEff); err != nil {
					return err
				}
			default:
				if err := sm.copyVersionChild(d); err != nil {
					return err
				}
			}
		case aOK:
			if err := sm.copyArchiveChild(a, parentEff); err != nil {
				return err
			}
		case dOK:
			if err := sm.copyVersionChild(d); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// mergeEqual merges two same-label nodes.
func (sm *streamMerger) mergeEqual(a, d *tokenReader, parentEff *intervals.Set, path []string) error {
	at, _ := a.take()
	dt, _ := d.take()

	eff, timeStr, err := mergedTimeTok(at, parentEff, sm.i)
	if err != nil {
		return err
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
		_ = dt
		return nil
	}

	// Above the frontier: attributes are key-covered; emit the archive's
	// and check the version agrees.
	aAttrs := drainAttrs(a)
	dAttrs := drainAttrs(d)
	if !attrTokensEqual(aAttrs, dAttrs) {
		return fmt.Errorf("extmem: attributes of %s differ between archive and version %d", pathString(path), sm.i)
	}
	for _, t := range aAttrs {
		sm.out.writeToken(t)
	}
	if err := sm.mergeLevel(a, d, eff, path); err != nil {
		return err
	}
	if t, ok := a.take(); !ok || t.op != tokClose {
		return fmt.Errorf("extmem: archive stream missing close at %s", pathString(path))
	}
	if t, ok := d.take(); !ok || t.op != tokClose {
		return fmt.Errorf("extmem: version stream missing close at %s", pathString(path))
	}
	sm.out.close()
	return nil
}

// copyArchiveChild copies an archive-only subtree, terminating its
// timestamp: a node with an inherited timestamp becomes explicit at
// parentEff − {i} (§4.2 step (b)).
func (sm *streamMerger) copyArchiveChild(a *tokenReader, parentEff *intervals.Set) error {
	at, _ := a.take()
	timeStr := at.data
	if timeStr == "" {
		timeStr = parentEff.Without(sm.i).String()
	}
	sm.out.open(at.tag, at.key, timeStr)
	return sm.copyBalanced(a, true)
}

// copyVersionChild copies a version-only subtree with timestamp {i}.
func (sm *streamMerger) copyVersionChild(d *tokenReader) error {
	dt, _ := d.take()
	sm.out.open(dt.tag, dt.key, intervals.New(sm.i).String())
	return sm.copyBalanced(d, true)
}

// copyBalanced copies tokens verbatim until the close that balances the
// already-consumed open; the close is emitted when emitClose is set.
func (sm *streamMerger) copyBalanced(r *tokenReader, emitClose bool) error {
	return copyBalancedTo(r, sm.out, emitClose)
}

// fgroup is one timestamped content group of a frontier node.
type fgroup struct {
	time   *intervals.Set
	tokens []token
}

// fbody is the materialized content of a frontier node: either shared
// tokens, or timestamped groups.
type fbody struct {
	shared []token
	groups []fgroup
}

// readFrontierBody reads tokens until the close balancing the (consumed)
// frontier-node open. Frontier subtrees fit in memory (they are
// record-sized); only the stream above the frontier is unbounded.
func readFrontierBody(r *tokenReader) (*fbody, error) {
	b := &fbody{}
	if err := b.read(r); err != nil {
		return nil, err
	}
	return b, nil
}

// read is readFrontierBody into b, over what b held and in its room.
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
