package extmem

import (
	"fmt"

	"xarch/internal/intervals"
	"xarch/internal/keys"
)

// Segment-local merge (phase 4 of AddVersion): one pass over the sorted
// version merges it into the segmented layout root by root, deciding for
// each base segment, as the pass reaches it, whether the version leaves it
// as it is. A segment whose range sees only children equal to their stored
// subtrees, and no inherited timestamp the new version would terminate, is
// left untouched on disk and re-linked into the fresh key directory; any
// other is stream-merged into new files. An Add that changes a small key
// range therefore rewrites O(overlap) bytes, not O(archive).

// MergeStats reports the segment work of the most recent AddVersion.
type MergeStats struct {
	SegmentsReused    int // linked into the new directory unchanged
	SegmentsRewritten int // old segments stream-merged into new files
	SegmentsCreated   int // new segment files written
}

// segMerge carries the state of one segmented merge pass: below the root,
// every level merges through its streamMerger.
type segMerge struct {
	streamMerger
	ar       *Archiver
	newRoot  *intervals.Set
	stats    MergeStats
	newFiles []string
}

// mergedTimeTok applies the §4.2 timestamp rule to the archive token of a
// node present in both archive and version: an explicit archive timestamp
// gains version i and collapses back to inherited ("") when it catches up
// with the parent's effective timestamp. It returns the node's new
// effective timestamp and its stored form. A token from a segment, like a
// directory record, carries its timestamp pre-parsed and shared, so the set
// is cloned — never mutated — before version i is added.
func mergedTimeTok(at token, parentEff *intervals.Set, i int) (*intervals.Set, string, error) {
	if at.data == "" {
		return parentEff, "", nil
	}
	t, err := tokenEff(at)
	if err != nil {
		return nil, "", err
	}
	t = t.Clone()
	t.Add(i)
	if t.Equal(parentEff) {
		return parentEff, "", nil
	}
	return t, t.String(), nil
}

// mergeIntoSegments merges the sorted version as version i against the
// base directory — usually the committed ar.curDir, but a group commit
// (AddVersionBatch) chains the uncommitted directory of the previous
// batch member through here. It returns the fresh directory,
// the merge stats and the list of segment files created (for cleanup if
// the commit fails).
func (ar *Archiver) mergeIntoSegments(base *keyDirectory, sorted sortedVersion, i int) (*keyDirectory, MergeStats, []string, error) {
	old := base
	newRoot := old.rootTime.Clone()
	newRoot.Add(i)
	only := intervals.New(i)
	m := &segMerge{
		streamMerger: streamMerger{dict: ar.dict, spec: ar.spec, out: &ar.segOut, i: i, only: only, onlyStr: only.String()},
		ar:           ar, newRoot: newRoot,
	}
	d := sorted.reader()

	out := &keyDirectory{versions: i, rootTime: newRoot}
	for oi := 0; ; {
		dt, dOK := d.peek()
		if !dOK && d.err != nil {
			return nil, m.stats, m.newFiles, d.err
		}
		if dOK && dt.op != tokOpen {
			return nil, m.stats, m.newFiles, fmt.Errorf("extmem: unexpected token %#x at version root", dt.op)
		}
		var dn string
		if dOK {
			var err error
			if dn, err = ar.dict.name(dt.tag); err != nil {
				return nil, m.stats, m.newFiles, err
			}
		}
		var cmp int
		switch aOK := oi < len(old.roots); {
		case aOK && dOK:
			cmp = compareLabels(old.roots[oi].name, old.roots[oi].key, dn, dt.key)
		case aOK:
			cmp = -1
		case dOK:
			cmp = 1
		default:
			return out, m.stats, m.newFiles, nil
		}
		var rec *rootRecord
		var err error
		switch {
		case cmp == 0:
			rec, err = m.mergeRoot(old.roots[oi], d)
			oi++
		case cmp < 0:
			rec, err = m.terminateRoot(old.roots[oi], d)
			oi++
		default:
			rec, err = m.newRootFromVersion(d, dn, dt)
		}
		if err != nil {
			return nil, m.stats, m.newFiles, err
		}
		out.roots = append(out.roots, rec)
	}
}

// newWriter returns a segment-set writer for rec that records every
// created file for cleanup (at creation, so failed merges remove
// partial files too) and appends finished segments to rec.
func (m *segMerge) newWriter(rec *rootRecord, raw bool) *segmentSetWriter {
	return newSegmentSetWriter(m.ar, rec, raw,
		func(sr *segmentRecord) {
			rec.segs = append(rec.segs, sr)
			m.stats.SegmentsCreated++
		},
		func(name string) {
			m.newFiles = append(m.newFiles, name)
		})
}

// terminateRoot handles a root absent from the new version: an inherited
// timestamp becomes explicit at newRoot−{i} (§4.2 step (b)). Non-raw
// roots change only in the directory — every segment is reused; a raw
// root with an inherited timestamp must be rewritten because its open
// token (and timestamp) live in the segment bytes.
func (m *segMerge) terminateRoot(r *rootRecord, d *tokenReader) (*rootRecord, error) {
	out := &rootRecord{name: r.name, key: r.key, timeStr: r.timeStr, time: r.time, attrs: r.attrs, raw: r.raw}
	if r.raw && r.timeStr == "" {
		return out, m.rawRoot(r, out, d)
	}
	if r.timeStr == "" {
		out.time = m.newRoot.Without(m.i)
		out.timeStr = out.time.String()
	}
	out.segs = r.segs
	m.stats.SegmentsReused += len(r.segs)
	return out, nil
}

// newRootFromVersion copies a version-only root: the root's timestamp is
// {i}, its children are copied verbatim (inheriting it).
func (m *segMerge) newRootFromVersion(d *tokenReader, dn string, dt token) (*rootRecord, error) {
	out := &rootRecord{name: dn, key: dt.key, timeStr: m.onlyStr, time: m.only}
	if out.raw = m.spec.IsFrontier(keys.Path([]string{dn})); out.raw {
		return out, m.rawRoot(nil, out, d)
	}
	d.take() // the root open
	for _, t := range drainAttrs(d) {
		an, err := m.dict.name(t.tag)
		if err != nil {
			return nil, err
		}
		out.attrs = append(out.attrs, attrRec{name: an, value: t.data})
	}
	sw := m.newWriter(out, false)
	if err := copyChildrenVerbatim(sw, m.dict, d, -1); err != nil {
		sw.finish()
		return nil, err
	}
	if err := sw.finish(); err != nil {
		return nil, err
	}
	if t, ok := d.take(); !ok || t.op != tokClose {
		return nil, missingClose(d, "version", []string{dn})
	}
	return out, nil
}

// rawRoot writes the raw (frontier) root out into one fresh segment, as a
// single node merged through mergeLevel: r is the stored root (nil when
// the version brings it), and d's head is the version's root of that
// label, if the version has one. out takes the stamp the merge gave the
// root's open token.
func (m *segMerge) rawRoot(r, out *rootRecord, d *tokenReader) error {
	var a *tokenReader
	if r != nil {
		a = m.ar.readParts(rootParts(r))
		defer a.release()
		if t, ok := a.peek(); !ok || t.op != tokOpen {
			if a.err != nil {
				return a.err
			}
			return corruptf("raw root %s has no open token", r.name)
		}
		m.stats.SegmentsRewritten += len(r.segs)
	}
	sw := m.newWriter(out, true)
	sw.open()
	isRoot := func(n string, k *tkey) bool { return compareLabels(n, k, out.name, out.key) == 0 }
	err := m.mergeLevel(a, d, m.newRoot, nil, nil, isRoot)
	if err == nil {
		root := capCursor{c: sw.out} // the root's open token comes first
		if out.timeStr, out.time = root.token().data, nil; out.timeStr != "" {
			out.time, err = intervals.Parse(out.timeStr)
		}
	}
	if ferr := sw.finish(); err == nil {
		err = ferr
	}
	return err
}

// copyChildrenVerbatim copies the first n sibling subtrees at the cursor
// (all of them when n < 0, stopping at the balancing close, which it does
// not consume) into sw unchanged, recording one entry per subtree, named
// through dict.
func copyChildrenVerbatim(sw *segmentSetWriter, dict *dictionary, tr *tokenReader, n int) error {
	for ; n != 0; n-- {
		t, ok := tr.peek()
		if !ok || t.op == tokClose {
			if n > 0 && tr.err == nil {
				return corruptf("segment ends %d entries short of its directory", n)
			}
			return tr.err
		}
		if t.op != tokOpen {
			return corruptf("unexpected token %#x at keyed level", t.op)
		}
		tr.take()
		name, err := dict.name(t.tag)
		if err != nil {
			return err
		}
		sw.beginChild(name, t.key, t.data, t.time)
		sw.out.open(t.tag, t.key, t.data)
		if err := copyBalancedTo(tr, sw.out); err != nil {
			return err
		}
		if err := endChild(sw); err != nil {
			return err
		}
	}
	return nil
}

// mergeRoot merges a root present in both archive and version.
func (m *segMerge) mergeRoot(r *rootRecord, d *tokenReader) (*rootRecord, error) {
	out := &rootRecord{name: r.name, key: r.key, attrs: r.attrs, raw: r.raw}
	if r.raw {
		// Frontier root: record-sized by the §6 contract.
		return out, m.rawRoot(r, out, d)
	}
	eff, timeStr, err := mergedTimeTok(token{data: r.timeStr, time: r.time}, m.newRoot, m.i)
	if err != nil {
		return nil, err
	}
	if out.timeStr = timeStr; timeStr != "" {
		out.time = eff
	}
	d.take() // the version root open
	dAttrs := drainAttrs(d)
	if !attrRecsEqual(r.attrs, dAttrs, m.dict) {
		return nil, fmt.Errorf("extmem: attributes of /%s differ between archive and version %d", r.name, m.i)
	}
	sw := m.newWriter(out, false)
	if err := m.mergeChildren(sw, r, out, d, eff); err != nil {
		sw.finish()
		return nil, err
	}
	if err := sw.finish(); err != nil {
		return nil, err
	}
	if t, ok := d.take(); !ok || t.op != tokClose {
		return nil, missingClose(d, "version", []string{r.name})
	}
	return out, nil
}

// mergeChildren merges the version's children (up to the root's close)
// into the root's segments, reusing every segment the version leaves as it
// is. The version is read once, plus once more over the first dirty child
// of each segment that turns out dirty: the entries segmentClean found
// unchanged before it are copied from the segment as they stand, and the
// merge takes over at that child.
func (m *segMerge) mergeChildren(sw *segmentSetWriter, r, out *rootRecord, d *tokenReader, eff *intervals.Set) error {
	path := []string{out.name}
	stored := segCursor{segFile: segFile{ar: m.ar}}
	defer stored.close()
	for si, seg := range r.segs {
		var inRange func(string, *tkey) bool // nil: the last segment takes the rest
		if si+1 < len(r.segs) {
			hiName, hiKey := r.segs[si+1].firstLabel()
			inRange = func(n string, k *tkey) bool { return compareLabels(n, k, hiName, hiKey) < 0 }
		}
		clean, same, resume, err := m.segmentClean(seg, &stored, d, inRange)
		if err != nil {
			return err
		}
		if clean {
			// The merged output would equal the stored bytes, and the
			// version's children of this range are consumed: link the
			// segment unchanged. Close any partial output first so the
			// directory keeps the key order.
			sw.closeCurrent()
			if sw.err != nil {
				return sw.err
			}
			out.segs = append(out.segs, seg)
			m.stats.SegmentsReused++
			continue
		}
		if d.pos != resume {
			d.reset(nil, nil, resume)
		}
		m.stats.SegmentsRewritten++
		a := m.ar.readParts([]streamPart{segPart(seg)})
		if err = copyChildrenVerbatim(sw, m.dict, a, same); err == nil {
			err = m.mergeLevel(a, d, eff, path, sw, inRange)
		}
		a.release()
		if err != nil {
			return err
		}
	}
	// Children arriving after the last segment's range (only possible
	// when the root had no segments at all).
	return m.mergeLevel(nil, d, eff, path, sw, nil)
}

// segmentClean walks seg's directory entries in lockstep with the version
// children d holds in the segment's range and reports whether the §4.2
// merge would leave the stored bytes as they are: every child in range is
// equal to its stored subtree, which carries no explicit timestamp (the
// merge would restamp one), no child is inserted, and every entry the
// version does not mention already has an explicit timestamp (an inherited
// one would have to be terminated). When it returns true it has consumed
// the children of the range. It stops at the first thing that makes the
// segment dirty, leaving d inside the child it was comparing (or before
// it), and says where the merge has to start: the first same entries come
// out of it as they are stored, and resume is the index in d of the open
// token of the child that meets the next one. A version sorted in runs
// holds one child at a time, so d must not have left that child.
func (m *segMerge) segmentClean(seg *segmentRecord, stored *segCursor, d *tokenReader, inRange func(string, *tkey) bool) (clean bool, same int, resume int64, err error) {
	entries := seg.entries
	for {
		same, resume = len(seg.entries)-len(entries), d.pos
		dt, ok := d.peek()
		if !ok && d.err != nil {
			return false, same, resume, d.err
		}
		var dn string
		child := ok && dt.op == tokOpen
		if child {
			if dn, err = m.dict.name(dt.tag); err != nil {
				return false, same, resume, err
			}
			child = inRange == nil || inRange(dn, dt.key)
		}
		if !child {
			// The range is exhausted: what is left is not in the version.
			return noneInherited(entries), same, resume, nil
		}
		below := 0
		for below < len(entries) && compareLabels(entries[below].name, entries[below].key, dn, dt.key) < 0 {
			below++
		}
		if !noneInherited(entries[:below]) {
			return false, same, resume, nil
		}
		entries, same = entries[below:], same+below
		if len(entries) == 0 || entries[0].timeStr != "" || compareLabels(entries[0].name, entries[0].key, dn, dt.key) != 0 {
			return false, same, resume, nil // an inserted child, or one the merge restamps
		}
		a, err := stored.at(seg, &entries[0])
		if err != nil {
			return false, same, resume, err
		}
		if eq, err := sameSubtree(a, d); err != nil || !eq {
			return false, same, resume, err
		}
		entries = entries[1:]
	}
}

// noneInherited reports whether every entry carries an explicit timestamp,
// so that none needs terminating when the version does not mention it.
func noneInherited(entries []childEntry) bool {
	for i := range entries {
		if entries[i].timeStr == "" {
			return false
		}
	}
	return true
}

// sameSubtree consumes the subtree at the head of a (stored) and of d
// (version) in lockstep and reports whether they are the same tokens: op,
// tag, key tuple (nil is not the empty tuple), and data — that is, whether
// the two would be byte-equal written in one grammar. The comparison is
// exact, never a fingerprint, and holds one token of each side at a time.
// On a difference it stops where it stands, and it takes a version token
// only once it matches: d never passes the close of a child that differs,
// so the merge can go back to that child's start.
func sameSubtree(a, d *tokenReader) (bool, error) {
	for depth := 0; ; {
		at, aOK := a.take()
		if !aOK {
			if a.err != nil {
				return false, a.err
			}
			return false, corruptf("segment ends inside a subtree")
		}
		dt, dOK := d.peek()
		if !dOK {
			return false, d.err // a truncated version is the merge's to report
		}
		if at.op != dt.op || at.tag != dt.tag || at.data != dt.data ||
			(at.key == nil) != (dt.key == nil) || compareKeys(at.key, dt.key) != 0 {
			return false, nil
		}
		d.next()
		switch at.op {
		case tokOpen:
			depth++
		case tokClose:
			depth--
		}
		if depth == 0 {
			return true, nil
		}
	}
}

// segCursor reads stored entry subtrees for segmentClean, which asks for
// them in directory order: a base segment is opened, and its dictionary
// resolved, once; one token reader follows the payload from entry to entry
// and is re-aimed only across a gap (entries the version does not mention).
type segCursor struct {
	segFile
	tr *tokenReader // pos is the payload offset of its lookahead token
}

func (c *segCursor) close() {
	if c.tr != nil {
		c.tr.release()
		c.tr = nil
	}
	c.closeFile()
}

// at returns a reader standing at the open token of seg's entry e.
func (c *segCursor) at(seg *segmentRecord, e *childEntry) (*tokenReader, error) {
	if seg != c.seg {
		c.close()
	}
	if c.tr != nil && c.tr.pos == e.offset && !c.tr.done {
		return c.tr, nil
	}
	if err := c.aim(seg, e.offset, seg.payload-e.offset); err != nil {
		return nil, err
	}
	if c.tr == nil {
		c.tr = newTokenReaderDict(&c.segFile, c.dict, e.offset)
	} else {
		c.tr.reset(&c.segFile, c.dict, e.offset)
	}
	return c.tr, nil
}

// attrRecsEqual compares the root's recorded attributes with the
// version's attribute tokens, by name and value.
func attrRecsEqual(a []attrRec, b []token, dict *dictionary) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if name, err := dict.name(b[i].tag); err != nil || a[i].name != name || a[i].value != b[i].data {
			return false
		}
	}
	return true
}

// copyBalancedTo copies tokens verbatim until the close balancing the
// already-consumed open, and that close. A stream that ends before it
// reports the error that ended it, or is corrupt.
func copyBalancedTo(r *tokenReader, tw *captureWriter) error {
	depth := 1
	for {
		t, ok := r.take()
		if !ok {
			if r.err != nil {
				return r.err
			}
			return corruptf("truncated subtree")
		}
		switch t.op {
		case tokOpen:
			depth++
		case tokClose:
			if depth--; depth == 0 {
				tw.close()
				return nil
			}
		}
		tw.writeToken(t)
	}
}
