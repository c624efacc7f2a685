package extmem

import (
	"fmt"
	"path/filepath"

	"xarch/internal/fsio"
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

// segMerge carries the state of one segmented merge pass.
type segMerge struct {
	ar       *Archiver
	i        int
	newRoot  *intervals.Set
	only     *intervals.Set // {i}, the stamp of a node only the version has; shared, read-only
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
		return nil, "", fmt.Errorf("extmem: bad archive timestamp %q: %w", at.data, err)
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
	m := &segMerge{ar: ar, i: i, newRoot: newRoot, only: intervals.New(i)}
	d := sorted.reader()

	out := &keyDirectory{versions: i, rootTime: newRoot}
	oi := 0
	for {
		var dt token
		dOK := false
		if t, ok := d.peek(); ok {
			if t.op != tokOpen {
				return nil, m.stats, m.newFiles, fmt.Errorf("extmem: unexpected token %#x at version root", t.op)
			}
			dt, dOK = t, true
		}
		aOK := oi < len(old.roots)
		var rec *rootRecord
		var err error
		switch {
		case aOK && dOK:
			r := old.roots[oi]
			dn, nerr := ar.dict.name(dt.tag)
			if nerr != nil {
				return nil, m.stats, m.newFiles, nerr
			}
			switch cmp := compareLabels(r.name, r.key, dn, dt.key); {
			case cmp == 0:
				rec, err = m.mergeRoot(r, d)
				oi++
			case cmp < 0:
				rec, err = m.terminateRoot(r)
				oi++
			default:
				rec, err = m.newRootFromVersion(d, dn, dt)
			}
		case aOK:
			rec, err = m.terminateRoot(old.roots[oi])
			oi++
		case dOK:
			dn, nerr := ar.dict.name(dt.tag)
			if nerr != nil {
				return nil, m.stats, m.newFiles, nerr
			}
			rec, err = m.newRootFromVersion(d, dn, dt)
		default:
			if d.err != nil {
				return nil, m.stats, m.newFiles, d.err
			}
			return out, m.stats, m.newFiles, nil
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
func (m *segMerge) terminateRoot(r *rootRecord) (*rootRecord, error) {
	out := &rootRecord{name: r.name, key: r.key, timeStr: r.timeStr, time: r.time, attrs: r.attrs, raw: r.raw}
	if r.timeStr == "" {
		out.time = m.newRoot.Without(m.i)
		out.timeStr = out.time.String()
	}
	if !r.raw || r.timeStr != "" {
		out.segs = r.segs
		m.stats.SegmentsReused += len(r.segs)
		return out, nil
	}
	// Raw root gaining an explicit timestamp: re-emit the stored subtree
	// with the new open token.
	a := m.ar.readParts(rootParts(r))
	defer a.release()
	at, ok := a.take()
	if !ok || at.op != tokOpen {
		return nil, corruptf("raw root %s has no open token", r.name)
	}
	sw := m.newWriter(out, true)
	sw.open()
	sw.out.open(at.tag, at.key, out.timeStr)
	if err := copyBalancedTo(a, sw.out, true); err != nil {
		sw.finish()
		return nil, err
	}
	m.stats.SegmentsRewritten += len(r.segs)
	if err := sw.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// newRootFromVersion copies a version-only root: the root's timestamp is
// {i}, its children are copied verbatim (inheriting it).
func (m *segMerge) newRootFromVersion(d *tokenReader, dn string, dt token) (*rootRecord, error) {
	out := &rootRecord{
		name: dn, key: dt.key,
		timeStr: m.only.String(), time: m.only,
		raw: m.ar.spec.IsFrontier(keys.Path([]string{dn})),
	}
	d.take() // the root open
	if out.raw {
		sw := m.newWriter(out, true)
		sw.open()
		sw.out.open(dt.tag, dt.key, out.timeStr)
		if err := copyBalancedTo(d, sw.out, true); err != nil {
			sw.finish()
			return nil, err
		}
		return out, sw.finish()
	}
	for _, t := range drainAttrs(d) {
		an, err := m.ar.dict.name(t.tag)
		if err != nil {
			return nil, err
		}
		out.attrs = append(out.attrs, attrRec{name: an, value: t.data})
	}
	sw := m.newWriter(out, false)
	if err := copyChildrenVerbatim(sw, m.ar.dict, d, -1); err != nil {
		sw.finish()
		return nil, err
	}
	if err := sw.finish(); err != nil {
		return nil, err
	}
	if t, ok := d.take(); !ok || t.op != tokClose {
		return nil, fmt.Errorf("extmem: version stream missing close at /%s", dn)
	}
	return out, nil
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
		if err := copyBalancedTo(tr, sw.out, true); err != nil {
			return err
		}
		sw.endChild()
		if sw.err != nil {
			return sw.err
		}
	}
	return nil
}

// mergeRoot merges a root present in both archive and version.
func (m *segMerge) mergeRoot(r *rootRecord, d *tokenReader) (*rootRecord, error) {
	eff, timeStr, err := mergedTimeTok(token{data: r.timeStr, time: r.time}, m.newRoot, m.i)
	if err != nil {
		return nil, err
	}
	out := &rootRecord{name: r.name, key: r.key, timeStr: timeStr, attrs: r.attrs, raw: r.raw}
	if timeStr != "" {
		out.time = eff
	}
	sm := &streamMerger{dict: m.ar.dict, spec: m.ar.spec, i: m.i}

	if r.raw {
		// Frontier root: record-sized by the §6 contract — merge the two
		// bodies with the standard frontier rules into one fresh segment.
		a := m.ar.readParts(rootParts(r))
		defer a.release()
		sw := m.newWriter(out, true)
		sw.open()
		sm.out = sw.out
		if err := sm.mergeEqual(a, d, m.newRoot, []string{r.name}); err != nil {
			sw.finish()
			return nil, err
		}
		m.stats.SegmentsRewritten += len(r.segs)
		return out, sw.finish()
	}

	d.take() // the version root open
	dAttrs := drainAttrs(d)
	if !attrRecsEqual(r.attrs, dAttrs, m.ar.dict) {
		return nil, fmt.Errorf("extmem: attributes of /%s differ between archive and version %d", r.name, m.i)
	}
	sw := m.newWriter(out, false)
	sm.out = sw.out
	if err := m.mergeChildren(sw, sm, r, out, d, eff); err != nil {
		sw.finish()
		return nil, err
	}
	if err := sw.finish(); err != nil {
		return nil, err
	}
	if t, ok := d.take(); !ok || t.op != tokClose {
		return nil, fmt.Errorf("extmem: version stream missing close at /%s", r.name)
	}
	return out, nil
}

// mergeChildren merges the version's children (up to the root's close)
// into the root's segments, reusing every segment the version leaves as it
// is. The version is read once, plus once more over the first dirty child
// of each segment that turns out dirty: the entries segmentClean found
// unchanged before it are copied from the segment as they stand, and the
// merge takes over at that child.
func (m *segMerge) mergeChildren(sw *segmentSetWriter, sm *streamMerger, r, out *rootRecord, d *tokenReader, eff *intervals.Set) error {
	path := []string{out.name}
	stored := segCursor{ar: m.ar}
	defer stored.close()
	for si, seg := range r.segs {
		inRange := func(string, *tkey) bool { return true }
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
		if err = copyChildrenVerbatim(sw, m.ar.dict, a, same); err == nil {
			err = m.mergeChildLevel(sw, sm, a, d, inRange, eff, path)
		}
		a.release()
		if err != nil {
			return err
		}
	}
	// Children arriving after the last segment's range (only possible
	// when the root had no segments at all).
	return m.mergeChildLevel(sw, sm, nil, d, func(string, *tkey) bool { return true }, eff, path)
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
			if dn, err = m.ar.dict.name(dt.tag); err != nil {
				return false, same, resume, err
			}
			child = inRange(dn, dt.key)
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
	ar   *Archiver
	seg  *segmentRecord
	f    fsio.File
	dict *segDict
	tr   *tokenReader // pos is the payload offset of its lookahead token
	sec  partReader
}

func (c *segCursor) close() {
	if c.tr != nil {
		c.tr.release()
	}
	if c.f != nil {
		c.f.Close()
	}
	*c = segCursor{ar: c.ar}
}

// at returns a reader standing at the open token of seg's entry e.
func (c *segCursor) at(seg *segmentRecord, e *childEntry) (*tokenReader, error) {
	if seg != c.seg {
		c.close()
		f, err := c.ar.fs.Open(filepath.Join(c.ar.dir, seg.file))
		if err != nil {
			return nil, fmt.Errorf("extmem: %w", err)
		}
		c.f = f
		if c.dict, err = c.ar.segDicts.get(seg); err != nil {
			return nil, err
		}
		c.seg = seg
	}
	if c.tr != nil && c.tr.pos == e.offset && !c.tr.done {
		return c.tr, nil
	}
	if err := c.sec.aim(c.f, seg, e.offset, seg.payload-e.offset, &c.ar.bytesRead); err != nil {
		return nil, err
	}
	if c.tr == nil {
		c.tr = newTokenReaderDict(&c.sec, c.dict, e.offset)
	} else {
		c.tr.reset(&c.sec, c.dict, e.offset)
	}
	return c.tr, nil
}

// mergeChildLevel is the bounded sibling merge of one segment's subtrees
// (a; nil for none) with the version children d accepts by inRange. It
// brackets every emitted child with entry recording on sw.
func (m *segMerge) mergeChildLevel(sw *segmentSetWriter, sm *streamMerger, a, d *tokenReader, inRange func(string, *tkey) bool, eff *intervals.Set, path []string) error {
	for {
		var at token
		aOK := false
		var an string
		if a != nil {
			if t, ok := a.peek(); ok && t.op == tokOpen {
				n, err := m.ar.dict.name(t.tag)
				if err != nil {
					return err
				}
				at, an, aOK = t, n, true
			} else if a.err != nil {
				return a.err
			}
		}
		var dt token
		dOK := false
		var dn string
		if t, ok := d.peek(); ok && t.op == tokOpen {
			n, err := m.ar.dict.name(t.tag)
			if err != nil {
				return err
			}
			if inRange(n, t.key) {
				dt, dn, dOK = t, n, true
			}
		} else if d.err != nil {
			return d.err
		}
		var err error
		switch {
		case aOK && dOK:
			switch cmp := compareLabels(an, at.key, dn, dt.key); {
			case cmp == 0:
				teff, ts, terr := mergedTimeTok(at, eff, m.i)
				if terr != nil {
					return terr
				}
				sw.beginChild(an, at.key, ts, teff)
				err = sm.mergeEqual(a, d, eff, append(path, an))
			case cmp < 0:
				err = m.copyArchiveChildEntry(sw, sm, a, at, an, eff)
			default:
				sw.beginChild(dn, dt.key, m.only.String(), m.only)
				err = sm.copyVersionChild(d)
			}
		case aOK:
			err = m.copyArchiveChildEntry(sw, sm, a, at, an, eff)
		case dOK:
			sw.beginChild(dn, dt.key, m.only.String(), m.only)
			err = sm.copyVersionChild(d)
		default:
			return nil
		}
		if err != nil {
			return err
		}
		sw.endChild()
		if sw.err != nil {
			return sw.err
		}
	}
}

func (m *segMerge) copyArchiveChildEntry(sw *segmentSetWriter, sm *streamMerger, a *tokenReader, at token, an string, eff *intervals.Set) error {
	ts, t := at.data, at.time
	if ts == "" {
		t = eff.Without(m.i)
		ts = t.String()
	}
	sw.beginChild(an, at.key, ts, t)
	return sm.copyArchiveChild(a, eff)
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
// already-consumed open; the close is emitted when emitClose is set.
func copyBalancedTo(r *tokenReader, tw *captureWriter, emitClose bool) error {
	depth := 1
	for {
		t, ok := r.take()
		if !ok {
			return fmt.Errorf("extmem: truncated subtree")
		}
		switch t.op {
		case tokOpen:
			depth++
		case tokClose:
			depth--
			if depth == 0 {
				if emitClose {
					tw.close()
				}
				return nil
			}
		}
		tw.writeToken(t)
	}
}
