package extmem

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"xarch/internal/fsio"
	"xarch/internal/intervals"
	"xarch/internal/keys"
)

// Segment-local merge (phase 4 of AddVersion): the sorted version is
// merged into the segmented layout root by root. Segments whose key range does not
// overlap the incoming children — and which carry no inherited
// timestamps that the new version would terminate — are left untouched
// on disk and re-linked into the fresh key directory; only overlapping
// segments are stream-merged into new files. An Add that changes a small
// key range therefore rewrites O(overlap) bytes, not O(archive).

// MergeStats reports the segment work of the most recent AddVersion.
type MergeStats struct {
	SegmentsReused    int // linked into the new directory unchanged
	SegmentsRewritten int // old segments stream-merged into new files
	SegmentsCreated   int // new segment files written
}

// segMerge carries the state of one segmented merge pass.
type segMerge struct {
	ar       *Archiver
	base     *keyDirectory // directory the version merges against
	i        int
	newRoot  *intervals.Set
	stats    MergeStats
	newFiles []string
	plans    map[*segmentRecord]*segPlan
}

// segPlan is the planning pass's verdict for one segment: whether the
// incoming version forces a rewrite, and how many of the segment's
// inherited-timestamp entries were matched by byte-identical incoming
// children (a segment is reusable only when that covers all of them —
// any unmatched inherited entry needs its timestamp terminated).
type segPlan struct {
	dirty        bool
	cleanMatched int
}

func segInherited(seg *segmentRecord) int {
	n := 0
	for i := range seg.entries {
		if seg.entries[i].timeStr == "" {
			n++
		}
	}
	return n
}

// reusable reports whether the planning pass cleared the segment: every
// incoming child in its range is byte-identical to its stored subtree
// (so the merged output equals the stored bytes), no child is inserted
// or deleted in the range, and no timestamp changes.
func (m *segMerge) reusable(seg *segmentRecord) bool {
	pl := m.plans[seg]
	if pl == nil {
		// No incoming child touched this range: reusable unless an
		// inherited timestamp must be terminated.
		return segInherited(seg) == 0
	}
	return !pl.dirty && pl.cleanMatched == segInherited(seg)
}

// mergedTime applies the §4.2 timestamp rule for a node present in both
// archive and version: an explicit archive timestamp gains version i and
// collapses back to inherited ("") when it catches up with the parent's
// effective timestamp. It returns the node's new effective timestamp and
// its stored form.
func mergedTime(atData string, parentEff *intervals.Set, i int) (*intervals.Set, string, error) {
	if atData == "" {
		return parentEff, "", nil
	}
	t, err := intervals.Parse(atData)
	if err != nil {
		return nil, "", fmt.Errorf("extmem: bad archive timestamp %q: %w", atData, err)
	}
	t.Add(i)
	if t.Equal(parentEff) {
		return parentEff, "", nil
	}
	return t, t.String(), nil
}

// mergedTimeTok is mergedTime over a decoded archive token: a token from
// a segment carries its timestamp pre-parsed in the shared segment
// dictionary, which must be cloned — never mutated — before version i is
// added.
func mergedTimeTok(at token, parentEff *intervals.Set, i int) (*intervals.Set, string, error) {
	if at.data == "" {
		return parentEff, "", nil
	}
	if at.time == nil {
		return mergedTime(at.data, parentEff, i)
	}
	t := at.time.Clone()
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
	m := &segMerge{ar: ar, base: base, i: i, newRoot: newRoot}

	if err := m.planReuse(sorted); err != nil {
		return nil, m.stats, nil, err
	}

	df, err := sorted.open(ar.fs)
	if err != nil {
		return nil, m.stats, nil, err
	}
	defer df.Close()
	d := newTokenReader(df)
	defer d.release()

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
	out := &rootRecord{name: r.name, tag: r.tag, key: r.key, timeStr: r.timeStr, attrs: r.attrs, raw: r.raw}
	if r.timeStr == "" {
		out.timeStr = m.newRoot.Without(m.i).String()
	}
	if !r.raw || r.timeStr != "" {
		out.segs = r.segs
		m.stats.SegmentsReused += len(r.segs)
		return out, nil
	}
	// Raw root gaining an explicit timestamp: re-emit the stored subtree
	// with the new open token.
	ds := &dirStream{fs: m.ar.fs, dir: m.ar.dir, parts: rootParts(r), dicts: m.ar.segDicts, counter: &m.ar.bytesRead}
	defer ds.Close()
	a := newDirTokenReader(ds)
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
		name: dn, tag: dt.tag, key: dt.key,
		timeStr: intervals.New(m.i).String(),
		raw:     m.ar.spec.IsFrontier(keys.Path([]string{dn})),
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
		out.attrs = append(out.attrs, attrRec{name: an, tag: t.tag, value: t.data})
	}
	sw := m.newWriter(out, false)
	if err := m.copyChildrenVerbatim(sw, d); err != nil {
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

// copyChildrenVerbatim copies the sibling subtrees at the cursor into sw
// unchanged (stopping at the balancing close, which it does not
// consume), recording one entry per subtree.
func (m *segMerge) copyChildrenVerbatim(sw *segmentSetWriter, tr *tokenReader) error {
	for {
		t, ok := tr.peek()
		if !ok || t.op == tokClose {
			return tr.err
		}
		if t.op != tokOpen {
			return corruptf("unexpected token %#x at keyed level", t.op)
		}
		tr.take()
		name, err := m.ar.dict.name(t.tag)
		if err != nil {
			return err
		}
		sw.beginChild(name, t.tag, t.key, t.data)
		sw.out.open(t.tag, t.key, t.data)
		if err := copyBalancedTo(tr, sw.out, true); err != nil {
			return err
		}
		sw.endChild()
		if sw.err != nil {
			return sw.err
		}
	}
}

// mergeRoot merges a root present in both archive and version.
func (m *segMerge) mergeRoot(r *rootRecord, d *tokenReader) (*rootRecord, error) {
	eff, timeStr, err := mergedTime(r.timeStr, m.newRoot, m.i)
	if err != nil {
		return nil, err
	}
	out := &rootRecord{name: r.name, tag: r.tag, key: r.key, timeStr: timeStr, attrs: r.attrs, raw: r.raw}
	sm := &streamMerger{dict: m.ar.dict, spec: m.ar.spec, i: m.i}

	if r.raw {
		// Frontier root: record-sized by the §6 contract — merge the two
		// bodies with the standard frontier rules into one fresh segment.
		ds := &dirStream{fs: m.ar.fs, dir: m.ar.dir, parts: rootParts(r), dicts: m.ar.segDicts, counter: &m.ar.bytesRead}
		defer ds.Close()
		a := newDirTokenReader(ds)
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
	if !attrRecsEqual(r.attrs, dAttrs) {
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
// into the root's segments, reusing every segment whose key range the
// version does not touch.
func (m *segMerge) mergeChildren(sw *segmentSetWriter, sm *streamMerger, r, out *rootRecord, d *tokenReader, eff *intervals.Set) error {
	path := []string{out.name}
	dPeek := func() (string, token, bool, error) {
		t, ok := d.peek()
		if !ok || t.op != tokOpen {
			return "", token{}, false, d.err
		}
		n, err := m.ar.dict.name(t.tag)
		return n, t, err == nil, err
	}
	for si := 0; si < len(r.segs); si++ {
		seg := r.segs[si]
		hasHi := si+1 < len(r.segs)
		var hiName string
		var hiKey *tkey
		if hasHi {
			hiName, hiKey = r.segs[si+1].firstLabel()
		}
		inRange := func(n string, k *tkey) bool {
			return !hasHi || compareLabels(n, k, hiName, hiKey) < 0
		}
		if m.reusable(seg) {
			// The planning pass proved the merged output would equal the
			// stored bytes: consume the (byte-identical) incoming
			// children of this range and link the segment unchanged.
			// Close any partial output first so the directory keeps the
			// key order.
			sw.closeCurrent()
			if sw.err != nil {
				return sw.err
			}
			for {
				dn, dt, dOK, err := dPeek()
				if err != nil {
					return err
				}
				if !dOK || !inRange(dn, dt.key) {
					break
				}
				d.take()
				if err := d.discardSubtree(); err != nil {
					return err
				}
			}
			out.segs = append(out.segs, seg)
			m.stats.SegmentsReused++
			continue
		}
		m.stats.SegmentsRewritten++
		ds := &dirStream{fs: m.ar.fs, dir: m.ar.dir, parts: []streamPart{{seg: seg, off: 0, n: seg.payload}}, dicts: m.ar.segDicts, counter: &m.ar.bytesRead}
		a := newDirTokenReader(ds)
		err := m.mergeChildLevel(sw, sm, a, d, inRange, eff, path)
		a.release()
		ds.Close()
		if err != nil {
			return err
		}
	}
	// Children arriving after the last segment's range (only possible
	// when the root had no segments at all).
	return m.mergeChildLevel(sw, sm, nil, d, func(string, *tkey) bool { return true }, eff, path)
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
				_, ts, terr := mergedTimeTok(at, eff, m.i)
				if terr != nil {
					return terr
				}
				sw.beginChild(an, at.tag, at.key, ts)
				err = sm.mergeEqual(a, d, eff, append(path, an))
			case cmp < 0:
				err = m.copyArchiveChildEntry(sw, sm, a, at, an, eff)
			default:
				sw.beginChild(dn, dt.tag, dt.key, intervals.New(m.i).String())
				err = sm.copyVersionChild(d)
			}
		case aOK:
			err = m.copyArchiveChildEntry(sw, sm, a, at, an, eff)
		case dOK:
			sw.beginChild(dn, dt.tag, dt.key, intervals.New(m.i).String())
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
	ts := at.data
	if ts == "" {
		ts = eff.Without(m.i).String()
	}
	sw.beginChild(an, at.tag, at.key, ts)
	return sm.copyArchiveChild(a, eff)
}

// attrRecsEqual compares the root's recorded attributes with the
// version's attribute tokens.
func attrRecsEqual(a []attrRec, b []token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].tag != b[i].tag || a[i].value != b[i].data {
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

// ---------------------------------------------------------------------------
// Planning pass: which segments can the merge reuse?

// planReuse scans the sorted version once, classifying every segment of
// every matched root: an incoming child that is byte-identical to its
// stored subtree (same label, inherited timestamp, same bytes) leaves
// the stored bytes untouched by the §4.2 merge rules, so a segment whose
// range sees only such children — and whose inherited timestamps are all
// covered by them — can be linked into the new directory without being
// read again or rewritten. The comparison is exact (a compare-tee rides
// the scan, checking each child's bytes against the stored section as
// they stream past), never a fingerprint; the sorted version is read
// exactly once.
func (m *segMerge) planReuse(sorted sortedVersion) error {
	m.plans = map[*segmentRecord]*segPlan{}
	f, err := sorted.open(m.ar.fs)
	if err != nil {
		return err
	}
	defer f.Close()
	pr := &posReader{br: bufio.NewReaderSize(f, tokenBufSize)}
	roots := m.base.roots
	oi := 0
	for {
		op, ok, err := pr.peekByte()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if op != tokOpen {
			return corruptf("unexpected token %#x at version root", op)
		}
		pr.byte()
		tag, key, _, err := pr.openPayload(true)
		if err != nil {
			return err
		}
		name, err := m.ar.dict.name(tag)
		if err != nil {
			return err
		}
		for oi < len(roots) && compareLabels(roots[oi].name, roots[oi].key, name, key) < 0 {
			oi++
		}
		if oi < len(roots) && !roots[oi].raw && compareLabels(roots[oi].name, roots[oi].key, name, key) == 0 {
			err = m.planRoot(pr, roots[oi])
			oi++
		} else {
			if oi < len(roots) && compareLabels(roots[oi].name, roots[oi].key, name, key) == 0 {
				oi++ // raw root: always rewritten, nothing to plan
			}
			err = pr.skipBalanced(1)
		}
		if err != nil {
			return err
		}
	}
}

// planRoot classifies the children of one matched, non-raw root. The
// cursor stands right after the root's open token; planRoot consumes
// attributes, every child subtree and the root's close. Each candidate
// child is byte-compared against its stored subtree by arming the
// scanner's compare-tee, so the child's bytes are consumed and compared
// in the same pass.
func (m *segMerge) planRoot(pr *posReader, r *rootRecord) error {
	plan := func(s *segmentRecord) *segPlan {
		p := m.plans[s]
		if p == nil {
			p = &segPlan{}
			m.plans[s] = p
		}
		return p
	}
	// Attributes of the root.
	for {
		op, ok, err := pr.peekByte()
		if err != nil {
			return err
		}
		if !ok || op != tokAttr {
			break
		}
		pr.byte()
		if _, err := pr.varint(); err != nil {
			return err
		}
		if err := pr.skipStr(); err != nil {
			return err
		}
	}
	segs := r.segs
	si, ei := 0, 0
	// Segments store interned tokens, so their bytes cannot be compared
	// with the inline version stream directly: the stored entry is
	// rendered in the inline grammar once, then the incoming child's
	// bytes are checked against that buffer as the scanner consumes them.
	// The scanner hands the comparer many one-byte writes (opcodes);
	// buffering batches them into chunked compares.
	mem := &memComparer{}
	cmpBuf := bufio.NewWriterSize(mem, 32*1024)
	var entryBuf bytes.Buffer
	var openBuf bytes.Buffer
	stored := segCursor{ar: m.ar}
	defer stored.close()
	for {
		op, ok, err := pr.peekByte()
		if err != nil {
			return err
		}
		if !ok {
			return corruptf("version stream ends inside /%s", r.name)
		}
		if op == tokClose {
			pr.byte()
			return nil
		}
		if op != tokOpen {
			return corruptf("unexpected token %#x at keyed level", op)
		}
		// Record the open token's bytes: whether (and against what) to
		// compare is known only once the child's label is parsed.
		openBuf.Reset()
		pr.sink = &openBuf
		pr.byte()
		tag, key, _, err := pr.openPayload(true)
		pr.sink = nil
		if err != nil {
			return err
		}
		name, err := m.ar.dict.name(tag)
		if err != nil {
			return err
		}
		if len(segs) == 0 {
			// Fresh root level: no segments to classify.
			if err := pr.skipBalanced(1); err != nil {
				return err
			}
			continue
		}
		// Ownership: the child belongs to the last segment whose first
		// label does not exceed it (mirroring the merge's ranges).
		for si+1 < len(segs) {
			fn, fk := segs[si+1].firstLabel()
			if compareLabels(name, key, fn, fk) >= 0 {
				si++
				ei = 0
			} else {
				break
			}
		}
		seg := segs[si]
		pl := plan(seg)
		if pl.dirty {
			// The segment will be rewritten whatever its other children
			// turn out to be: nothing left to learn from this one.
			if err := pr.skipBalanced(1); err != nil {
				return err
			}
			continue
		}
		for ei < len(seg.entries) && compareLabels(seg.entries[ei].name, seg.entries[ei].key, name, key) < 0 {
			ei++
		}
		if ei >= len(seg.entries) || compareLabels(seg.entries[ei].name, seg.entries[ei].key, name, key) != 0 {
			pl.dirty = true // inserted child in this range
			if err := pr.skipBalanced(1); err != nil {
				return err
			}
			continue
		}
		e := &seg.entries[ei]
		ei++
		if e.timeStr != "" {
			pl.dirty = true // the merge will restamp this child
			if err := pr.skipBalanced(1); err != nil {
				return err
			}
			continue
		}
		if err := stored.inline(seg, e, &entryBuf); err != nil {
			return err
		}
		mem.reset(entryBuf.Bytes())
		if _, err := cmpBuf.Write(openBuf.Bytes()); err != nil {
			return err
		}
		pr.sink = cmpBuf
		err = pr.skipBalanced(1)
		pr.sink = nil
		if err != nil {
			return err
		}
		if err := cmpBuf.Flush(); err != nil {
			return err
		}
		if mem.equal() {
			pl.cleanMatched++
		} else {
			pl.dirty = true
		}
	}
}

// segCursor reads stored entry subtrees for the planning pass, which asks
// for them in directory order: each base segment is opened, and its
// dictionary resolved, once; one token reader follows the payload from
// entry to entry and is re-aimed only across a gap (entries the version
// does not mention).
type segCursor struct {
	ar   *Archiver
	seg  *segmentRecord
	f    fsio.File
	dict *segDict
	tr   *tokenReader
	at   int64 // payload offset of tr's lookahead token
	sec  partReader
	blk  blockReader
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

// seek opens seg if it is not the open segment and stands the reader at
// payload offset off.
func (c *segCursor) seek(seg *segmentRecord, off int64) error {
	if seg != c.seg {
		c.close()
		f, err := c.ar.fs.Open(filepath.Join(c.ar.dir, seg.file))
		if err != nil {
			return fmt.Errorf("extmem: %w", err)
		}
		c.f = f
		if c.dict, err = c.ar.segDicts.get(seg); err != nil {
			return err
		}
		c.seg = seg
	}
	r, err := payloadSection(c.f, seg, c.dict, off, seg.payload-off, &c.ar.bytesRead, &c.sec, &c.blk)
	if err != nil {
		return err
	}
	if c.tr == nil {
		c.tr = newTokenReaderDict(r, c.dict)
	} else {
		c.tr.reset(r, c.dict)
	}
	c.at = off
	return nil
}

// inline renders the stored subtree of entry e in the inline token
// grammar — the encoding the sorted version stream uses — so the planning
// pass can byte-compare it with an incoming child.
func (c *segCursor) inline(seg *segmentRecord, e *childEntry, buf *bytes.Buffer) error {
	if seg != c.seg || c.at != e.offset {
		if err := c.seek(seg, e.offset); err != nil {
			return err
		}
	}
	buf.Reset()
	tw := newTokenWriter(buf)
	defer tw.release()
	for depth := 0; ; {
		t, ok := c.tr.take()
		if !ok {
			if c.tr.err != nil {
				return c.tr.err
			}
			return corruptf("segment %s ends inside the subtree at offset %d", seg.file, e.offset)
		}
		tw.writeToken(t)
		switch t.op {
		case tokOpen:
			depth++
		case tokClose:
			depth--
		}
		if depth == 0 {
			break
		}
	}
	c.at = e.offset + e.size
	return tw.flush()
}

// memComparer is the planning pass's armed compare-tee: the bytes of one
// incoming child subtree are checked, as the scanner consumes them,
// against a fixed in-memory section. Any length or content difference
// flips mismatch; equality holds only when the section was consumed
// exactly.
type memComparer struct {
	want     []byte
	mismatch bool
}

func (c *memComparer) reset(b []byte) { c.want, c.mismatch = b, false }

func (c *memComparer) equal() bool { return !c.mismatch && len(c.want) == 0 }

func (c *memComparer) Write(p []byte) (int, error) {
	n := len(p)
	if c.mismatch {
		return n, nil
	}
	if len(p) > len(c.want) || !bytes.Equal(c.want[:len(p)], p) {
		c.mismatch = true
		return n, nil
	}
	c.want = c.want[len(p):]
	return n, nil
}

// ---------------------------------------------------------------------------
// Directory rebuild from segment files (corrupt keydir.idx fallback)

// rebuildDirectory reconstructs the segment and entry tables by reading
// exactly the segment files the meta backup lists for each root — never
// globbing the directory, so crash orphans lying on disk cannot be
// woven into the rebuilt archive — and re-deriving entries (offsets,
// sizes, timestamps) from the payload tokens. meta also supplies the
// root records, which the payloads cannot (a root's timestamp lives
// only in the directory).
func (ar *Archiver) rebuildDirectory(meta *keyDirectory) (*keyDirectory, error) {
	out := &keyDirectory{versions: meta.versions, rootTime: meta.rootTime}
	for _, r := range meta.roots {
		rec := &rootRecord{name: r.name, key: r.key, timeStr: r.timeStr, attrs: r.attrs, raw: r.raw}
		for _, skel := range r.segs {
			si, hname, hkey, err := scanSegment(ar.fs, filepath.Join(ar.dir, skel.file), ar.dict)
			if err != nil {
				return nil, fmt.Errorf("extmem: rebuild %s: %w", skel.file, err)
			}
			if si.raw != r.raw || hname != r.name || compareKeys(hkey, r.key) != 0 {
				return nil, fmt.Errorf("extmem: rebuild: segment %s belongs to root %s, not %s", skel.file, hname, r.name)
			}
			rec.segs = append(rec.segs, si.rec)
		}
		out.roots = append(out.roots, rec)
	}
	return out, nil
}

// scanSegment reads one segment file end to end: header, payload CRC,
// and the entry table re-derived from the payload tokens. It returns the
// record plus the root label from the header. Payloads are decompressed
// (when compressed) and scanned against the segment dictionary; entry
// offsets are always in uncompressed payload space.
func scanSegment(fs fsio.FS, path string, dict *dictionary) (*segInfoResult, string, *tkey, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, "", nil, err
	}
	defer f.Close()
	h, err := readSegmentHeader(f)
	if err != nil {
		return nil, "", nil, err
	}
	rec := &segmentRecord{
		file: filepath.Base(path), dataOff: h.dataOff,
		payload: h.payload, crc: h.crc,
		stored: h.stored, storedCRC: h.storedCRC, dictLen: h.dictLen,
	}
	var payload io.Reader
	var blk blockReader
	if h.compressed {
		blk.reset(f, h.dict, 0, h.payload, nil)
		payload = &blk
	} else {
		if _, err := f.Seek(h.dataOff, io.SeekStart); err != nil {
			return nil, "", nil, err
		}
		payload = io.LimitReader(f, h.payload)
	}
	crc := crc32.NewIEEE()
	body := io.TeeReader(payload, crc)
	res := &segInfoResult{rec: rec, raw: h.raw}
	if h.raw {
		if _, err := io.Copy(io.Discard, body); err != nil {
			return nil, "", nil, err
		}
	} else {
		entries, err := scanEntries(body, h.dict)
		if err != nil {
			return nil, "", nil, err
		}
		if len(entries) == 0 {
			return nil, "", nil, fmt.Errorf("segment has no entries")
		}
		for i := range entries {
			name, err := dict.name(entries[i].tag)
			if err != nil {
				return nil, "", nil, err
			}
			entries[i].name = name
		}
		rec.entries = entries
	}
	if crc.Sum32() != h.crc {
		return nil, "", nil, fmt.Errorf("payload checksum mismatch")
	}
	return res, h.rootName, h.rootKey, nil
}

type segInfoResult = struct {
	rec *segmentRecord
	raw bool
}

// scanEntries walks a non-raw segment payload, recording each top-level
// subtree's label, timestamp, offset and size (names resolved by the
// caller through the dictionary). dict is the segment's dictionary: the
// payload uses the interned grammar.
func scanEntries(r io.Reader, dict *segDict) ([]childEntry, error) {
	pr := &posReader{br: bufio.NewReaderSize(r, tokenBufSize), dict: dict}
	var entries []childEntry
	depth := 0
	for {
		start := pr.pos
		op, err := pr.byte()
		if err == io.EOF {
			if depth != 0 {
				return nil, fmt.Errorf("unbalanced segment payload")
			}
			return entries, nil
		}
		if err != nil {
			return nil, err
		}
		switch op {
		case tokOpen:
			if depth == 0 {
				tag, key, timeStr, err := pr.openPayload(true)
				if err != nil {
					return nil, err
				}
				entries = append(entries, childEntry{tag: tag, key: key, timeStr: timeStr, offset: start})
			} else {
				if _, _, _, err := pr.openPayload(false); err != nil {
					return nil, err
				}
			}
			depth++
		case tokClose:
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced segment payload")
			}
			if depth == 0 {
				entries[len(entries)-1].size = pr.pos - entries[len(entries)-1].offset
			}
		case tokText:
			if err := pr.skipStr(); err != nil {
				return nil, err
			}
		case tokTSOpen:
			if err := pr.tsPayload(); err != nil {
				return nil, err
			}
		case tokAttr:
			if err := pr.attrPayload(); err != nil {
				return nil, err
			}
		case tokTSClose:
		default:
			return nil, fmt.Errorf("unknown opcode %#x", op)
		}
	}
}

// posReader is a byte-position-tracking token scanner used by the
// directory rebuild and the merge planning pass, where exact payload
// offsets matter and the pooled lookahead reader cannot provide them.
// When sink is set, every consumed byte is forwarded to it — the
// planning pass arms it with a memComparer so scanning a subtree and
// comparing its bytes is one pass. With a nil dict the scanner reads the
// inline grammar of sorted version files; a segment's dictionary
// switches it to the interned grammar (keys, timestamps, and attribute
// values are varint ids), validating every id against the dictionary.
type posReader struct {
	br   *bufio.Reader
	pos  int64
	sink io.Writer
	dict *segDict
	one  [1]byte
}

func (p *posReader) byte() (byte, error) {
	b, err := p.br.ReadByte()
	if err == nil {
		p.pos++
		if p.sink != nil {
			p.one[0] = b
			if _, werr := p.sink.Write(p.one[:]); werr != nil {
				return b, werr
			}
		}
	}
	return b, err
}

// peekByte looks at the next opcode without consuming it; ok is false at
// end of stream.
func (p *posReader) peekByte() (byte, bool, error) {
	b, err := p.br.Peek(1)
	if err == io.EOF {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return b[0], true, nil
}

// skipBalanced consumes tokens until the opens and closes balance out at
// the given starting depth.
func (p *posReader) skipBalanced(depth int) error {
	for depth > 0 {
		op, err := p.byte()
		if err != nil {
			return err
		}
		switch op {
		case tokOpen:
			if _, _, _, err := p.openPayload(false); err != nil {
				return err
			}
			depth++
		case tokClose:
			depth--
		case tokText:
			if err := p.skipStr(); err != nil {
				return err
			}
		case tokTSOpen:
			if err := p.tsPayload(); err != nil {
				return err
			}
		case tokAttr:
			if err := p.attrPayload(); err != nil {
				return err
			}
		case tokTSClose:
		default:
			return fmt.Errorf("extmem: unknown opcode %#x", op)
		}
	}
	return nil
}

// tsPayload consumes a tokTSOpen payload: an interned timestamp id under
// the interned grammar, an inline string otherwise.
func (p *posReader) tsPayload() error {
	if p.dict == nil {
		return p.skipStr()
	}
	id, err := p.varint()
	if err != nil {
		return err
	}
	if id >= uint64(len(p.dict.times)) {
		return fmt.Errorf("dangling timestamp id %d (dictionary has %d)", id, len(p.dict.times))
	}
	return nil
}

// attrPayload consumes a tokAttr payload: name id plus interned value id
// or inline value string.
func (p *posReader) attrPayload() error {
	if _, err := p.varint(); err != nil {
		return err
	}
	if p.dict == nil {
		return p.skipStr()
	}
	id, err := p.varint()
	if err != nil {
		return err
	}
	if id >= uint64(len(p.dict.values)) {
		return fmt.Errorf("dangling value id %d (dictionary has %d)", id, len(p.dict.values))
	}
	return nil
}

func (p *posReader) varint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := p.byte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}

func (p *posReader) str() (string, error) {
	n, err := p.varint()
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(p.br, buf); err != nil {
		return "", err
	}
	p.pos += int64(n)
	if p.sink != nil {
		if _, err := p.sink.Write(buf); err != nil {
			return "", err
		}
	}
	return string(buf), nil
}

func (p *posReader) skipStr() error {
	n, err := p.varint()
	if err != nil {
		return err
	}
	dst := io.Discard
	if p.sink != nil {
		dst = p.sink
	}
	if _, err := io.CopyN(dst, p.br, int64(n)); err != nil {
		return err
	}
	p.pos += int64(n)
	return nil
}

// readFull reads exactly len(buf) bytes, tracking position and feeding
// the sink like every other consuming read.
func (p *posReader) readFull(buf []byte) error {
	if _, err := io.ReadFull(p.br, buf); err != nil {
		return err
	}
	p.pos += int64(len(buf))
	if p.sink != nil {
		if _, err := p.sink.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// openPayload consumes the payload of an open token (after its opcode).
// With capture, the key and timestamp are materialized — for the
// interned grammar they resolve to the dictionary's shared key tuple and
// interned timestamp string.
func (p *posReader) openPayload(capture bool) (tag int, key *tkey, timeStr string, err error) {
	t, err := p.varint()
	if err != nil {
		return 0, nil, "", err
	}
	flags, err := p.byte()
	if err != nil {
		return 0, nil, "", err
	}
	if p.dict != nil {
		if flags&flagHasKey != 0 {
			id, err := p.varint()
			if err != nil {
				return 0, nil, "", err
			}
			if id >= uint64(len(p.dict.keys)) {
				return 0, nil, "", fmt.Errorf("dangling key id %d (dictionary has %d)", id, len(p.dict.keys))
			}
			if capture {
				key = p.dict.key(int(id))
			}
		}
		if flags&flagHasTime != 0 {
			id, err := p.varint()
			if err != nil {
				return 0, nil, "", err
			}
			if id >= uint64(len(p.dict.times)) {
				return 0, nil, "", fmt.Errorf("dangling timestamp id %d (dictionary has %d)", id, len(p.dict.times))
			}
			if capture {
				timeStr = p.dict.times[id]
			}
		}
		return int(t), key, timeStr, nil
	}
	if flags&flagHasKey != 0 {
		n, err := p.varint()
		if err != nil {
			return 0, nil, "", err
		}
		if capture {
			key = &tkey{}
		}
		for i := uint64(0); i < n; i++ {
			if capture {
				kp, err := p.str()
				if err != nil {
					return 0, nil, "", err
				}
				kc, err := p.str()
				if err != nil {
					return 0, nil, "", err
				}
				key.paths = append(key.paths, kp)
				key.canon = append(key.canon, kc)
			} else {
				if err := p.skipStr(); err != nil {
					return 0, nil, "", err
				}
				if err := p.skipStr(); err != nil {
					return 0, nil, "", err
				}
			}
		}
	}
	if flags&flagHasTime != 0 {
		if capture {
			timeStr, err = p.str()
		} else {
			err = p.skipStr()
		}
		if err != nil {
			return 0, nil, "", err
		}
	}
	return int(t), key, timeStr, nil
}
