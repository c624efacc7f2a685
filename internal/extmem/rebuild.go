package extmem

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"xarch/internal/fsio"
	"xarch/internal/intervals"
)

// The one end-to-end reader of a segment file, and its two users: the
// verification of a file against its directory record (fsck, inspect) and
// the rebuild of a lost key directory from the files meta.txt lists.

// walkSegment reads one segment file end to end, once, and checks
// everything the file says about itself: the header, the payload against
// its CRC, every dictionary entry, every token — so a dangling interned id
// is corruption just like a bad checksum — and the postings section: its
// checksum, one posting per record, kid spans inside their record, and,
// with dict, each posting equal to the one captureEntryFacts derives from
// the record's tokens. It returns the header and, for a non-raw segment,
// the entry table re-derived from the payload tokens: labels, timestamps,
// offsets and sizes, names resolved through dict when one is given. With
// dict, every element and attribute name id of the payload must be in it.
// A fault of the postings alone is the header's postErr, not an error: the
// payload they describe stays readable, and the rebuild only needs that.
func walkSegment(fs fsio.FS, path string, dict *dictionary) (*segmentHeader, []childEntry, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("extmem: %w", err)
	}
	defer f.Close()
	h, payload, err := readSegmentHeader(f)
	if err != nil {
		return nil, nil, err
	}
	// The dictionary materializes lazily, so force every entry here: a
	// corrupt entry is a finding even when no token references it.
	if err := h.dict.validate(); err != nil {
		return nil, nil, err
	}
	crc := crc32.NewIEEE()
	tr := newTokenReaderDict(io.TeeReader(payload, crc), h.dict, 0)
	defer tr.release()
	entries, err := scanRecords(tr, h, dict)
	if err != nil {
		return nil, nil, err
	}
	if crc.Sum32() != h.crc {
		return nil, nil, corruptf("payload checksum mismatch")
	}
	return h, entries, nil
}

// scanRecords reads a payload to its end. A non-raw payload is a run of
// records, one per directory entry, and scanRecords returns the entry of
// each: its label (its name only when dict is given), timestamp, offset
// and size. A raw payload is one record, the root's subtree. Every record
// is held to its posting (checkPosting).
func scanRecords(tr *tokenReader, h *segmentHeader, dict *dictionary) ([]childEntry, error) {
	var entries []childEntry
	var toks []token // the record being read
	var offs []int64 // their payload offsets
	records, depth := 0, 0
	for {
		at := tr.pos
		t, ok := tr.take()
		if !ok {
			break
		}
		if err := checkNameID(dict, t, at); err != nil {
			return nil, err
		}
		if depth == 0 && t.op != tokOpen {
			return nil, corruptf("token at payload offset %d lies outside every record", at)
		}
		toks, offs = append(toks, t), append(offs, at)
		switch t.op {
		case tokOpen:
			if depth == 0 && !h.raw {
				e := childEntry{key: t.key, timeStr: t.data, offset: at}
				if dict != nil {
					e.name = dict.names[t.tag]
				}
				entries = append(entries, e)
			}
			depth++
		case tokClose:
			if depth--; depth > 0 {
				continue
			}
			if !h.raw {
				e := &entries[len(entries)-1]
				e.size = tr.pos - e.offset
			}
			if h.postErr == nil {
				h.postErr = checkPosting(h, records, toks, append(offs, tr.pos), dict)
			}
			records++
			toks, offs = toks[:0], offs[:0]
		}
	}
	switch {
	case tr.err != nil:
		return nil, tr.err
	case depth != 0:
		return nil, corruptf("unbalanced segment payload")
	case records == 0 || (h.raw && records != 1):
		return nil, corruptf("segment holds %d records", records)
	case h.postErr == nil && records != len(h.posts):
		h.postErr = corruptf("segment holds %d postings for %d records", len(h.posts), records)
	}
	return entries, nil
}

// checkPosting holds the posting of record i to the record: toks are its
// tokens and offs their payload offsets plus its end. Its kid spans must
// lie inside the record, and with dict, captureEntryFacts over the tokens
// must derive it byte for byte.
func checkPosting(h *segmentHeader, i int, toks []token, offs []int64, dict *dictionary) error {
	if i >= len(h.posts) {
		return corruptf("record %d has no posting", i)
	}
	p := h.posts[i]
	size := offs[len(offs)-1] - offs[0]
	for _, k := range p.kids {
		if k.off < 0 || k.size < 0 || k.off+k.size > size {
			return corruptf("record %d: kid %s span outside the record", i, k.name)
		}
	}
	if dict == nil {
		return nil
	}
	if !p.hasKids {
		offs = nil
	}
	at := 0
	got, err := captureEntryFacts(func() token { at++; return toks[at-1] }, len(toks), offs, dict)
	if err != nil {
		return corruptf("record %d: %v", i, err)
	}
	var want, derived kdWriter
	encodeIdxEntry(&want, p)
	encodeIdxEntry(&derived, got)
	if !bytes.Equal(want.b.Bytes(), derived.b.Bytes()) {
		return corruptf("record %d (%s): posting disagrees with its payload", i, keyLabel(dict.names[toks[0].tag], toks[0].key))
	}
	return nil
}

// checkNameID fails an element or attribute token whose name id dict does
// not hold — a dictionary that lost names — and passes everything when
// dict is nil.
func checkNameID(dict *dictionary, t token, at int64) error {
	if dict != nil && (t.op == tokOpen || t.op == tokAttr) && uint(t.tag) >= uint(len(dict.names)) {
		return corruptf("token at payload offset %d: name id %d outside the dictionary", at, t.tag)
	}
	return nil
}

// verifySegment checks a segment file of root r in directory d against
// itself (walkSegment) and against its directory record: the header's
// geometry and checksums, and the entry table — a directory whose offsets
// point anywhere but at the subtrees the payload holds is reported even
// though its own checksum is valid. Entry names are compared when dict is
// given. Each posting's facts must fit the directory too: change versions
// within 1..versions, attribute lifespans inside the record's.
func verifySegment(fs fsio.FS, path string, d *keyDirectory, r *rootRecord, sr *segmentRecord, dict *dictionary) error {
	h, entries, err := walkSegment(fs, path, dict)
	if err != nil {
		return fmt.Errorf("segment %s: %w", sr.file, err)
	}
	if h.payload != sr.payload || h.crc != sr.crc || h.dataOff != sr.dataOff || h.dictLen != sr.dictLen || h.postLen != sr.postLen {
		return corruptf("segment %s header disagrees with directory", sr.file)
	}
	if len(entries) != len(sr.entries) {
		return corruptf("segment %s holds %d entries, the directory lists %d", sr.file, len(entries), len(sr.entries))
	}
	for i := range entries {
		e, de := &entries[i], &sr.entries[i]
		if e.offset != de.offset || e.size != de.size || e.timeStr != de.timeStr ||
			(dict != nil && e.name != de.name) || (e.key == nil) != (de.key == nil) || compareKeys(e.key, de.key) != 0 {
			return corruptf("segment %s entry %d (%s) disagrees with directory entry %s at offset %d",
				sr.file, i, keyLabel(e.name, e.key), keyLabel(de.name, de.key), de.offset)
		}
	}
	if h.postErr != nil {
		return fmt.Errorf("segment %s: %w", sr.file, h.postErr)
	}
	rootEff := d.rootTime
	if r.time != nil {
		rootEff = r.time
	}
	if h.raw {
		return checkFacts(sr, "raw root "+keyLabel(r.name, r.key), h.posts[0], rootEff, d.versions)
	}
	for i := range entries {
		de := &sr.entries[i]
		if err := checkFacts(sr, "entry "+keyLabel(de.name, de.key), h.posts[i], entryEff(de, rootEff), d.versions); err != nil {
			return err
		}
	}
	return nil
}

// checkFacts holds the posting of one record of sr to the directory:
// explicit change versions within 1..versions, attribute lifespans inside
// the record's lifespan eff.
func checkFacts(sr *segmentRecord, what string, p *idxEntry, eff *intervals.Set, versions int) error {
	for _, c := range p.facts.Changes {
		if c.Explicit && (c.V < 1 || c.V > versions) {
			return corruptf("segment %s %s: change version %d outside 1..%d", sr.file, what, c.V, versions)
		}
	}
	for _, a := range p.facts.Attrs {
		if a.Time != nil && !a.Time.Minus(eff).Empty() {
			return corruptf("segment %s %s: attribute %s lifespan %s outside the record's %s", sr.file, what, a.Name, a.Time, eff)
		}
	}
	return nil
}

// rebuildDirectory reconstructs the segment and entry tables by reading
// exactly the segment files the meta backup lists for each root — never
// globbing the directory, so crash orphans lying on disk cannot be
// woven into the rebuilt archive — and re-deriving entries (offsets,
// sizes, timestamps) from the payload tokens, names through dict. meta
// also supplies the root records, which the payloads cannot (a root's
// timestamp lives only in the directory). Every timestamp is parsed here,
// once. It reads and writes nothing else.
func rebuildDirectory(fs fsio.FS, dir string, meta *keyDirectory, dict *dictionary) (*keyDirectory, error) {
	out := &keyDirectory{versions: meta.versions, rootTime: meta.rootTime}
	for _, r := range meta.roots {
		rec := &rootRecord{name: r.name, key: r.key, timeStr: r.timeStr, attrs: r.attrs, raw: r.raw}
		for _, skel := range r.segs {
			h, entries, err := walkSegment(fs, filepath.Join(dir, skel.file), dict)
			if err != nil {
				return nil, fmt.Errorf("extmem: rebuild %s: %w", skel.file, err)
			}
			if h.raw != r.raw || h.rootName != r.name || compareKeys(h.rootKey, r.key) != 0 {
				return nil, fmt.Errorf("extmem: rebuild: segment %s belongs to root %s, not %s", skel.file, h.rootName, r.name)
			}
			rec.segs = append(rec.segs, &segmentRecord{
				file: skel.file, dataOff: h.dataOff,
				payload: h.payload, crc: h.crc, dictLen: h.dictLen, postLen: h.postLen,
				entries: entries,
			})
		}
		out.roots = append(out.roots, rec)
	}
	if err := out.parseTimes(); err != nil {
		return nil, err
	}
	return out, nil
}
