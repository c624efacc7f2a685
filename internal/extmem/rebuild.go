package extmem

import (
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"xarch/internal/fsio"
)

// The one end-to-end reader of a segment file, and its two users: the
// verification of a file against its directory record (fsck, inspect) and
// the rebuild of a lost key directory from the files meta.txt lists.

// walkSegment reads one segment file end to end, once, and checks
// everything the file says about itself: the header, the payload against
// its CRC, every dictionary entry, and every token — so a dangling
// interned id is corruption just like a bad checksum. It returns the header
// and, for a non-raw segment, the entry table re-derived from the payload
// tokens: labels, timestamps, offsets and sizes, names resolved through
// dict when one is given. With dict, every element and attribute name id of
// the payload must be in it.
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
	var entries []childEntry
	if h.raw {
		// A verbatim slice of the root's subtree: tokens, no entries.
		for err == nil {
			at := tr.pos
			t, ok := tr.take()
			if !ok {
				err = tr.err
				break
			}
			err = checkNameID(dict, t, at)
		}
	} else if entries, err = scanEntries(tr, dict); err == nil && len(entries) == 0 {
		err = corruptf("segment has no entries")
	}
	if err != nil {
		return nil, nil, err
	}
	if crc.Sum32() != h.crc {
		return nil, nil, corruptf("payload checksum mismatch")
	}
	return h, entries, nil
}

// scanEntries reads a payload to its end, recording each top-level
// subtree's label (its name only when dict is given), timestamp, offset
// and size.
func scanEntries(tr *tokenReader, dict *dictionary) ([]childEntry, error) {
	var entries []childEntry
	depth := 0
	for {
		at := tr.pos
		t, ok := tr.take()
		if !ok {
			break
		}
		if err := checkNameID(dict, t, at); err != nil {
			return nil, err
		}
		switch t.op {
		case tokOpen:
			if depth == 0 {
				e := childEntry{key: t.key, timeStr: t.data, offset: at}
				if dict != nil {
					e.name = dict.names[t.tag]
				}
				entries = append(entries, e)
			}
			depth++
		case tokClose:
			depth--
			if depth < 0 {
				return nil, corruptf("unbalanced segment payload")
			}
			if depth == 0 {
				e := &entries[len(entries)-1]
				e.size = tr.pos - e.offset
			}
		}
	}
	if tr.err != nil {
		return nil, tr.err
	}
	if depth != 0 {
		return nil, corruptf("unbalanced segment payload")
	}
	return entries, nil
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

// verifySegment checks a segment file against itself (walkSegment) and
// against its directory record: the header's geometry and checksums, and
// the entry table — a directory whose offsets point anywhere but at the
// subtrees the payload holds is reported even though its own checksum is
// valid. Entry names are compared when dict is given.
func verifySegment(fs fsio.FS, path string, sr *segmentRecord, dict *dictionary) error {
	h, entries, err := walkSegment(fs, path, dict)
	if err != nil {
		return fmt.Errorf("segment %s: %w", sr.file, err)
	}
	if h.payload != sr.payload || h.crc != sr.crc || h.dataOff != sr.dataOff || h.dictLen != sr.dictLen {
		return corruptf("segment %s header disagrees with directory", sr.file)
	}
	if h.raw {
		return nil
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
	return nil
}

// rebuildDirectory reconstructs the segment and entry tables by reading
// exactly the segment files the meta backup lists for each root — never
// globbing the directory, so crash orphans lying on disk cannot be
// woven into the rebuilt archive — and re-deriving entries (offsets,
// sizes, timestamps) from the payload tokens. meta also supplies the
// root records, which the payloads cannot (a root's timestamp lives
// only in the directory). Every timestamp is parsed here, once.
func (ar *Archiver) rebuildDirectory(meta *keyDirectory) (*keyDirectory, error) {
	out := &keyDirectory{versions: meta.versions, rootTime: meta.rootTime}
	for _, r := range meta.roots {
		rec := &rootRecord{name: r.name, key: r.key, timeStr: r.timeStr, attrs: r.attrs, raw: r.raw}
		for _, skel := range r.segs {
			h, entries, err := walkSegment(ar.fs, filepath.Join(ar.dir, skel.file), ar.dict)
			if err != nil {
				return nil, fmt.Errorf("extmem: rebuild %s: %w", skel.file, err)
			}
			if h.raw != r.raw || h.rootName != r.name || compareKeys(h.rootKey, r.key) != 0 {
				return nil, fmt.Errorf("extmem: rebuild: segment %s belongs to root %s, not %s", skel.file, h.rootName, r.name)
			}
			rec.segs = append(rec.segs, &segmentRecord{
				file: skel.file, dataOff: h.dataOff,
				payload: h.payload, crc: h.crc, dictLen: h.dictLen,
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
