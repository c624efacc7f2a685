package extmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strings"
	"sync"

	"xarch/internal/fsio"
	"xarch/internal/intervals"
	"xarch/internal/keyindex"
)

// The persistent key directory is the index of the segmented archive
// layout: the archive body lives in key-range-partitioned segment files
// (one contiguous run of top-level keyed subtrees each), and the
// directory maps every canonical key value at the top two levels to its
// location — (segment, byte offset, subtree size) — plus a version
// interval summary, so selective queries seek straight to the matching
// subtree and merges touch only the segments whose key ranges overlap
// the incoming version.
//
// The directory is immutable once committed: every AddVersion builds a
// fresh keyDirectory and installs it atomically (temp file + rename), so
// open query views keep reading the directory — and the segment files —
// they captured. keydir.idx carries a whole-file CRC32; a corrupt or
// truncated directory is detected at Open and rebuilt by scanning the
// segment files instead of failing the archive.

const (
	keydirFile   = "keydir.idx"
	keydirMagic  = "XKD1"
	keydirFormat = 3 // formats 1 and 2 are rejected with ErrLegacyFormat
)

// attrRec is one attribute of a non-raw top-level subtree. The directory
// holds it because no segment does: a version or an export writes the
// root's start tag from the record, and the merge checks a version's root
// attributes against it.
type attrRec struct {
	name  string
	value string
}

// childEntry locates one second-level subtree inside a segment payload.
// timeStr is the node's explicit timestamp exactly as carried by its open
// token ("" = inherited from the root's effective timestamp) — the
// version interval summary that lets merges and version projections skip
// the subtree without reading its bytes. time is the parsed form, set
// when the entry is created and nil exactly when timeStr is ""; it is
// shared by every reader of the generation and must not be mutated.
type childEntry struct {
	name    string
	key     *tkey
	timeStr string
	time    *intervals.Set // parsed timeStr; shared, read-only
	offset  int64          // within the segment payload
	size    int64
}

// segmentRecord describes one segment file: a contiguous key range of
// second-level subtrees (or, for a raw root, a verbatim slice of the
// root's whole subtree). The payload runs from dataOff to the end of the
// file, so replication can verify a transferred blob by its payload CRC
// without decoding it; the dictionary and postings sections end at
// dataOff, in that order.
type segmentRecord struct {
	file    string // base name within the archive directory
	dataOff int64  // payload start (after the header and its sections)
	payload int64  // payload bytes
	crc     uint32 // CRC32 (IEEE) of the payload
	dictLen int64  // dictionary section bytes
	postLen int64  // postings section bytes
	entries []childEntry

	identOnce sync.Once
	ident     []keyindex.Ident // idents(): derived on first query, index-aligned with entries

	// dict and posts are the segment's two sections: set by the writer, or
	// loaded on first use (Archiver.openSegment, Archiver.postings).
	dict  section[segDict]
	posts section[[]*idxEntry]
}

// firstLabel returns the label of the segment's first entry.
func (sr *segmentRecord) firstLabel() (string, *tkey) {
	e := &sr.entries[0]
	return e.name, e.key
}

// rootRecord describes one top-level subtree of the archive. For
// non-frontier roots the segments hold the children and this record the
// root's own name, key, timestamp and attributes; a raw root (the
// degenerate case of a frontier at depth 1) stores its whole subtree
// verbatim in one segment. A record is immutable once its directory is
// installed; the lazily built entry index (dirindex.go) is therefore
// shared by every query view of the generation.
type rootRecord struct {
	name    string
	key     *tkey
	timeStr string         // "" = inherited from the archive root timestamp
	time    *intervals.Set // parsed timeStr, nil exactly when it is ""; shared, read-only
	attrs   []attrRec
	raw     bool
	segs    []*segmentRecord

	idxOnce sync.Once
	idx     *keyindex.List // index(): built on first lookup
	cum     []int          // cum[i] = entries before segs[i]; len(segs)+1, set with idx

	identOnce sync.Once
	id        keyindex.Ident
}

// keyDirectory is one immutable snapshot of the segmented layout plus
// the archive-level metadata (version count, root timestamp).
type keyDirectory struct {
	versions   int
	rootTime   *intervals.Set
	roots      []*rootRecord
	encodedLen int // size of the persisted form; set at encode/decode
	// names is the dictionary name count the persisted form records: the
	// names the segments may reference, which dict.txt must hold. Set at
	// decode only.
	names int

	rootOnce sync.Once
	rootIdx  *keyindex.List // rootList(): built on first lookup
}

// files returns the set of segment files the directory references.
func (d *keyDirectory) files() map[string]bool {
	m := map[string]bool{}
	for _, r := range d.roots {
		for _, s := range r.segs {
			m[s.file] = true
		}
	}
	return m
}

// entryCount returns the number of child entries across all segments.
func (d *keyDirectory) entryCount() int {
	n := 0
	for _, r := range d.roots {
		n += r.entryCount()
	}
	return n
}

func (r *rootRecord) entryCount() int {
	n := 0
	for _, s := range r.segs {
		n += len(s.entries)
	}
	return n
}

// compareLabels orders two (tag name, key) labels exactly like the merge
// pipeline: name first, then the canonical key order.
func compareLabels(an string, ak *tkey, bn string, bk *tkey) int {
	if c := strings.Compare(an, bn); c != 0 {
		return c
	}
	return compareKeys(ak, bk)
}

// ---------------------------------------------------------------------------
// Binary encoding (keydir.idx)

type kdWriter struct {
	b bytes.Buffer
}

func (w *kdWriter) varint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.b.Write(buf[:n])
}

func (w *kdWriter) str(s string) {
	w.varint(uint64(len(s)))
	w.b.WriteString(s)
}

func (w *kdWriter) key(k *tkey) {
	if k == nil {
		w.b.WriteByte(0)
		return
	}
	w.b.WriteByte(1)
	w.varint(uint64(len(k.paths)))
	for i := range k.paths {
		w.str(k.paths[i])
		w.str(k.canon[i])
	}
}

// encode renders the directory, recording that the dictionary holds names
// names, with a trailing whole-file CRC32.
func (d *keyDirectory) encode(names int) []byte {
	var w kdWriter
	w.b.WriteString(keydirMagic)
	w.varint(keydirFormat)
	w.varint(uint64(d.versions))
	w.varint(uint64(names))
	w.str(d.rootTime.String())
	w.varint(uint64(len(d.roots)))
	for _, r := range d.roots {
		w.str(r.name)
		w.key(r.key)
		w.str(r.timeStr)
		w.varint(uint64(len(r.attrs)))
		for _, a := range r.attrs {
			w.str(a.name)
			w.str(a.value)
		}
		if r.raw {
			w.b.WriteByte(1)
		} else {
			w.b.WriteByte(0)
		}
		w.varint(uint64(len(r.segs)))
		for _, s := range r.segs {
			w.str(s.file)
			w.varint(uint64(s.dataOff))
			w.varint(uint64(s.payload))
			w.varint(uint64(s.crc))
			w.varint(uint64(s.dictLen))
			w.varint(uint64(s.postLen))
			w.varint(uint64(len(s.entries)))
			for i := range s.entries {
				e := &s.entries[i]
				w.str(e.name)
				w.key(e.key)
				w.str(e.timeStr)
				w.varint(uint64(e.offset))
				w.varint(uint64(e.size))
			}
		}
	}
	body := w.b.Bytes()
	sum := crc32.ChecksumIEEE(body)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	out := append(body, tail[:]...)
	// A published directory is re-encoded by Close beside readers of this
	// field, so store only what is not there yet.
	if d.encodedLen != len(out) {
		d.encodedLen = len(out)
	}
	return out
}

// kdReader decodes keydir.idx and a segment header's sections — bytes a
// replication peer supplies — over one string copy of the checked body:
// every decoded string is a substring of it (one allocation, none per
// field), and a length prefix is honoured only once it fits what remains.
type kdReader struct {
	s   string // the body, or what is left of it
	err error
}

func (r *kdReader) varint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for i := 0; i < len(r.s); i++ {
		b := r.s[i]
		if i == binary.MaxVarintLen64-1 && b > 1 {
			r.err = errors.New("varint overflows 64 bits")
			return 0
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			r.s = r.s[i+1:]
			return v
		}
	}
	r.err = io.ErrUnexpectedEOF
	return 0
}

func (r *kdReader) str() string {
	n := r.varint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.s)) {
		r.err = fmt.Errorf("string of %d bytes with %d bytes left", n, len(r.s))
		return ""
	}
	out := r.s[:n]
	r.s = r.s[n:]
	return out
}

func (r *kdReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.s) == 0 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	b := r.s[0]
	r.s = r.s[1:]
	return b
}

func (r *kdReader) key() *tkey {
	if r.byte() == 0 {
		return nil
	}
	k := &tkey{}
	n := r.varint()
	for i := uint64(0); i < n && r.err == nil; i++ {
		k.paths = append(k.paths, r.str())
		k.canon = append(k.canon, r.str())
	}
	return k
}

// decodeKeyDirectory parses keydir.idx bytes, verifying the CRC first.
// Whatever the bytes, it neither panics nor allocates beyond a small
// multiple of their length, and its error matches ErrCorruptArchive (or
// ErrLegacyFormat).
func decodeKeyDirectory(data []byte) (*keyDirectory, error) {
	if len(data) < len(keydirMagic)+4 {
		return nil, corruptf("key directory truncated")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, corruptf("key directory checksum mismatch")
	}
	if string(body[:len(keydirMagic)]) != keydirMagic {
		return nil, corruptf("key directory bad magic")
	}
	r := &kdReader{s: string(body[len(keydirMagic):])}
	switch format := r.varint(); {
	case r.err != nil:
		return nil, corruptf("key directory: %v", r.err)
	case format == 1:
		return nil, legacyf("format-1 key directory")
	case format == 2:
		return nil, format2f("format-2 key directory")
	case format != keydirFormat:
		return nil, corruptf("key directory format %d not supported", format)
	}
	d := &keyDirectory{}
	d.versions = int(r.varint())
	d.names = int(r.varint())
	ts, err := intervals.Parse(r.str())
	if err != nil {
		return nil, corruptf("key directory root timestamp: %v", err)
	}
	d.rootTime = ts
	nRoots := r.varint()
	for i := uint64(0); i < nRoots && r.err == nil; i++ {
		rr := &rootRecord{}
		rr.name = r.str()
		rr.key = r.key()
		rr.timeStr = r.str()
		nAttrs := r.varint()
		for j := uint64(0); j < nAttrs && r.err == nil; j++ {
			rr.attrs = append(rr.attrs, attrRec{name: r.str(), value: r.str()})
		}
		rr.raw = r.byte() != 0
		nSegs := r.varint()
		for j := uint64(0); j < nSegs && r.err == nil; j++ {
			s := &segmentRecord{}
			s.file = r.str()
			s.dataOff = int64(r.varint())
			s.payload = int64(r.varint())
			s.crc = uint32(r.varint())
			s.dictLen = int64(r.varint())
			s.postLen = int64(r.varint())
			nEnt := r.varint()
			for k := uint64(0); k < nEnt && r.err == nil; k++ {
				e := childEntry{}
				e.name = r.str()
				e.key = r.key()
				e.timeStr = r.str()
				e.offset = int64(r.varint())
				e.size = int64(r.varint())
				s.entries = append(s.entries, e)
			}
			rr.segs = append(rr.segs, s)
		}
		d.roots = append(d.roots, rr)
	}
	if r.err != nil {
		return nil, corruptf("key directory: %v", r.err)
	}
	if err := d.parseTimes(); err != nil {
		return nil, err
	}
	d.encodedLen = len(data)
	return d, nil
}

// parseTimes caches the parsed interval set of every explicit root and
// entry timestamp, so query resolution and merge planning over a
// committed directory never re-parse a timestamp string. The cached
// sets are shared by every reader of the generation: read-only.
func (d *keyDirectory) parseTimes() error {
	for _, rr := range d.roots {
		if rr.timeStr != "" {
			ts, err := intervals.Parse(rr.timeStr)
			if err != nil {
				return corruptf("key directory root timestamp: %v", err)
			}
			rr.time = ts
		}
		for _, s := range rr.segs {
			for i := range s.entries {
				e := &s.entries[i]
				if e.timeStr == "" {
					continue
				}
				ts, err := intervals.Parse(e.timeStr)
				if err != nil {
					return corruptf("key directory entry timestamp: %v", err)
				}
				e.time = ts
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// The staged commit

// StateFile is one file of a staged commit: its name in the directory and
// the bytes it is to hold.
type StateFile struct {
	Name string
	Data []byte
}

// CommitFiles replaces files in dir as one staged commit whose commit point
// is the last file's rename, paying for exactly what must be durable, in
// the order recovery relies on:
//
//  1. stage: every file is written under its ".tmp" name and fsynced, so
//     no rename below can expose bytes that are not on disk;
//  2. every file but the last takes its name;
//  3. barrier SyncDir: those names, and every name made in dir before the
//     call (new segment files), are durable before anything durable can
//     refer to them;
//  4. the last file takes its name — the commit point;
//  5. ack SyncDir: the commit is durable before the caller hears of it.
//
// A failed create or write is an ordinary error; a failed fsync, close,
// rename or SyncDir is a commit fault: after one of those the state of the
// page cache is unknowable, so the caller must poison the writer rather
// than silently retry (the fsyncgate lesson). On failure the staged files
// not yet renamed are removed, best effort; whatever a dead disk keeps,
// Open sweeps.
func CommitFiles(fs fsio.FS, dir string, files []StateFile) (err error) {
	staged, renamed := 0, 0
	defer func() {
		if err != nil {
			for _, f := range files[renamed:staged] {
				fs.Remove(filepath.Join(dir, f.Name+".tmp"))
			}
		}
	}()
	for _, f := range files {
		staged++ // before the create: a failed stage is removed too
		tmp, err := fs.Create(filepath.Join(dir, f.Name+".tmp"))
		if err != nil {
			return fmt.Errorf("extmem: %w", err)
		}
		if _, err := tmp.Write(f.Data); err != nil {
			tmp.Close()
			return fmt.Errorf("extmem: %w", err)
		}
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return commitFaultf("fsync "+f.Name+".tmp", err)
		}
		if err := tmp.Close(); err != nil {
			return commitFaultf("close "+f.Name+".tmp", err)
		}
	}
	syncDir := func() error {
		if err := fs.SyncDir(dir); err != nil {
			return commitFaultf("fsync dir", err)
		}
		return nil
	}
	for i, f := range files {
		if i == len(files)-1 {
			if err := syncDir(); err != nil { // the barrier
				return err
			}
		}
		path := filepath.Join(dir, f.Name)
		if err := fs.Rename(path+".tmp", path); err != nil {
			return commitFaultf("rename "+f.Name, err)
		}
		renamed++
	}
	return syncDir() // the ack
}

// ---------------------------------------------------------------------------
// meta.txt (text, format 2) — versions, root timestamp and the root
// records including each root's ordered segment file list. The records
// are duplicated here (they are tiny) so a corrupt key directory can be
// rebuilt from meta + exactly the committed segment files: crash
// orphans lying around on disk are never consulted.

// encodeMeta renders meta.txt format 2.
func encodeMeta(d *keyDirectory) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "xarch-ext 2\nversions %d\nroottime %q\nroots %d\n",
		d.versions, d.rootTime.String(), len(d.roots))
	for _, r := range d.roots {
		hasKey, nk := 0, 0
		if r.key != nil {
			hasKey, nk = 1, len(r.key.paths)
		}
		raw := 0
		if r.raw {
			raw = 1
		}
		fmt.Fprintf(&b, "root %q %q %d %d %d %d %d\n", r.name, r.timeStr, hasKey, nk, len(r.attrs), raw, len(r.segs))
		if r.key != nil {
			for i := range r.key.paths {
				fmt.Fprintf(&b, "kp %q %q\n", r.key.paths[i], r.key.canon[i])
			}
		}
		for _, a := range r.attrs {
			fmt.Fprintf(&b, "attr %q %q\n", a.name, a.value)
		}
		for _, s := range r.segs {
			fmt.Fprintf(&b, "seg %q\n", s.file)
		}
	}
	return []byte(b.String())
}

// parseMetaV2 parses meta.txt format 2 into a directory skeleton:
// version count, root timestamp, and root records whose segments carry
// file names only (the rebuild fills in the rest from the files).
func parseMetaV2(r io.Reader) (*keyDirectory, error) {
	d := &keyDirectory{}
	var format int
	if _, err := fmt.Fscanf(r, "xarch-ext %d\n", &format); err != nil {
		return nil, fmt.Errorf("extmem: corrupt meta: %w", err)
	}
	if format != 2 {
		return nil, fmt.Errorf("extmem: meta format %d not supported", format)
	}
	var timeStr string
	var nRoots int
	if _, err := fmt.Fscanf(r, "versions %d\nroottime %q\nroots %d\n", &d.versions, &timeStr, &nRoots); err != nil {
		return nil, fmt.Errorf("extmem: corrupt meta: %w", err)
	}
	ts, err := intervals.Parse(timeStr)
	if err != nil {
		return nil, fmt.Errorf("extmem: corrupt meta timestamp: %w", err)
	}
	d.rootTime = ts
	for i := 0; i < nRoots; i++ {
		rr := &rootRecord{}
		var hasKey, nk, nAttrs, raw, nSegs int
		if _, err := fmt.Fscanf(r, "root %q %q %d %d %d %d %d\n", &rr.name, &rr.timeStr, &hasKey, &nk, &nAttrs, &raw, &nSegs); err != nil {
			return nil, fmt.Errorf("extmem: corrupt meta root: %w", err)
		}
		rr.raw = raw != 0
		if hasKey != 0 {
			rr.key = &tkey{}
			for j := 0; j < nk; j++ {
				var p, c string
				if _, err := fmt.Fscanf(r, "kp %q %q\n", &p, &c); err != nil {
					return nil, fmt.Errorf("extmem: corrupt meta key path: %w", err)
				}
				rr.key.paths = append(rr.key.paths, p)
				rr.key.canon = append(rr.key.canon, c)
			}
		}
		for j := 0; j < nAttrs; j++ {
			var n, v string
			if _, err := fmt.Fscanf(r, "attr %q %q\n", &n, &v); err != nil {
				return nil, fmt.Errorf("extmem: corrupt meta attr: %w", err)
			}
			rr.attrs = append(rr.attrs, attrRec{name: n, value: v})
		}
		for j := 0; j < nSegs; j++ {
			var f string
			if _, err := fmt.Fscanf(r, "seg %q\n", &f); err != nil {
				return nil, fmt.Errorf("extmem: corrupt meta segment list: %w", err)
			}
			rr.segs = append(rr.segs, &segmentRecord{file: f})
		}
		d.roots = append(d.roots, rr)
	}
	return d, nil
}
