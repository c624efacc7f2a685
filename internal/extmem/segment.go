package extmem

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"

	"xarch/internal/fsio"
	"xarch/internal/intervals"
)

// Segment files hold the archive body. Each file starts with a versioned
// header (magic, format, flags, payload length, payload CRC32, and the
// owning root's immutable label) followed by the payload: a contiguous
// run of second-level subtree token streams, or — for a raw root — a
// verbatim slice of the root's whole subtree. The root label in the
// header lets a directory rebuild cross-check that each file meta.txt
// lists really belongs to the root it is listed under.
//
// Segment files are never modified in place: rewrites produce fresh
// files (monotonic ids) and the key directory rename is the commit
// point, so a crash leaves either layout intact and at worst some
// orphan files, which Open garbage-collects.

const (
	segMagic = "XSG1"
	// segFormatV2 is the one segment format: interned per-segment
	// dictionary (see segdict.go). The pre-dictionary format 1 is
	// rejected with ErrLegacyFormat.
	segFormatV2 = 2
)

const (
	segFlagRaw = 0x01
	// segFlagCompressed marked a payload stored as deflated blocks. No
	// build writes it any more; a header carrying it is ErrLegacyFormat.
	segFlagCompressed = 0x02
)

// segmentHeader is the decoded fixed+variable header of one segment
// file: the payload length and CRC, the root label, and past it the
// dictionary section.
type segmentHeader struct {
	raw      bool
	payload  int64
	crc      uint32
	rootName string
	rootKey  *tkey
	dataOff  int64
	dictLen  int64
	dict     *segDict
}

// fixedOff is the offset of the payload-length/CRC fields in the header.
const segFixedOff = len(segMagic) + 2

// segmentLegacy reports the legacy encoding a segment file's first bytes
// (magic, format, flags) name, if any: format 1, or block compression.
func segmentLegacy(head []byte) error {
	if len(head) < segFixedOff || string(head[:len(segMagic)]) != segMagic {
		return nil
	}
	switch {
	case head[len(segMagic)] == 1:
		return legacyf("format-1 segment header")
	case head[len(segMagic)+1]&segFlagCompressed != 0:
		return compressedf("segment")
	}
	return nil
}

// checkSegmentEncoding reads the first bytes of the segment file at path
// and reports the legacy encoding they name, if any. A file too short or
// unreadable to say is left to the readers that need its bytes.
func checkSegmentEncoding(fs fsio.FS, path string) error {
	f, err := fs.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	head := make([]byte, segFixedOff)
	if _, err := io.ReadFull(f, head); err != nil {
		return nil
	}
	if err := segmentLegacy(head); err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return nil
}

// readSegmentHeader parses the header at the start of f. The variable
// tail is read through a counted buffer, so arbitrarily large root keys
// parse back exactly as written and the payload offset falls out. Segment
// files arrive from replication peers, so every length prefix that
// sizes an allocation is checked against the file's size first: a
// hostile header fails with ErrCorruptArchive instead of panicking or
// allocating beyond the bytes actually supplied. The returned reader
// serves the payload on from where the header ends, so a caller reading
// the whole file reads each byte once.
func readSegmentHeader(f io.ReadSeeker) (*segmentHeader, io.Reader, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, nil, fmt.Errorf("extmem: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("extmem: %w", err)
	}
	fixed := make([]byte, segFixedOff+12)
	if _, err := io.ReadFull(f, fixed); err != nil {
		return nil, nil, fmt.Errorf("extmem: not a segment file: %w", err)
	}
	if string(fixed[:len(segMagic)]) != segMagic {
		return nil, nil, fmt.Errorf("extmem: not a segment file")
	}
	if err := segmentLegacy(fixed); err != nil {
		return nil, nil, err
	}
	if format := fixed[len(segMagic)]; format != segFormatV2 {
		return nil, nil, fmt.Errorf("extmem: segment format %d not supported", format)
	}
	h := &segmentHeader{raw: fixed[len(segMagic)+1]&segFlagRaw != 0}
	h.payload = int64(binary.LittleEndian.Uint64(fixed[segFixedOff : segFixedOff+8]))
	h.crc = binary.LittleEndian.Uint32(fixed[segFixedOff+8 : segFixedOff+12])
	if h.payload < 0 {
		return nil, nil, corruptf("segment header: payload length out of range")
	}
	in := &offsetReader{r: f, n: int64(len(fixed))}
	br := bufio.NewReaderSize(in, 4096)
	// sized reads a length prefix that is about to size an allocation.
	sized := func(what string) (uint64, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("extmem: segment header: %w", err)
		}
		if n > uint64(size) {
			return 0, corruptf("segment header: %s %d exceeds the %d-byte file", what, n, size)
		}
		return n, nil
	}
	str := func() (string, error) {
		n, err := sized("string length")
		if err != nil {
			return "", err
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", fmt.Errorf("extmem: segment header: %w", err)
		}
		return string(buf), nil
	}
	if h.rootName, err = str(); err != nil {
		return nil, nil, err
	}
	hasKey, err := br.ReadByte()
	if err != nil {
		return nil, nil, fmt.Errorf("extmem: segment header: %w", err)
	}
	if hasKey != 0 {
		k := &tkey{}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("extmem: segment header: %w", err)
		}
		for i := uint64(0); i < n; i++ {
			kp, err := str()
			if err != nil {
				return nil, nil, err
			}
			kc, err := str()
			if err != nil {
				return nil, nil, err
			}
			k.paths = append(k.paths, kp)
			k.canon = append(k.canon, kc)
		}
		h.rootKey = k
	}
	// The stored-payload slots (length, CRC, block length) repeat the
	// payload's since the one encoding; anything else is damage, as the
	// compression flag was checked above.
	var slots [4]byte
	stored, err := binary.ReadUvarint(br)
	if err == nil {
		_, err = io.ReadFull(br, slots[:])
	}
	var blockLen uint64
	if err == nil {
		blockLen, err = binary.ReadUvarint(br)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("extmem: segment header: %w", err)
	}
	if stored != uint64(h.payload) || binary.LittleEndian.Uint32(slots[:]) != h.crc || blockLen != 0 {
		return nil, nil, corruptf("segment header: stored payload slots disagree with the payload")
	}
	dictLen, err := sized("dictionary length")
	if err != nil {
		return nil, nil, err
	}
	h.dictLen = int64(dictLen)
	dictBytes := make([]byte, dictLen)
	if _, err := io.ReadFull(br, dictBytes); err != nil {
		return nil, nil, fmt.Errorf("extmem: segment dictionary: %w", err)
	}
	dict, err := decodeSegDict(dictBytes)
	if err != nil {
		return nil, nil, err
	}
	h.dataOff = in.n - int64(br.Buffered())
	h.dict = dict
	return h, io.LimitReader(br, h.payload), nil
}

// ---------------------------------------------------------------------------
// Segment writing

// segmentSetWriter collects merged subtrees into a sequence of segment
// files, rolling to a fresh file whenever the current payload passes the
// target size at a child boundary, and recording one directory entry per
// child. The current file's tokens are buffered in out (the dictionary
// needs the whole population before ids exist), then encoded and written
// in one pass at closeCurrent; no file exists until then. out is stable
// across rolls, so a merge can keep one output handle for the whole pass.
// out and enc are the archiver's (Archiver.segOut): one writer is in use
// at a time, from newSegmentSetWriter to finish.
//
// When the caller knows the total payload it will write (the compactor
// does), planned/minTail arm tail absorption: a roll is suppressed when
// the bytes still to come would leave a final file smaller than minTail,
// so repacking can never end in a fresh undersized tail.
type segmentSetWriter struct {
	ar     *Archiver
	root   *rootRecord
	raw    bool
	target int64

	planned int64 // total payload the caller will write; 0 = unknown
	minTail int64 // smallest acceptable final file under planned
	written int64 // payload completed in already-closed files

	// out is where the merge pipeline emits tokens.
	out       *captureWriter
	enc       *segEncoder
	marks     []entryMark
	markStart int

	cur      *segmentRecord
	pending  childEntry
	emit     func(*segmentRecord)
	onCreate func(name string)
	err      error
}

// newSegmentSetWriter returns a writer emitting completed segment
// records through emit (in output order, so reused segments can be
// interleaved by the caller). onCreate fires as soon as a file exists on
// disk — before it is complete — so failed merges can remove every file
// they created, not only the finished ones.
func newSegmentSetWriter(ar *Archiver, root *rootRecord, raw bool, emit func(*segmentRecord), onCreate func(name string)) *segmentSetWriter {
	if ar.segEnc == nil {
		ar.segEnc = newSegEncoder()
	}
	sw := &segmentSetWriter{
		ar: ar, root: root, raw: raw, target: int64(ar.cfg.SegmentTarget),
		out: &ar.segOut, enc: ar.segEnc,
		emit: emit, onCreate: onCreate,
	}
	sw.out.reset()
	sw.enc.wantOffs = !raw && !ar.cfg.NoAttrIndex
	return sw
}

func (sw *segmentSetWriter) fail(err error) {
	if sw.err == nil {
		sw.err = err
	}
}

// open starts a fresh segment: only the capture buffer restarts — the
// file (and its name) appears at closeCurrent, written complete in one
// pass.
func (sw *segmentSetWriter) open() {
	if sw.err != nil {
		return
	}
	sw.out.reset()
	sw.marks = sw.marks[:0]
	sw.cur = &segmentRecord{}
}

// closeCurrent encodes the captured tokens (dictionary, payload) and
// writes them as a complete file. Until here
// nothing of this segment exists on disk, so an encode or create failure
// leaves no file to clean up. A failed segment fsync or close is
// durability-critical: the file may be referenced by the directory about
// to be committed while its pages were silently dropped (fsyncgate), so
// it must poison the writer rather than be retried.
func (sw *segmentSetWriter) closeCurrent() {
	rec := sw.cur
	sw.cur = nil
	if rec == nil || sw.err != nil {
		return
	}
	res, err := sw.enc.encode(sw.raw, sw.root.name, sw.root.key, sw.out.toks, sw.marks)
	if err != nil {
		sw.fail(err)
		return
	}
	for i := range rec.entries {
		rec.entries[i].offset = res.offs[i].off
		rec.entries[i].size = res.offs[i].size
	}
	rec.dataOff = int64(len(res.head))
	rec.payload = int64(len(res.pay))
	rec.crc = res.crc
	rec.dictLen = res.dictLen
	name := fmt.Sprintf("seg-%08d.tok", sw.ar.nextSeg)
	sw.ar.nextSeg++
	rec.file = name
	f, err := sw.ar.fs.Create(filepath.Join(sw.ar.dir, name))
	if err != nil {
		sw.fail(fmt.Errorf("extmem: create segment: %w", err))
		return
	}
	if sw.onCreate != nil {
		sw.onCreate(name)
	}
	if _, err := f.Write(res.head); err != nil {
		f.Close()
		sw.fail(fmt.Errorf("extmem: %w", err))
		return
	}
	if _, err := f.Write(res.pay); err != nil {
		f.Close()
		sw.fail(fmt.Errorf("extmem: %w", err))
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		sw.fail(commitFaultf("fsync segment "+name, err))
		return
	}
	if err := f.Close(); err != nil {
		sw.fail(commitFaultf("close segment "+name, err))
		return
	}
	sw.written += rec.payload
	sw.captureIdx(rec, res)
	sw.emit(rec)
}

// beginChild notes the subtree about to be written, stamped timeStr; eff is
// the set the caller holds for it, the node's effective timestamp, kept as
// the entry's parsed time when the stamp is explicit. The entry is
// completed by endChild. For raw roots the entry metadata is ignored.
func (sw *segmentSetWriter) beginChild(name string, tag int, key *tkey, timeStr string, eff *intervals.Set) {
	if sw.err != nil {
		return
	}
	if sw.cur == nil {
		sw.open()
	}
	sw.markStart = len(sw.out.toks)
	sw.pending = childEntry{name: name, tag: tag, key: key, timeStr: timeStr}
	if timeStr != "" {
		sw.pending.time = eff
	}
}

// endChild completes the pending entry and rolls the file when the
// estimated payload passed the target size — unless the caller declared
// its total payload and the remainder would land in a file smaller than
// minTail.
func (sw *segmentSetWriter) endChild() {
	if sw.err != nil || sw.cur == nil {
		return
	}
	sw.marks = append(sw.marks, entryMark{start: sw.markStart, end: len(sw.out.toks)})
	sw.cur.entries = append(sw.cur.entries, sw.pending)
	if n := sw.out.est; n >= sw.target {
		if sw.planned > 0 && sw.planned-(sw.written+n) < sw.minTail {
			return // absorb the tail instead of rolling a tiny file
		}
		sw.closeCurrent()
	}
}

// finish closes any open file and lets go of the last segment's tokens.
func (sw *segmentSetWriter) finish() error {
	sw.closeCurrent()
	sw.out.reset()
	return sw.err
}

// ---------------------------------------------------------------------------
// Reading: the concatenated archive stream and per-entry sections

// streamPart is one piece of a dirStream: either literal bytes
// (synthesized tokens) or a byte range of a segment payload.
type streamPart struct {
	data []byte
	seg  *segmentRecord
	off  int64
	n    int64
}

// dirStream serves the segmented archive as a sequence of token-aligned
// parts — logically one contiguous token stream, but handed out part by
// part so the token reader can switch each part's segment dictionary in
// (literal parts use the inline grammar). At most one segment file is
// open at a time; the bytes read from disk are counted into the
// archiver's telemetry.
type dirStream struct {
	fs      fsio.FS
	dir     string
	parts   []streamPart
	dicts   *dictCache // resolves segment dictionaries
	i       int
	f       fsio.File      // the open file of seg, if any
	seg     *segmentRecord // the segment the last segment part read
	counter *atomic.Int64

	lit bytes.Reader
	cnt countReader
	sec partReader
}

// partReader serves one section of an open segment file's payload,
// turning a premature end of file into an explicit truncation error.
type partReader struct {
	f   fsio.File
	rem int64
	c   *atomic.Int64
}

// aim points the reader at bytes [off, off+n) of seg's payload in its
// open file f. Bytes read are added to c.
func (pr *partReader) aim(f fsio.File, seg *segmentRecord, off, n int64, c *atomic.Int64) error {
	if _, err := f.Seek(seg.dataOff+off, io.SeekStart); err != nil {
		return fmt.Errorf("extmem: %w", err)
	}
	*pr = partReader{f: f, rem: n, c: c}
	return nil
}

func (pr *partReader) Read(p []byte) (int, error) {
	if pr.rem <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > pr.rem {
		p = p[:pr.rem]
	}
	n, err := pr.f.Read(p)
	pr.rem -= int64(n)
	if pr.c != nil && n > 0 {
		pr.c.Add(int64(n))
	}
	if err == io.EOF && pr.rem > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// nextPart opens the next part, returning its reader and segment
// dictionary (nil for literal parts, which use the inline grammar). A part
// of the segment the part before it read keeps that segment's open file.
// A nil reader with nil error means the stream is exhausted.
func (s *dirStream) nextPart() (io.Reader, *segDict, error) {
	if s.i >= len(s.parts) {
		s.closeFile()
		return nil, nil, nil
	}
	part := &s.parts[s.i]
	s.i++
	if part.seg == nil {
		s.lit.Reset(part.data)
		s.cnt = countReader{r: &s.lit, c: s.counter}
		return &s.cnt, nil, nil
	}
	seg := part.seg
	if s.f == nil || s.seg != seg {
		s.closeFile()
		f, err := s.openPart(filepath.Join(s.dir, seg.file))
		if err != nil {
			return nil, nil, fmt.Errorf("extmem: %w", err)
		}
		s.f, s.seg = f, seg
	}
	dict, err := s.dicts.get(seg)
	if err != nil {
		s.closeFile()
		return nil, nil, err
	}
	if err := s.sec.aim(s.f, seg, part.off, part.n, s.counter); err != nil {
		s.closeFile()
		return nil, nil, err
	}
	return &s.sec, dict, nil
}

// openPart opens one segment file through the stream's FS; a stream
// built without one (tests, ad-hoc scans) falls back to the plain OS.
func (s *dirStream) openPart(path string) (fsio.File, error) {
	fs := s.fs
	if fs == nil {
		fs = fsio.OS
	}
	return fs.Open(path)
}

// Close releases the stream's open file, if any.
func (s *dirStream) Close() error {
	s.closeFile()
	s.i = len(s.parts)
	return nil
}

func (s *dirStream) closeFile() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// synthRootPrefix renders the open token (with key and timestamp) and
// attribute tokens of a non-raw root in the inline grammar.
func synthRootPrefix(r *rootRecord) []byte {
	var b bytes.Buffer
	tw := newTokenWriter(&b)
	tw.open(r.tag, r.key, r.timeStr)
	for _, a := range r.attrs {
		tw.attr(a.tag, a.value)
	}
	tw.flush()
	tw.release()
	return b.Bytes()
}

// archiveParts lays out the whole archive as stream parts.
func archiveParts(d *keyDirectory) []streamPart {
	var parts []streamPart
	for _, r := range d.roots {
		parts = append(parts, rootParts(r)...)
	}
	return parts
}

// rootParts lays out one root subtree as stream parts. Offsets are in
// payload space; the stream resolves them to file offsets.
func rootParts(r *rootRecord) []streamPart {
	var parts []streamPart
	if r.raw {
		for _, s := range r.segs {
			parts = append(parts, streamPart{seg: s, off: 0, n: s.payload})
		}
		return parts
	}
	parts = append(parts, streamPart{data: synthRootPrefix(r)})
	for _, s := range r.segs {
		parts = append(parts, streamPart{seg: s, off: 0, n: s.payload})
	}
	parts = append(parts, streamPart{data: []byte{tokClose}})
	return parts
}

// entryParts lays out one second-level subtree as stream parts.
func entryParts(s *segmentRecord, e *childEntry) []streamPart {
	return []streamPart{{seg: s, off: e.offset, n: e.size}}
}
