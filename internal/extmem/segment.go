package extmem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"

	"xarch/internal/fsio"
	"xarch/internal/intervals"
)

// Segment files hold the archive body. Each file starts with a versioned
// header (magic, format, flags, payload length, payload CRC32, and the
// owning root's immutable label), then the dictionary section and the
// postings section, then the payload: a contiguous run of second-level
// subtree token streams, or — for a raw root — a verbatim slice of the
// root's whole subtree. The root label in the header lets a directory
// rebuild cross-check that each file meta.txt lists really belongs to the
// root it is listed under; the postings (postings.go) index the records
// the payload holds.
//
// Segment files are never modified in place: rewrites produce fresh
// files (monotonic ids) and the key directory rename is the commit
// point, so a crash leaves either layout intact and at worst some
// orphan files, which Open garbage-collects.

const (
	segMagic = "XSG1"
	// segFormat is the one segment format: interned per-segment dictionary
	// (see segdict.go) and postings section. Formats 1 and 2 are rejected
	// with ErrLegacyFormat.
	segFormat = 3
)

const (
	segFlagRaw = 0x01
	// segFlagCompressed marked a payload stored as deflated blocks. No
	// build writes it any more; a header carrying it is ErrLegacyFormat.
	segFlagCompressed = 0x02
)

// segmentHeader is the decoded fixed+variable header of one segment
// file: the payload length and CRC, the root label, and past it the
// dictionary and postings sections.
type segmentHeader struct {
	raw      bool
	payload  int64
	crc      uint32
	rootName string
	rootKey  *tkey
	dataOff  int64
	dictLen  int64
	postLen  int64
	dict     *segDict
	posts    []*idxEntry
	postErr  error // the postings section's damage; the payload stays readable
}

// fixedOff is the offset of the payload-length/CRC fields in the header.
const segFixedOff = len(segMagic) + 2

// segmentLegacy reports the legacy encoding a segment file's first bytes
// (magic, format, flags) name, if any: format 1, block compression, or
// format 2 (postings in a file of their own).
func segmentLegacy(head []byte) error {
	if len(head) < segFixedOff || string(head[:len(segMagic)]) != segMagic {
		return nil
	}
	switch {
	case head[len(segMagic)] == 1:
		return legacyf("format-1 segment header")
	case head[len(segMagic)+1]&segFlagCompressed != 0:
		return compressedf("segment")
	case head[len(segMagic)] == 2:
		return format2f("format-2 segment")
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
// allocating beyond the bytes actually supplied. Bytes that end early or
// do not parse are a corrupt segment; a read that fails is reported as
// itself. The returned reader serves the payload on from where the header
// ends, so a caller reading the whole file reads each byte once.
func readSegmentHeader(f io.ReadSeeker) (*segmentHeader, io.Reader, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, nil, fmt.Errorf("extmem: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("extmem: %w", err)
	}
	src := &readFault{r: f}
	bad := func(what string, err error) error {
		if src.err != nil {
			return fmt.Errorf("extmem: %s: %w", what, src.err)
		}
		return corruptf("%s: %v", what, err)
	}
	fixed := make([]byte, segFixedOff+12)
	if _, err := io.ReadFull(src, fixed); err != nil {
		return nil, nil, bad("not a segment file", err)
	}
	if string(fixed[:len(segMagic)]) != segMagic {
		return nil, nil, corruptf("not a segment file")
	}
	if err := segmentLegacy(fixed); err != nil {
		return nil, nil, err
	}
	if format := fixed[len(segMagic)]; format != segFormat {
		return nil, nil, corruptf("segment format %d not supported", format)
	}
	h := &segmentHeader{raw: fixed[len(segMagic)+1]&segFlagRaw != 0}
	h.payload = int64(binary.LittleEndian.Uint64(fixed[segFixedOff : segFixedOff+8]))
	h.crc = binary.LittleEndian.Uint32(fixed[segFixedOff+8 : segFixedOff+12])
	if h.payload < 0 {
		return nil, nil, corruptf("segment header: payload length out of range")
	}
	in := &offsetReader{r: src, n: int64(len(fixed))}
	br := bufio.NewReaderSize(in, 4096)
	// sized reads a length prefix that is about to size an allocation.
	sized := func(what string) (uint64, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, bad("segment header", err)
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
			return "", bad("segment header", err)
		}
		return string(buf), nil
	}
	if h.rootName, err = str(); err != nil {
		return nil, nil, err
	}
	hasKey, err := br.ReadByte()
	if err != nil {
		return nil, nil, bad("segment header", err)
	}
	if hasKey != 0 {
		k := &tkey{}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, bad("segment header", err)
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
	dictLen, err := sized("dictionary length")
	if err != nil {
		return nil, nil, err
	}
	postLen, err := sized("postings length")
	if err != nil {
		return nil, nil, err
	}
	if dictLen+postLen > uint64(size) {
		return nil, nil, corruptf("segment header: sections of %d bytes exceed the %d-byte file", dictLen+postLen, size)
	}
	h.dictLen, h.postLen = int64(dictLen), int64(postLen)
	section := make([]byte, dictLen+postLen)
	if _, err := io.ReadFull(br, section); err != nil {
		return nil, nil, bad("segment dictionary and postings", err)
	}
	if h.dict, err = decodeSegDict(section[:dictLen]); err != nil {
		return nil, nil, err
	}
	h.posts, h.postErr = decodePostings(section[dictLen:])
	h.dataOff = in.n - int64(br.Buffered())
	return h, io.LimitReader(br, h.payload), nil
}

// readFault passes reads through and keeps the first one that failed
// other than by reaching the end of the bytes.
type readFault struct {
	r   io.Reader
	err error
}

func (rf *readFault) Read(p []byte) (int, error) {
	n, err := rf.r.Read(p)
	if err != nil && err != io.EOF && rf.err == nil {
		rf.err = err
	}
	return n, err
}

// ---------------------------------------------------------------------------
// Segment writing

// segmentSetWriter collects merged subtrees into a sequence of segment
// files, rolling to a fresh file whenever the current payload passes the
// target size at a child boundary, and recording one directory entry per
// child. The current file's tokens are captured in out, encoded on arrival
// against arrival-order ids, and written as they were captured at
// closeCurrent; no file exists until then. out
// is stable across rolls, so a merge can keep one output handle for the
// whole pass.
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
	sw := &segmentSetWriter{
		ar: ar, root: root, raw: raw, target: int64(ar.cfg.SegmentTarget),
		out: &ar.segOut, enc: &ar.segEnc,
		emit: emit, onCreate: onCreate,
	}
	sw.out.reset()
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

// closeCurrent encodes the capture (dictionary, postings, payload) and
// writes them as a complete file. Until here nothing of this segment
// exists on disk, so a postings or create failure leaves no file to clean
// up. A failed segment fsync or close is durability-critical:
// the file may be referenced by the directory about to be committed while
// its pages were silently dropped (fsyncgate), so it must poison the
// writer rather than be retried. The record holds the written segment's
// dictionary and postings, charged like a load.
func (sw *segmentSetWriter) closeCurrent() {
	rec := sw.cur
	sw.cur = nil
	if rec == nil || sw.err != nil {
		return
	}
	enc := sw.enc
	enc.encode(sw.out)
	for i, m := range sw.marks {
		rec.entries[i].offset = enc.tokOffs[m.start]
		rec.entries[i].size = enc.tokOffs[m.end] - enc.tokOffs[m.start]
	}
	posts, err := sw.capturePostings(rec, enc.tokOffs)
	if err != nil {
		sw.fail(err)
		return
	}
	dict, err := decodeSegDict(enc.dict.b.Bytes())
	if err != nil {
		sw.fail(err)
		return
	}
	head, postLen := enc.renderHead(sw.raw, sw.root.name, sw.root.key, posts)
	rec.dataOff = int64(len(head))
	rec.payload = int64(len(enc.pay))
	rec.crc = enc.crc
	rec.dictLen = int64(enc.dict.b.Len())
	rec.postLen = postLen
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
	for _, b := range [][]byte{head, enc.pay} {
		if _, err := f.Write(b); err != nil {
			f.Close()
			sw.fail(fmt.Errorf("extmem: %w", err))
			return
		}
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
	rec.dict.hold(&sw.ar.resident, name, dict, dictCharge*rec.dictLen)
	rec.posts.hold(&sw.ar.resident, name, &posts, postingsCharge*rec.postLen)
	sw.emit(rec)
}

// entryMark is the token range [start, end) of one directory entry in a
// captured segment.
type entryMark struct{ start, end int }

// beginChild notes the subtree about to be written, stamped timeStr; eff is
// the set the caller holds for it, the node's effective timestamp, kept as
// the entry's parsed time when the stamp is explicit. The entry is
// completed by endChild. For raw roots the entry metadata is ignored.
func (sw *segmentSetWriter) beginChild(name string, key *tkey, timeStr string, eff *intervals.Set) {
	if sw.err != nil {
		return
	}
	if sw.cur == nil {
		sw.open()
	}
	sw.markStart = len(sw.out.offs)
	sw.pending = childEntry{name: name, key: key, timeStr: timeStr}
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
	sw.marks = append(sw.marks, entryMark{start: sw.markStart, end: len(sw.out.offs)})
	sw.cur.entries = append(sw.cur.entries, sw.pending)
	if n := sw.out.est; n >= sw.target {
		if sw.planned > 0 && sw.planned-(sw.written+n) < sw.minTail {
			return // absorb the tail instead of rolling a tiny file
		}
		sw.closeCurrent()
	}
}

// finish closes any open file and lets go of the last segment's capture.
func (sw *segmentSetWriter) finish() error {
	sw.closeCurrent()
	sw.out.reset()
	return sw.err
}

// ---------------------------------------------------------------------------
// Reading: byte ranges of segment payloads

// streamPart is one piece of a dirStream: a byte range of a segment
// payload.
type streamPart struct {
	seg *segmentRecord
	off int64
	n   int64
}

// segFile is a segment file held open while its reader stays in it, with
// the segment's dictionary: one serves a dirStream, one a segCursor. As an
// io.Reader it serves the payload range it was last aimed at, turning a
// premature end of file into an explicit truncation error, and counts the
// bytes it reads into the archiver's telemetry.
type segFile struct {
	ar   *Archiver
	seg  *segmentRecord // the open segment, nil if none
	f    fsio.File
	dict *segDict
	rem  int64 // the bytes of the range not read yet
}

// aim points the reader at bytes [off, off+n) of seg's payload, opening
// seg unless it is the open segment.
func (o *segFile) aim(seg *segmentRecord, off, n int64) error {
	if seg != o.seg {
		o.closeFile()
		f, d, err := o.ar.openSegment(seg)
		if err != nil {
			return err
		}
		o.seg, o.f, o.dict = seg, f, d
	}
	if _, err := o.f.Seek(seg.dataOff+off, io.SeekStart); err != nil {
		o.closeFile()
		return fmt.Errorf("extmem: %w", err)
	}
	o.rem = n
	return nil
}

func (o *segFile) Read(p []byte) (int, error) {
	if o.rem <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > o.rem {
		p = p[:o.rem]
	}
	n, err := o.f.Read(p)
	o.rem -= int64(n)
	o.ar.bytesRead.Add(int64(n))
	if err == io.EOF && o.rem > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (o *segFile) closeFile() {
	if o.f != nil {
		o.f.Close()
	}
	o.seg, o.f, o.dict = nil, nil, nil
}

// dirStream serves token-aligned byte ranges of an archiver's segment
// payloads as one token stream, handed out part by part so the token
// reader can switch each part's segment dictionary in. At most one segment
// file is open at a time: a part of the segment the part before it read
// keeps its file.
type dirStream struct {
	segFile
	parts []streamPart
	i     int
}

// nextPart opens the next part, returning its reader and segment
// dictionary. A nil reader with nil error means the stream is exhausted.
func (s *dirStream) nextPart() (io.Reader, *segDict, error) {
	if s.i >= len(s.parts) {
		s.closeFile()
		return nil, nil, nil
	}
	part := &s.parts[s.i]
	s.i++
	if err := s.aim(part.seg, part.off, part.n); err != nil {
		return nil, nil, err
	}
	return &s.segFile, s.dict, nil
}

// Close releases the stream's open file, if any.
func (s *dirStream) Close() error {
	s.closeFile()
	s.i = len(s.parts)
	return nil
}

// rootParts lays out a root's segments whole, as stream parts: a raw
// root's subtree, or the entries of any other root (its open tag and
// attributes live in its record). Offsets are in payload space; the
// stream resolves them to file offsets.
func rootParts(r *rootRecord) []streamPart {
	parts := make([]streamPart, len(r.segs))
	for i, s := range r.segs {
		parts[i] = segPart(s)
	}
	return parts
}

// segPart is the whole payload of s, as a stream part.
func segPart(s *segmentRecord) streamPart { return streamPart{seg: s, n: s.payload} }

// entryParts lays out one second-level subtree as stream parts.
func entryParts(s *segmentRecord, e *childEntry) []streamPart {
	return []streamPart{{seg: s, off: e.offset, n: e.size}}
}
