package extmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"xarch/internal/fsio"
	"xarch/internal/intervals"
)

// The segment format (format byte 3): the payload token stream does not
// carry key annotations, timestamps, or attribute values as inline
// strings. A per-segment dictionary section in the header interns them — key-path names, spilled string values (canonical key
// values and attribute values), a timestamp table, and whole key
// tuples — and the stream references them by varint id. Ids are
// assigned in sorted order, so within one segment comparing ids is
// comparing strings: the merge planner and queries compare
// integers, and share one decoded string/interval/key object per
// distinct value.

// segDict is the decoded dictionary section of one segment. It is
// immutable once decoded and shared by every reader of the segment. The
// string tables are substrings of one backing string, so decoding
// allocates O(1) objects regardless of table sizes; interval sets and key
// tuples are materialized lazily, on first reference, and memoized per
// id — a query that touches one subtree pays only for the entries that
// subtree references. Shared objects are read-only and must never be
// mutated.
type segDict struct {
	paths  []string
	values []string
	times  []string

	// Lazily materialized per id by timeSet and key; ids were validated
	// at decode, so only timestamp parse errors can surface here.
	sets     []atomic.Pointer[intervals.Set]
	keys     []atomic.Pointer[tkey]
	keyStart []uint32 // prefix offsets into keyPairs, len(keys)+1
	keyPairs []uint32 // alternating (path id, value id)
}

// timeSet returns the parsed interval set of timestamp id, parsing and
// memoizing it on first use. Concurrent first uses race benignly: the
// CAS keeps one winner, so every caller shares the same set.
func (d *segDict) timeSet(id int) (*intervals.Set, error) {
	if s := d.sets[id].Load(); s != nil {
		return s, nil
	}
	s, err := intervals.Parse(d.times[id])
	if err != nil {
		return nil, corruptf("segment dictionary timestamp %q: %v", d.times[id], err)
	}
	if !d.sets[id].CompareAndSwap(nil, s) {
		s = d.sets[id].Load()
	}
	return s, nil
}

// key returns the key tuple of key id, building and memoizing it on
// first use over the interned string tables.
func (d *segDict) key(id int) *tkey {
	if k := d.keys[id].Load(); k != nil {
		return k
	}
	start, end := d.keyStart[id], d.keyStart[id+1]
	k := &tkey{
		paths: make([]string, 0, (end-start)/2),
		canon: make([]string, 0, (end-start)/2),
	}
	for i := start; i < end; i += 2 {
		k.paths = append(k.paths, d.paths[d.keyPairs[i]])
		k.canon = append(k.canon, d.values[d.keyPairs[i+1]])
	}
	if !d.keys[id].CompareAndSwap(nil, k) {
		k = d.keys[id].Load()
	}
	return k
}

// validate forces every lazily-materialized entry, so offline checks
// (fsck) report a corrupt dictionary even when no token references the
// broken entry.
func (d *segDict) validate() error {
	for i := range d.sets {
		if _, err := d.timeSet(i); err != nil {
			return err
		}
	}
	for i := range d.keys {
		d.key(i)
	}
	return nil
}

// encodeSegDict renders the dictionary section. All tables are sorted,
// so the ids the encoder assigned are the positions here.
func encodeSegDict(w *kdWriter, paths, values, times []string, keys []*tkey, pathID, valueID map[string]int) {
	w.varint(uint64(len(paths)))
	for _, s := range paths {
		w.str(s)
	}
	w.varint(uint64(len(values)))
	for _, s := range values {
		w.str(s)
	}
	w.varint(uint64(len(times)))
	for _, s := range times {
		w.str(s)
	}
	w.varint(uint64(len(keys)))
	for _, k := range keys {
		w.varint(uint64(len(k.paths)))
		for i := range k.paths {
			w.varint(uint64(pathID[k.paths[i]]))
			w.varint(uint64(valueID[k.canon[i]]))
		}
	}
}

// decodeSegDict parses a dictionary section, which a replication peer may
// have supplied: whatever the bytes, a section that does not decode is a
// corrupt archive. It reads with kdReader, so every string is a substring
// of one backing copy of the section, and the key table is kept as
// validated flat id pairs: decoding allocates a handful of objects however
// large the tables are; per-id interval sets and key tuples materialize
// lazily on first reference.
func decodeSegDict(data []byte) (*segDict, error) {
	r := &kdReader{s: string(data)}
	readTable := func(what string) []string {
		n := r.varint()
		if r.err == nil && n > uint64(len(r.s)) { // every entry takes ≥1 byte
			r.err = fmt.Errorf("%s table count %d exceeds section size", what, n)
		}
		if r.err != nil {
			return nil
		}
		list := make([]string, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			list = append(list, r.str())
		}
		return list
	}
	d := &segDict{}
	d.paths = readTable("path")
	d.values = readTable("value")
	d.times = readTable("timestamp")
	d.sets = make([]atomic.Pointer[intervals.Set], len(d.times))
	nKeys := r.varint()
	if r.err == nil && nKeys > uint64(len(r.s))+1 {
		r.err = fmt.Errorf("key table count %d exceeds section size", nKeys)
	}
	if r.err == nil {
		d.keys = make([]atomic.Pointer[tkey], nKeys)
		d.keyStart = make([]uint32, 1, nKeys+1)
		// Most keys are single-pair; sizing for that makes the append
		// below grow at most once however large the table is.
		d.keyPairs = make([]uint32, 0, 2*nKeys)
	}
	for i := uint64(0); i < nKeys && r.err == nil; i++ {
		nPairs := r.varint()
		for j := uint64(0); j < nPairs && r.err == nil; j++ {
			switch p, v := r.varint(), r.varint(); {
			case r.err != nil:
			case p >= uint64(len(d.paths)):
				r.err = fmt.Errorf("dangling path id %d (table has %d)", p, len(d.paths))
			case v >= uint64(len(d.values)):
				r.err = fmt.Errorf("dangling value id %d (table has %d)", v, len(d.values))
			default:
				d.keyPairs = append(d.keyPairs, uint32(p), uint32(v))
			}
		}
		d.keyStart = append(d.keyStart, uint32(len(d.keyPairs)))
	}
	if r.err == nil && len(r.s) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.s))
	}
	if r.err != nil {
		return nil, corruptf("segment dictionary: %v", r.err)
	}
	return d, nil
}

// dictCache shares the decoded dictionaries and postings of segments
// across every reader of a generation. Segments are immutable, so a
// cached entry never goes stale; entries are evicted when the file itself
// is swept.
type dictCache struct {
	fs      fsio.FS
	dir     string
	counter *atomic.Int64
	m       sync.Map // segment file name -> *segSections
}

// segSections is what a segment says about its payload: the dictionary
// its tokens reference and the postings of its records. The postings are
// derived from the payload, so damage to their section is kept apart and
// fails only their readers.
type segSections struct {
	dict    *segDict
	posts   []*idxEntry
	postErr error
}

// get returns the decoded dictionary of a segment, loading and caching
// its sections on first use.
func (c *dictCache) get(seg *segmentRecord) (*segDict, error) {
	ss, err := c.load(seg)
	if err != nil {
		return nil, err
	}
	return ss.dict, nil
}

// postings returns the postings of a segment: one per directory entry, one
// for a raw segment. A damaged postings section fails Select and History
// here, never a reader of the payload.
func (c *dictCache) postings(seg *segmentRecord) ([]*idxEntry, error) {
	ss, err := c.load(seg)
	if err != nil {
		return nil, err
	}
	return ss.posts, ss.postErr
}

// load returns the decoded sections of a segment. The section bytes read
// on a miss are counted into the bytes-read telemetry; a failed read is
// not cached, so the next reader retries it.
//
// The directory record pins the sections' exact location (they end at
// dataOff, the postings last), so a segment loads with one positioned read
// of just the two sections instead of re-parsing the whole header.
func (c *dictCache) load(seg *segmentRecord) (*segSections, error) {
	if v, ok := c.m.Load(seg.file); ok {
		return v.(*segSections), nil
	}
	n := seg.dictLen + seg.postLen
	if seg.dictLen <= 0 || seg.postLen <= 0 || n > seg.dataOff {
		return nil, corruptf("segment %s: dictionary or postings section out of range", seg.file)
	}
	f, err := c.fs.Open(filepath.Join(c.dir, seg.file))
	if err != nil {
		return nil, fmt.Errorf("extmem: %w", err)
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, seg.dataOff-n); err == io.EOF {
		return nil, corruptf("segment %s: sections past the end of the file", seg.file)
	} else if err != nil {
		return nil, fmt.Errorf("extmem: segment sections: %w", err)
	}
	d, err := decodeSegDict(buf[:seg.dictLen])
	if err != nil {
		return nil, err
	}
	ss := &segSections{dict: d}
	ss.posts, ss.postErr = decodePostings(buf[seg.dictLen:])
	if want := max(len(seg.entries), 1); ss.postErr == nil && len(ss.posts) != want {
		ss.postErr = corruptf("%d postings for %d records", len(ss.posts), want)
	}
	if ss.postErr != nil {
		ss.posts, ss.postErr = nil, fmt.Errorf("segment %s: %w", seg.file, ss.postErr)
	}
	if c.counter != nil {
		c.counter.Add(n)
	}
	v, _ := c.m.LoadOrStore(seg.file, ss)
	return v.(*segSections), nil
}

// put caches the sections of a segment just written.
func (c *dictCache) put(name string, dict *segDict, posts []*idxEntry) {
	c.m.Store(name, &segSections{dict: dict, posts: posts})
}

// evict drops the cached sections of a swept segment file.
func (c *dictCache) evict(name string) { c.m.Delete(name) }

// ---------------------------------------------------------------------------
// Segment encoding (write side)

// captureWriter is the token sink of the segment writer: tokens are
// buffered in decoded form (dictionary tables need the whole segment's
// token population before ids can be assigned in sorted order), and est
// tracks an approximate encoded size for the roll decision at child
// boundaries.
type captureWriter struct {
	toks []token
	est  int64
}

// reset empties the buffer and keeps its room. The tokens are zeroed, not
// only cut off: the buffer outlives the version whose strings they hold.
func (c *captureWriter) reset() {
	clear(c.toks)
	c.toks = c.toks[:0]
	c.est = 0
}

func (c *captureWriter) open(tagID int, key *tkey, time string) {
	c.writeToken(token{op: tokOpen, tag: tagID, key: key, data: time})
}

func (c *captureWriter) close() { c.writeToken(token{op: tokClose}) }

func (c *captureWriter) tsOpen(time string) { c.writeToken(token{op: tokTSOpen, data: time}) }

func (c *captureWriter) tsClose() { c.writeToken(token{op: tokTSClose}) }

func (c *captureWriter) writeToken(t token) {
	c.toks = append(c.toks, t)
	switch t.op {
	case tokOpen:
		c.est += 4
		if t.key != nil {
			c.est += 2
		}
		if t.data != "" {
			c.est += 2
		}
	case tokText:
		c.est += int64(len(t.data)) + 3
	case tokAttr:
		c.est += 4
	case tokTSOpen:
		c.est += 3
	default:
		c.est++
	}
}

// entryMark is the token range [start, end) of one directory entry in a
// captured segment.
type entryMark struct{ start, end int }

// entrySpan is the byte range of one entry in the encoded payload.
type entrySpan struct{ off, size int64 }

// encodedSegment is one segment's encoded payload and dictionary section.
// The byte slices alias the encoder's internal buffers and are valid until
// the next encode.
type encodedSegment struct {
	dict    []byte      // the dictionary section
	pay     []byte      // the payload
	crc     uint32      // CRC32 of the payload
	offs    []entrySpan // per entryMark
	tokOffs []int64     // byte offset of every token plus a final total
}

// segEncoder turns a captured token run into a segment: it builds
// the sorted dictionary tables, encodes the payload with ids, and renders
// the full header. All scratch state is reused across segments of one
// write pass.
type segEncoder struct {
	pathID, valueID, timeID map[string]int
	keyID                   map[*tkey]int
	pathList, valueList     []string
	timeList                []string
	keyPtrs, keyReps        []*tkey

	dict, posts, head kdWriter
	pay               bytes.Buffer
	offs              []entrySpan
	// tokOffs records the payload byte offset of every token (plus a final
	// total), for the postings' kid spans.
	tokOffs []int64
}

func newSegEncoder() *segEncoder {
	return &segEncoder{
		pathID:  map[string]int{},
		valueID: map[string]int{},
		timeID:  map[string]int{},
		keyID:   map[*tkey]int{},
	}
}

func (enc *segEncoder) addString(m map[string]int, list []string, s string) []string {
	if _, ok := m[s]; !ok {
		m[s] = 0
		list = append(list, s)
	}
	return list
}

// encode renders the payload and dictionary of one segment from the
// captured tokens. marks gives the token range of each directory entry
// (empty for raw segments); the resulting byte spans come back in offs,
// index-aligned with marks.
func (enc *segEncoder) encode(toks []token, marks []entryMark) (*encodedSegment, error) {
	clear(enc.pathID)
	clear(enc.valueID)
	clear(enc.timeID)
	clear(enc.keyID)
	enc.pathList = enc.pathList[:0]
	enc.valueList = enc.valueList[:0]
	enc.timeList = enc.timeList[:0]
	enc.keyPtrs = enc.keyPtrs[:0]
	enc.keyReps = enc.keyReps[:0]
	enc.dict.b.Reset()
	enc.pay.Reset()
	enc.offs = enc.offs[:0]
	enc.tokOffs = enc.tokOffs[:0]

	// Pass 1: collect the distinct strings and key tuples.
	for i := range toks {
		t := &toks[i]
		switch t.op {
		case tokOpen:
			if t.key != nil {
				if _, ok := enc.keyID[t.key]; !ok {
					enc.keyID[t.key] = 0
					enc.keyPtrs = append(enc.keyPtrs, t.key)
					for j := range t.key.paths {
						enc.pathList = enc.addString(enc.pathID, enc.pathList, t.key.paths[j])
						enc.valueList = enc.addString(enc.valueID, enc.valueList, t.key.canon[j])
					}
				}
			}
			if t.data != "" {
				enc.timeList = enc.addString(enc.timeID, enc.timeList, t.data)
			}
		case tokAttr:
			enc.valueList = enc.addString(enc.valueID, enc.valueList, t.data)
		case tokTSOpen:
			enc.timeList = enc.addString(enc.timeID, enc.timeList, t.data)
		}
	}

	// Ids in sorted order, so id comparison is string comparison.
	sort.Strings(enc.pathList)
	for i, s := range enc.pathList {
		enc.pathID[s] = i
	}
	sort.Strings(enc.valueList)
	for i, s := range enc.valueList {
		enc.valueID[s] = i
	}
	sort.Strings(enc.timeList)
	for i, s := range enc.timeList {
		enc.timeID[s] = i
	}
	// Keys were collected as distinct pointers; distinct pointers may
	// still carry equal values, which must share one id for id equality
	// to mean key equality.
	sort.Slice(enc.keyPtrs, func(i, j int) bool { return compareKeys(enc.keyPtrs[i], enc.keyPtrs[j]) < 0 })
	for i, k := range enc.keyPtrs {
		if i > 0 && compareKeys(enc.keyPtrs[i-1], k) == 0 {
			enc.keyID[k] = len(enc.keyReps) - 1
			continue
		}
		enc.keyID[k] = len(enc.keyReps)
		enc.keyReps = append(enc.keyReps, k)
	}

	encodeSegDict(&enc.dict, enc.pathList, enc.valueList, enc.timeList, enc.keyReps, enc.pathID, enc.valueID)

	// Pass 2: encode the payload, recording entry byte spans.
	mi := 0
	for i := range toks {
		if mi < len(enc.offs) && marks[mi].end == i {
			enc.offs[mi].size = int64(enc.pay.Len()) - enc.offs[mi].off
			mi++
		}
		if mi < len(marks) && marks[mi].start == i {
			enc.offs = append(enc.offs, entrySpan{off: int64(enc.pay.Len())})
		}
		enc.tokOffs = append(enc.tokOffs, int64(enc.pay.Len()))
		enc.writeTok(&toks[i])
	}
	if mi < len(enc.offs) && marks[mi].end == len(toks) {
		enc.offs[mi].size = int64(enc.pay.Len()) - enc.offs[mi].off
		mi++
	}
	if mi != len(marks) {
		return nil, fmt.Errorf("extmem: internal: %d of %d entry marks unresolved", len(marks)-mi, len(marks))
	}

	enc.tokOffs = append(enc.tokOffs, int64(enc.pay.Len()))
	return &encodedSegment{
		dict:    enc.dict.b.Bytes(),
		pay:     enc.pay.Bytes(),
		crc:     crc32.ChecksumIEEE(enc.pay.Bytes()),
		offs:    enc.offs,
		tokOffs: enc.tokOffs,
	}, nil
}

// renderHead renders the complete header of an encoded segment — magic,
// format, flags, fixed payload length and CRC, root label, the two section
// lengths, the dictionary section and the postings section — and returns
// it with the postings section's length. The header aliases the encoder's
// buffer and is valid until the next renderHead.
func (enc *segEncoder) renderHead(raw bool, rootName string, rootKey *tkey, res *encodedSegment, posts []*idxEntry) ([]byte, int64) {
	enc.posts.b.Reset()
	encodePostings(&enc.posts, posts)
	w := &enc.head
	w.b.Reset()
	w.b.WriteString(segMagic)
	w.b.WriteByte(segFormat)
	var flags byte
	if raw {
		flags |= segFlagRaw
	}
	w.b.WriteByte(flags)
	var fixed [12]byte
	binary.LittleEndian.PutUint64(fixed[:8], uint64(len(res.pay)))
	binary.LittleEndian.PutUint32(fixed[8:], res.crc)
	w.b.Write(fixed[:])
	w.str(rootName)
	w.key(rootKey)
	w.varint(uint64(len(res.dict)))
	w.varint(uint64(enc.posts.b.Len()))
	w.b.Write(res.dict)
	w.b.Write(enc.posts.b.Bytes())
	return w.b.Bytes(), int64(enc.posts.b.Len())
}

func (enc *segEncoder) writeTok(t *token) {
	b := &enc.pay
	switch t.op {
	case tokOpen:
		b.WriteByte(tokOpen)
		putUvarint(b, uint64(t.tag))
		var flags byte
		if t.key != nil {
			flags |= flagHasKey
		}
		if t.data != "" {
			flags |= flagHasTime
		}
		b.WriteByte(flags)
		if t.key != nil {
			putUvarint(b, uint64(enc.keyID[t.key]))
		}
		if t.data != "" {
			putUvarint(b, uint64(enc.timeID[t.data]))
		}
	case tokText:
		b.WriteByte(tokText)
		putUvarint(b, uint64(len(t.data)))
		b.WriteString(t.data)
	case tokAttr:
		b.WriteByte(tokAttr)
		putUvarint(b, uint64(t.tag))
		putUvarint(b, uint64(enc.valueID[t.data]))
	case tokClose:
		b.WriteByte(tokClose)
	case tokTSOpen:
		b.WriteByte(tokTSOpen)
		putUvarint(b, uint64(enc.timeID[t.data]))
	case tokTSClose:
		b.WriteByte(tokTSClose)
	}
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}
