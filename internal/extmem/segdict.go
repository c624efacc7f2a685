package extmem

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"xarch/internal/fsio"
	"xarch/internal/intervals"
)

// The segment format (format byte 3): the payload token stream does not
// carry key annotations, timestamps, or attribute values as inline
// strings. A per-segment dictionary section in the header interns them —
// key-path names, spilled values (canonical key values and attribute
// values), timestamps and whole key tuples — and the stream references
// them by varint id, numbered in the order the writer met them (sorted, in
// segments written before). No reader compares ids, only what they name.

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

// A segment's dictionary and postings load apart, each on first use, with
// one positioned read of its own range: the two end at dataOff, the
// postings last. A payload reader — a version, a merge, a compaction, a
// dirStream part — loads the dictionary alone, and only Select and History
// the postings, so damage to those fails just these two. The bytes count
// into bytesRead; a failed load is not kept, so the next reader retries.
//
// A resident section is charged its encoded bytes times the most they were
// measured to decode to, with everything built on first use built too (a
// dictionary's interval sets and key tuples, the postings' kid indexes):
// live heap per section byte, on a 64-bit platform, 6.5 and 8.2 on OMIM,
// 3.4 and 6.4 on XMark, 4.2 and 8.8 on Swiss-Prot. Config.SectionBudget
// bounds the charge (residency).
const dictCharge, postingsCharge = 7, 9

// section is one section of a segment: nil until it loads, and again once
// evicted. ref is the clock's reference bit.
type section[T any] struct {
	p   atomic.Pointer[T]
	ref atomic.Bool
}

func (s *section[T]) evict()        { s.p.Store(nil) }
func (s *section[T]) touched() bool { return s.ref.Swap(false) }

// load returns the section, its n bytes at off in seg's file, reading them
// through f (nil: the file is opened) and decoding them on first use.
func (s *section[T]) load(ar *Archiver, seg *segmentRecord, f fsio.File, off, n, charge int64, decode func([]byte) (*T, error)) (*T, error) {
	if v := s.p.Load(); v != nil {
		if !s.ref.Load() {
			s.ref.Store(true)
		}
		return v, nil
	}
	if seg.dictLen <= 0 || seg.postLen <= 0 || seg.dictLen+seg.postLen > seg.dataOff {
		return nil, corruptf("segment %s: dictionary or postings section out of range", seg.file)
	}
	if f == nil {
		var err error
		if f, err = ar.fs.Open(filepath.Join(ar.dir, seg.file)); err != nil {
			return nil, fmt.Errorf("extmem: %w", err)
		}
		defer f.Close()
	}
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err == io.EOF {
		return nil, corruptf("segment %s: sections past the end of the file", seg.file)
	} else if err != nil {
		return nil, fmt.Errorf("extmem: segment sections: %w", err)
	}
	ar.bytesRead.Add(n)
	ar.resident.loads.Add(1)
	v, err := decode(buf)
	if err != nil {
		return nil, err
	}
	return s.hold(&ar.resident, seg.file, v, charge*n), nil
}

// hold makes v the section, charged cost, unless a concurrent load got
// there first: that one is returned instead.
func (s *section[T]) hold(rs *residency, file string, v *T, cost int64) *T {
	if !s.p.CompareAndSwap(nil, v) {
		return cmp.Or(s.p.Load(), v) // v: evicted since, it serves this reader uncached
	}
	s.ref.Store(true)
	rs.admit(resident{file, s, cost})
	return v
}

// openSegment opens seg's file and returns it with the segment's
// dictionary, which loads through it on first use.
func (ar *Archiver) openSegment(seg *segmentRecord) (fsio.File, *segDict, error) {
	f, err := ar.fs.Open(filepath.Join(ar.dir, seg.file))
	if err != nil {
		return nil, nil, fmt.Errorf("extmem: %w", err)
	}
	d, err := seg.dict.load(ar, seg, f, seg.dataOff-seg.postLen-seg.dictLen, seg.dictLen, dictCharge, decodeSegDict)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, d, nil
}

// postings returns the postings of a segment: one per directory entry, one
// for a raw segment.
func (ar *Archiver) postings(seg *segmentRecord) ([]*idxEntry, error) {
	ps, err := seg.posts.load(ar, seg, nil, seg.dataOff-seg.postLen, seg.postLen, postingsCharge, func(b []byte) (*[]*idxEntry, error) {
		posts, err := decodePostings(b)
		if want := max(len(seg.entries), 1); err == nil && len(posts) != want {
			err = corruptf("%d postings for %d records", len(posts), want)
		}
		if err != nil {
			return nil, fmt.Errorf("segment %s: %w", seg.file, err)
		}
		return &posts, nil
	})
	if err != nil {
		return nil, err
	}
	return *ps, nil
}

// residency holds the resident sections under Config.SectionBudget,
// evicting by clock: the hand passes over the ring, clearing the reference
// bit of a section used since it last passed and evicting one that was
// not. Eviction drops only the record's pointer: a reader holding the
// section keeps it alive through the GC. used changes under mu.
type residency struct {
	mu                     sync.Mutex
	budget                 int64
	ring                   []resident
	hand                   int
	used, loads, evictions atomic.Int64
}

// resident is a section in the ring, with its charge and its segment's
// file, whose removal takes the section out of the ring.
type resident struct {
	file string
	s    interface {
		evict()
		touched() bool
	}
	cost int64
}

// admit charges a section just made resident, and evicts until the budget
// holds: a section larger than the whole budget serves only its readers.
func (rs *residency) admit(r resident) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.ring = append(rs.ring, r)
	rs.used.Add(r.cost)
	for pass := 0; rs.used.Load() > rs.budget; pass++ {
		rs.hand %= len(rs.ring)
		if pass < 2*len(rs.ring) && rs.ring[rs.hand].s.touched() {
			rs.hand++
			continue
		}
		rs.drop(rs.hand)
		rs.evictions.Add(1)
	}
}

// drop evicts ring entry i and takes back its charge. Callers hold mu.
func (rs *residency) drop(i int) {
	rs.ring[i].s.evict()
	rs.used.Add(-rs.ring[i].cost)
	last := len(rs.ring) - 1
	rs.ring[i], rs.ring[last] = rs.ring[last], resident{}
	rs.ring = rs.ring[:last]
}

// forget drops the sections of removed segment files.
func (rs *residency) forget(files []string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i := 0; i < len(rs.ring); {
		if slices.Contains(files, rs.ring[i].file) {
			rs.drop(i)
		} else {
			i++
		}
	}
}

// ---------------------------------------------------------------------------
// Segment encoding (write side)

// captureWriter is the token sink of the segment writer, and its buffer is
// the segment's payload: each token is encoded on arrival in the segment
// grammar, against ids numbered in arrival order. Only the tables, one
// entry per distinct value, hold strings and keys. est tracks an
// approximate encoded size for the roll decision at child boundaries.
type captureWriter struct {
	buf  []byte
	offs []int64 // where each token starts in buf
	est  int64

	paths, values, times interner
	// keyTable is the key table as it is written: per key id, its pair
	// count and its (path id, value id) pairs. keyAt is where each id's
	// entry starts, and keys holds a tuple per id. tuples finds an id by a
	// hash of its entry, probing on past a collision, so that equal tuples
	// share one id whatever their pointers, and none allocates.
	keyTable, keyAt []int32
	keys            []*tkey
	tuples          map[uint64]int32
}

// interner numbers distinct strings in arrival order.
type interner struct {
	id   map[string]int32
	list []string
}

func (t *interner) intern(v string) int32 {
	if id, ok := t.id[v]; ok {
		return id
	}
	if t.id == nil {
		t.id = map[string]int32{}
	}
	t.id[v] = int32(len(t.list))
	t.list = append(t.list, v)
	return int32(len(t.list) - 1)
}

func (t *interner) reset() {
	clear(t.id)
	clear(t.list)
	t.list = t.list[:0]
}

// reset empties the capture and keeps its room. The tables are zeroed, not
// only cut off: they outlive the version whose strings and keys they hold.
func (c *captureWriter) reset() {
	c.buf, c.offs, c.est = c.buf[:0], c.offs[:0], 0
	c.paths.reset()
	c.values.reset()
	c.times.reset()
	clear(c.tuples)
	clear(c.keys)
	c.keyTable, c.keyAt, c.keys = c.keyTable[:0], c.keyAt[:0], c.keys[:0]
}

// key interns key tuple k, its paths and values first.
func (c *captureWriter) key(k *tkey) int32 {
	at := len(c.keyTable)
	c.keyTable = append(c.keyTable, int32(len(k.paths)))
	for i := range k.paths {
		c.keyTable = append(c.keyTable, c.paths.intern(k.paths[i]), c.values.intern(k.canon[i]))
	}
	entry := c.keyTable[at:]
	h := uint64(14695981039346656037) // FNV-1a
	for _, id := range entry {
		h = (h ^ uint64(id)) * 1099511628211
	}
	if c.tuples == nil {
		c.tuples = map[uint64]int32{}
	}
	for ; ; h++ {
		id, ok := c.tuples[h]
		if !ok {
			c.tuples[h] = int32(len(c.keys))
			c.keys, c.keyAt = append(c.keys, k), append(c.keyAt, int32(at))
			return int32(len(c.keys) - 1)
		}
		if slices.Equal(c.keyTable[c.keyAt[id]:][:len(entry)], entry) {
			c.keyTable = c.keyTable[:at]
			return id
		}
	}
}

func (c *captureWriter) open(tagID int, key *tkey, time string) {
	c.writeToken(token{op: tokOpen, tag: tagID, key: key, data: time})
}

func (c *captureWriter) close() { c.writeToken(token{op: tokClose}) }

func (c *captureWriter) tsOpen(time string) { c.writeToken(token{op: tokTSOpen, data: time}) }

func (c *captureWriter) tsClose() { c.writeToken(token{op: tokTSClose}) }

func (c *captureWriter) writeToken(t token) {
	c.offs = append(c.offs, int64(len(c.buf)))
	b := append(c.buf, t.op)
	switch t.op {
	case tokOpen:
		c.est += 4
		b = append(binary.AppendUvarint(b, uint64(t.tag)), 0)
		flags := len(b) - 1
		if t.key != nil {
			c.est += 2
			b[flags] |= flagHasKey
			b = binary.AppendUvarint(b, uint64(c.key(t.key)))
		}
		if t.data != "" {
			c.est += 2
			b[flags] |= flagHasTime
			b = binary.AppendUvarint(b, uint64(c.times.intern(t.data)))
		}
	case tokText:
		c.est += int64(len(t.data)) + 3
		b = append(binary.AppendUvarint(b, uint64(len(t.data))), t.data...)
	case tokAttr:
		c.est += 4
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(t.tag)), uint64(c.values.intern(t.data)))
	case tokTSOpen:
		c.est += 3
		b = binary.AppendUvarint(b, uint64(c.times.intern(t.data)))
	default:
		c.est++
	}
	c.buf = b
}

// capCursor is the one decoder of a capture's buffer, reading its tokens
// in order: for the postings and a raw root's time.
type capCursor struct {
	c  *captureWriter
	at int
}

func (r *capCursor) uvarint() int {
	v, n := binary.Uvarint(r.c.buf[r.at:])
	r.at += n
	return int(v)
}

// token decodes the next token as the writer was handed it, its strings
// and key from the capture's tables, but a text token without its text,
// which no posting reads.
func (r *capCursor) token() token {
	t := token{op: r.c.buf[r.at]}
	r.at++
	switch t.op {
	case tokOpen:
		t.tag = r.uvarint()
		flags := r.c.buf[r.at]
		r.at++
		if flags&flagHasKey != 0 {
			t.key = r.c.keys[r.uvarint()]
		}
		if flags&flagHasTime != 0 {
			t.data = r.c.times.list[r.uvarint()]
		}
	case tokText:
		n := r.uvarint()
		r.at += n
	case tokAttr:
		t.tag = r.uvarint()
		t.data = r.c.values.list[r.uvarint()]
	case tokTSOpen:
		t.data = r.c.times.list[r.uvarint()]
	}
	return t
}

// segEncoder turns a capture into a segment: the capture's buffer is the
// payload and its tables the dictionary section, rendered with the header
// in buffers reused across the segments of one write pass. The zero value
// is ready.
type segEncoder struct {
	dict, posts, head kdWriter
	pay               []byte
	crc               uint32 // of pay
	// tokOffs holds the payload byte offset of every token plus a final
	// total, for the directory's entry spans and the postings' kid spans.
	tokOffs []int64
}

// encode renders the dictionary section of the segment captured in c into
// enc.dict, and points pay and tokOffs at c's buffer and offsets: valid
// until the next encode or the capture changes.
func (enc *segEncoder) encode(c *captureWriter) {
	w := &enc.dict
	w.b.Reset()
	for _, list := range [...][]string{c.paths.list, c.values.list, c.times.list} {
		w.varint(uint64(len(list)))
		for _, s := range list {
			w.str(s)
		}
	}
	w.varint(uint64(len(c.keys)))
	for _, v := range c.keyTable {
		w.varint(uint64(v))
	}
	enc.pay, enc.crc, enc.tokOffs = c.buf, crc32.ChecksumIEEE(c.buf), append(c.offs, int64(len(c.buf)))
}

// renderHead renders the complete header of the segment just encoded —
// magic, format, flags, fixed payload length and CRC, root label, the two
// section lengths, the dictionary section and the postings section — and
// returns it with the postings section's length. The header aliases the
// encoder's buffer and is valid until the next renderHead.
func (enc *segEncoder) renderHead(raw bool, rootName string, rootKey *tkey, posts []*idxEntry) ([]byte, int64) {
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
	binary.LittleEndian.PutUint64(fixed[:8], uint64(len(enc.pay)))
	binary.LittleEndian.PutUint32(fixed[8:], enc.crc)
	w.b.Write(fixed[:])
	w.str(rootName)
	w.key(rootKey)
	w.varint(uint64(enc.dict.b.Len()))
	w.varint(uint64(enc.posts.b.Len()))
	w.b.Write(enc.dict.b.Bytes())
	w.b.Write(enc.posts.b.Bytes())
	return w.b.Bytes(), int64(enc.posts.b.Len())
}
