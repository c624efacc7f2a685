// Package extmem implements the external-memory archiver of §6 of Buneman
// et al., "Archiving Scientific Data", for documents larger than memory:
//
//  1. Decompose (§6.1): the XML is tokenized into a document slab
//     (xmltree.Flat) — tag names numbered in a dictionary as they are met
//     — and the key specification stores every keyed node's key value
//     there, the slab's realization of Annotate Keys (§4.1).
//  2. Sort (§6.2): the slab is checked and sorted in memory (keyed levels
//     sorted by key value). A streamed version larger than the memory
//     budget is read in pieces, each the root and whole children of the
//     root; each piece's sorted children go to a run file.
//  3. Merge (§6.3): a single streaming pass merges the sorted archive and
//     the sorted version — from the runs, one child of the root at a time
//     — by the Nested Merge rules.
//
// A tree is loaded into the same slab and takes the same sort
// (treesort.go); only a streamed version forms runs (sort.go). Segments and
// runs hold tokens in one grammar, their strings interned (segdict.go).
package extmem

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"strings"
	"sync"

	"xarch/internal/intervals"
)

// tokenBufSize is the buffer size of every token-file reader and writer;
// the buffers themselves are pooled so the many short-lived readers and
// writers of one Add (runs, the run merge) or query scan reuse a
// handful of 64 KiB buffers instead of allocating fresh ones.
const tokenBufSize = 64 * 1024

var (
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, tokenBufSize) }}
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(strings.NewReader(""), tokenBufSize) }}
)

// Token opcodes of the internal representation.
const (
	tokOpen    = 0x01 // element open: tagID, flags, [key], [time]
	tokText    = 0x02 // text: data
	tokAttr    = 0x03 // attribute: nameID, value
	tokClose   = 0x04 // element close
	tokTSOpen  = 0x05 // frontier content group open: time
	tokTSClose = 0x06 // group close
)

// Open flags.
const (
	flagHasKey  = 0x01
	flagHasTime = 0x02
)

// token is one decoded token. Tokens decoded from a segment carry
// interned data: key points into the segment dictionary's shared key
// table and time is the dictionary's pre-parsed interval set of the
// timestamp in data. Shared objects are read-only — a consumer that
// needs to mutate the set must clone it first.
type token struct {
	op   byte
	tag  int            // tokOpen: dictionary id; tokAttr: name id
	data string         // tokText: text; tokAttr: value; tokTSOpen/tokOpen: time
	key  *tkey          // tokOpen with flagHasKey
	time *intervals.Set // pre-parsed data for tokOpen/tokTSOpen (segment tokens only)
}

// tokenEff returns the parsed interval set of an open/tsOpen token's
// timestamp, nil when it has none, reusing the segment dictionary's shared
// pre-parsed set when the token carries one. The returned set MUST NOT be
// mutated. A timestamp that does not parse is corruption.
func tokenEff(t token) (*intervals.Set, error) {
	if t.time != nil || t.data == "" {
		return t.time, nil
	}
	ts, err := intervals.Parse(t.data)
	if err != nil {
		return nil, corruptf("bad timestamp %q", t.data)
	}
	return ts, nil
}

// tkey is a key annotation: key-path names and canonical values, sorted by
// path name (§4.2).
type tkey struct {
	paths []string
	canon []string
}

// compareKeys orders two key annotations per <=lab (canonical strings
// stand in for fingerprints; the order only needs to be consistent).
func compareKeys(a, b *tkey) int {
	la, lb := 0, 0
	if a != nil {
		la = len(a.paths)
	}
	if b != nil {
		lb = len(b.paths)
	}
	if la != lb {
		if la < lb {
			return -1
		}
		return 1
	}
	for i := 0; i < la; i++ {
		if a.paths[i] != b.paths[i] {
			if a.paths[i] < b.paths[i] {
				return -1
			}
			return 1
		}
		if a.canon[i] != b.canon[i] {
			if a.canon[i] < b.canon[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// tokenReader reads a token stream with one token of lookahead. It is
// the one decoder of the token grammar, and it reads bytes this process
// did not write (a peer's segment payload): whatever it is handed, it
// never panics, never allocates more than a small multiple of the bytes
// the stream actually supplied, and reports anything that is not a token
// stream — an unknown opcode, a dangling id, a stream that ends inside a
// token — as an error matching ErrCorruptArchive.
//
// A stream is read against a segment dictionary: open and attr tokens
// reference interned strings, key tuples, and pre-parsed interval sets
// instead of allocating them per token. A reader fed by a dirStream
// advances across stream parts at token boundaries, switching
// dictionaries per part.
//
// In slice mode (r nil) it reads a sorted version held in memory: toks,
// then each slice more returns (runMerge's, one child of the root at a
// time) until one is empty; pos is an index into the slice at hand.
type tokenReader struct {
	r    *bufio.Reader
	in   offsetReader // what r reads, when that is one fixed stream
	dict *segDict     // current part's dictionary
	src  *dirStream   // nil = single fixed reader
	toks []token      // slice mode: the tokens, toks[at] the one after cur
	at   int
	more func() ([]token, error) // slice mode: the tokens after toks; nil = none
	cur  token
	pos  int64 // stream offset (in slice mode, index) of cur, or of the end
	err  error
	done bool
}

// offsetReader counts what a tokenReader's buffer has pulled from a single
// stream, from the offset the stream started at; less what is still
// buffered, that is the offset of the next byte to decode.
type offsetReader struct {
	r io.Reader
	n int64
}

func (o *offsetReader) Read(p []byte) (int, error) {
	n, err := o.r.Read(p)
	o.n += int64(n)
	return n, err
}

// newTokenReaderDict reads a single stream, which starts at offset at,
// encoded against a fixed segment dictionary.
func newTokenReaderDict(r io.Reader, dict *segDict, at int64) *tokenReader {
	tr := &tokenReader{r: readerPool.Get().(*bufio.Reader)}
	tr.reset(r, dict, at)
	return tr
}

// reset aims the reader at another single stream and its dictionary,
// dropping the lookahead and any end-of-stream or error state, so one
// reader (and its buffer) can visit several places in a file. at is the
// offset r starts at in whatever the caller measures pos in; in slice mode
// it is the index in the slice at hand to read on from; r and dict are nil.
func (tr *tokenReader) reset(r io.Reader, dict *segDict, at int64) {
	if tr.at = int(at); tr.r != nil {
		if dict == nil {
			panic("extmem: a token stream is read against its segment dictionary")
		}
		tr.in = offsetReader{r: r, n: at}
		tr.r.Reset(&tr.in)
	}
	tr.dict, tr.err, tr.done, tr.cur = dict, nil, false, token{}
	tr.next()
}

// readParts returns a pooled token reader over parts of the archiver's
// segments: one token stream across them, switching per-part dictionaries
// as it goes. Its pos means nothing: offsets belong to one part. Releasing
// the reader closes the file its stream holds open.
func (ar *Archiver) readParts(parts []streamPart) *tokenReader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(strings.NewReader(""))
	tr := &tokenReader{r: br, src: &dirStream{segFile: segFile{ar: ar}, parts: parts}}
	tr.next()
	return tr
}

// release returns the reader's buffer to the pool and closes its dirStream,
// if any; the tokenReader must not be used afterwards.
func (tr *tokenReader) release() {
	if tr.r == nil {
		return
	}
	if tr.src != nil {
		tr.src.Close()
	}
	tr.r.Reset(strings.NewReader(""))
	readerPool.Put(tr.r)
	tr.r = nil
	tr.in.r = nil
	tr.src = nil
	tr.dict = nil
	tr.done = true
}

// fail ends the stream with err; io.EOF is its clean end, which only
// readOp — between tokens — may report.
func (tr *tokenReader) fail(err error) {
	if err != io.EOF && tr.err == nil {
		tr.err = err
	}
	tr.done = true
}

// cut fails a read inside a token: there, the end of the stream is
// corruption like any other, not the stream's end.
func (tr *tokenReader) cut(err error) {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = corruptf("token stream ends inside a token")
	}
	tr.fail(err)
}

func (tr *tokenReader) byte() byte {
	b, err := tr.r.ReadByte()
	if err != nil {
		tr.cut(err)
	}
	return b
}

// varint reads a uvarint byte by byte (binary.ReadUvarint would not tell
// an overflow, which is corruption, from a failed read, which is not).
func (tr *tokenReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b, err := tr.r.ReadByte()
		if err != nil {
			tr.cut(err)
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
	tr.fail(corruptf("varint overflows 64 bits"))
	return 0
}

// str reads one length-prefixed string. One that fits the reader's buffer
// is copied out of it once it is known to be all there; a longer one
// grows as its bytes arrive. Either way the length prefix alone sizes no
// allocation.
func (tr *tokenReader) str() string {
	n := tr.varint()
	if tr.done {
		return ""
	}
	if n <= tokenBufSize {
		b, err := tr.r.Peek(int(n))
		if err != nil {
			tr.cut(err)
			return ""
		}
		s := string(b)
		tr.r.Discard(len(b))
		return s
	}
	if n > math.MaxInt64 {
		tr.fail(corruptf("string length %d out of range", n))
		return ""
	}
	var b bytes.Buffer
	if _, err := io.CopyN(&b, tr.r, int64(n)); err != nil {
		tr.cut(err)
		return ""
	}
	return b.String()
}

// skipStr discards one length-prefixed string without materializing it.
func (tr *tokenReader) skipStr() {
	n := tr.varint()
	for n > 0 && !tr.done {
		c := min(n, 1<<30) // Discard takes an int
		if _, err := tr.r.Discard(int(c)); err != nil {
			tr.cut(err)
		}
		n -= c
	}
}

// readOp reads the next opcode byte. Parts of a dirStream are always
// token-aligned, so EOF here (and only here) may mean "current part
// exhausted": advance to the next part — switching its dictionary in —
// and keep going.
func (tr *tokenReader) readOp() (byte, error) {
	for {
		op, err := tr.r.ReadByte()
		if err == nil {
			return op, nil
		}
		if err != io.EOF || tr.src == nil {
			return 0, err
		}
		r, dict, aerr := tr.src.nextPart()
		if aerr != nil {
			return 0, aerr
		}
		if r == nil {
			return 0, io.EOF
		}
		tr.r.Reset(r)
		tr.dict = dict
	}
}

// dictID reads an interned id and checks it against its table's size.
func (tr *tokenReader) dictID(what string, size int) (int, bool) {
	id := tr.varint()
	if tr.done {
		return 0, false
	}
	if id >= uint64(size) {
		tr.fail(corruptf("dangling %s id %d (dictionary has %d)", what, id, size))
		return 0, false
	}
	return int(id), true
}

// time reads a timestamp id, with the dictionary's shared pre-parsed
// interval set.
func (tr *tokenReader) time() (string, *intervals.Set) {
	id, ok := tr.dictID("timestamp", len(tr.dict.times))
	if !ok {
		return "", nil
	}
	set, err := tr.dict.timeSet(id)
	if err != nil {
		tr.fail(err)
		return "", nil
	}
	return tr.dict.times[id], set
}

// next advances to the next token; peek() then returns it.
func (tr *tokenReader) next() {
	if tr.done {
		return
	}
	if tr.r == nil {
		if tr.at == len(tr.toks) && tr.more != nil {
			toks, err := tr.more()
			if err != nil {
				tr.fail(err)
				return
			}
			tr.toks, tr.at = toks, 0
		}
		if tr.pos = int64(tr.at); tr.at == len(tr.toks) {
			tr.fail(io.EOF)
		} else if t := tr.toks[tr.at]; t.op == tokAttr && !attrFollows(tr.cur.op) {
			tr.fail(corruptf("attribute after content"))
		} else {
			tr.cur, tr.at = t, tr.at+1
		}
		return
	}
	tr.pos = tr.in.n - int64(tr.r.Buffered())
	op, err := tr.readOp()
	if err != nil {
		tr.fail(err)
		return
	}
	t := token{op: op}
	switch op {
	case tokOpen:
		t.tag = int(tr.varint())
		flags := tr.byte()
		if flags&flagHasKey != 0 {
			if id, ok := tr.dictID("key", len(tr.dict.keys)); ok {
				t.key = tr.dict.key(id)
			}
		}
		if flags&flagHasTime != 0 {
			t.data, t.time = tr.time()
		}
	case tokText:
		t.data = tr.str()
	case tokAttr:
		if !attrFollows(tr.cur.op) {
			tr.fail(corruptf("attribute after content"))
			return
		}
		t.tag = int(tr.varint())
		if id, ok := tr.dictID("value", len(tr.dict.values)); ok {
			t.data = tr.dict.values[id]
		}
	case tokClose, tokTSClose:
	case tokTSOpen:
		t.data, t.time = tr.time()
	default:
		tr.fail(corruptf("unknown opcode %#x", op))
		return
	}
	if !tr.done {
		tr.cur = t
	}
}

// attrFollows reports whether an attribute may follow a token of op prev.
// An attribute belongs to a start tag. No writer puts one after content,
// and a reader that met one could only hoist it back.
func attrFollows(prev byte) bool { return prev == tokOpen || prev == tokAttr || prev == tokTSOpen }

// discardSubtree skips the balance of an already-consumed open token — or
// group-open token: the two kinds of bracket nest — without materializing
// any tokens: payloads (text, key annotations, timestamps) are discarded
// from the buffer instead of decoded into strings. Queries use it for
// every subtree and content group whose timestamp excludes the requested
// version, so skipping dead parts of the archive allocates nothing.
func (tr *tokenReader) discardSubtree() error {
	if tr.done {
		return corruptf("truncated subtree")
	}
	depth := 1
	// The lookahead token is already decoded; account for it first.
	switch tr.cur.op {
	case tokOpen, tokTSOpen:
		depth++
	case tokClose, tokTSClose:
		depth--
	}
	for depth > 0 && !tr.done {
		op, err := tr.readOp()
		if err != nil {
			tr.fail(err)
			break
		}
		switch op {
		case tokOpen:
			depth++
			tr.varint() // tag id
			flags := tr.byte()
			if flags&flagHasKey != 0 {
				tr.varint() // key id
			}
			if flags&flagHasTime != 0 {
				tr.varint() // timestamp id
			}
		case tokText:
			tr.skipStr()
		case tokTSOpen:
			depth++
			tr.varint() // timestamp id
		case tokAttr:
			tr.varint() // name id
			tr.varint() // value id
		case tokClose, tokTSClose:
			depth--
		default:
			tr.fail(corruptf("unknown opcode %#x", op))
		}
	}
	if tr.err != nil {
		return tr.err
	}
	if depth > 0 {
		return corruptf("truncated subtree")
	}
	tr.cur = token{op: tokClose} // what the lookahead follows
	tr.next()                    // re-prime the lookahead
	return nil
}

// peek returns the current token; ok is false at end of stream.
func (tr *tokenReader) peek() (token, bool) {
	if tr.done {
		return token{}, false
	}
	return tr.cur, true
}

// take returns the current token and advances.
func (tr *tokenReader) take() (token, bool) {
	t, ok := tr.peek()
	if ok {
		tr.next()
	}
	return t, ok
}

// mustTake is take where the stream may not end, inside the element named.
// An ended reader reports the error that ended it first: a read that failed
// is not corruption, and must not send the operator to fsck -repair.
func (tr *tokenReader) mustTake(in string) (token, error) {
	t, ok := tr.take()
	if ok {
		return t, nil
	}
	if tr.err != nil {
		return t, tr.err
	}
	return t, corruptf("truncated archive at %s", in)
}
