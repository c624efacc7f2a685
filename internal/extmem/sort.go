package extmem

// The external sort of §6.2, for a version streamed in that does not fit
// the memory budget: the document is read in pieces, each the root element
// and a run of whole children of the root, no larger than the budget
// allows (a child that is larger still comes whole); each piece is checked
// and sorted in the slab like any other version (treesort.go) and its
// sorted children go to a run file, one record per child in the segment
// encoding: a head — its length, then the child's label (tag id and key)
// and the lengths of the rest — the child's own dictionary section, and
// its payload. The
// segment merge reads the runs directly, one child at a time (runMerge), so
// every run byte is read once. Sequential: read, sort and write one piece,
// then the next, then the merge.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"

	"xarch/internal/fsio"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// cut reports whether a streamed version's piece in the slab is to end
// before the next child of the root: once it holds Config.Budget nodes,
// unless the key check needs the root whole (keys.Cursor.Piecewise). A
// child of the root always comes whole, which loses nothing: the segment
// writer buffers each one whole anyway.
func (ar *Archiver) cut(d *xmltree.Flat) bool {
	return len(d.Nodes) >= ar.cfg.Budget && ar.spec.Cursor().Child(d.Name(0)).Piecewise()
}

// sortRuns sorts the rest of a streamed version whose first piece is in the
// slab: every piece's sorted children go to a run file, and the sorted
// version is the root's open token and attributes with the run merge
// behind them. It returns every run file it created, also on failure.
func (ar *Archiver) sortRuns(pieces *xmltree.FlatReader) (sortedVersion, []string, error) {
	var head []token // the root's open token and attributes
	var scratch []string
	for more := true; ; {
		toks, err := ar.sortSlab()
		if err != nil {
			return sortedVersion{}, scratch, err
		}
		if head == nil {
			h := 1
			for h < len(toks) && toks[h].op == tokAttr {
				h++
			}
			head = slices.Clone(toks[:h])
		}
		path := ar.tmpPath(fmt.Sprintf("run%04d.tok", len(scratch)))
		scratch = append(scratch, path)
		err = ar.writeRun(path, toks[len(head):len(toks)-1])
		clear(toks)
		if err != nil {
			return sortedVersion{}, scratch, err
		}
		if !more {
			break
		}
		if more, err = pieces.Next(&ar.flat, ar.cut); err != nil {
			return sortedVersion{}, scratch, err
		}
	}
	root, err := ar.dict.name(head[0].tag)
	m := &runMerge{ar: ar, root: root, toks: ar.toks[:0]}
	for _, path := range scratch {
		if err == nil {
			err = m.open(path)
		}
	}
	if err != nil {
		m.close()
		return sortedVersion{}, scratch, err
	}
	return sortedVersion{toks: head, runs: m}, scratch, nil
}

// writeRun writes toks, sorted children of the root, to a run file at path.
func (ar *Archiver) writeRun(path string, toks []token) error {
	f, err := ar.fs.Create(path)
	if err != nil {
		return fmt.Errorf("extmem: %w", err)
	}
	bw, done := pooledWriter(f)
	// Not the segment writer's capture and encoder: a capture clears its
	// tables per child, at a cost that grows with the largest segment they
	// ever held.
	var c captureWriter
	var enc segEncoder
	var head kdWriter
	var n []byte
	depth := 0
	for _, t := range toks {
		if depth == 0 {
			head.b.Reset()
			head.varint(uint64(t.tag))
			head.key(t.key)
			c.reset()
		}
		c.writeToken(t)
		if t.op == tokOpen {
			depth++
		} else if t.op == tokClose {
			depth--
		}
		if depth > 0 {
			continue
		}
		enc.encode(&c)
		head.varint(uint64(enc.dict.b.Len()))
		head.varint(uint64(len(enc.pay)))
		n = binary.AppendUvarint(n[:0], uint64(head.b.Len()))
		bw.Write(n)
		bw.Write(head.b.Bytes())
		bw.Write(enc.dict.b.Bytes())
		bw.Write(enc.pay)
	}
	c.reset()
	err = bw.Flush()
	done()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runMerge is §6.2's multi-way merge of the runs, at level 2: it hands the
// segment merge the children of the root, smallest label first, and then
// the root's close. A run never splits a child of the root, so one label at
// the head of two runs is two children with one key: a key violation. Per
// run it holds a read buffer and the label of the child at the run's head;
// beyond that, the one child being merged, decoded: its tokens and its
// dictionary.
type runMerge struct {
	ar    *Archiver
	root  string
	runs  []*run
	dec   *tokenReader     // decodes the chosen child's payload
	lim   io.LimitedReader // the payload under dec
	buf   []byte           // record heads and dictionary sections
	toks  []token          // the child being merged
	ended bool             // the root's close is handed out
}

// run is one run file being read, and the label of the record at its head.
type run struct {
	f         fsio.File
	br        *bufio.Reader
	head      bool // a record is at the head; false once the run is drained
	name      string
	key       *tkey
	dict, pay int64 // the head record's section lengths
}

// open opens the run file at path and reads the label at its head.
func (m *runMerge) open(path string) error {
	f, err := m.ar.fs.Open(path)
	if err != nil {
		return fmt.Errorf("extmem: open run: %w", err)
	}
	r := &run{f: f, br: readerPool.Get().(*bufio.Reader)}
	r.br.Reset(f)
	m.runs = append(m.runs, r)
	return m.advance(r)
}

// read reads the next n bytes of r into m.buf.
func (m *runMerge) read(r *run, n int64) error {
	m.buf = slices.Grow(m.buf[:0], int(n))[:n]
	if _, err := io.ReadFull(r.br, m.buf); err != nil {
		return fmt.Errorf("extmem: read run: %w", err)
	}
	return nil
}

// advance reads the label of r's next record, if any.
func (m *runMerge) advance(r *run) error {
	n, err := binary.ReadUvarint(r.br)
	if r.head = err != io.EOF; !r.head {
		return nil
	} else if err != nil {
		return fmt.Errorf("extmem: read run: %w", err)
	} else if err := m.read(r, int64(n)); err != nil {
		return err
	}
	h := &kdReader{s: string(m.buf)}
	tag := h.varint()
	r.key = h.key()
	r.dict, r.pay = int64(h.varint()), int64(h.varint())
	if h.err != nil {
		return fmt.Errorf("extmem: run record: %w", h.err)
	}
	r.name, err = m.ar.dict.name(int(tag))
	return err
}

// next returns the tokens of the next child of the root, then the root's
// close, then none. They are valid until the next call.
func (m *runMerge) next() ([]token, error) {
	clear(m.toks)
	m.toks = m.toks[:0]
	var r *run
	for _, c := range m.runs {
		if !c.head {
			continue
		}
		if r != nil {
			if cmp := compareLabels(c.name, c.key, r.name, r.key); cmp == 0 {
				k := m.ar.spec.Cursor().Child(m.root).Child(c.name).Key()
				return nil, &keys.ViolationsError{Violations: []*keys.ValidationError{
					{Path: "/" + m.root, Key: k.String(), Msg: "duplicate key value among targets"}}}
			} else if cmp > 0 {
				continue
			}
		}
		r = c
	}
	if r == nil {
		if !m.ended {
			m.ended = true
			m.toks = append(m.toks, token{op: tokClose})
		}
		return m.toks, nil
	}
	if err := m.read(r, r.dict); err != nil {
		return nil, err
	}
	dict, err := decodeSegDict(m.buf)
	if err != nil {
		return nil, err
	}
	m.lim = io.LimitedReader{R: r.br, N: r.pay}
	if m.dec == nil {
		m.dec = newTokenReaderDict(&m.lim, dict, 0)
	} else {
		m.dec.reset(&m.lim, dict, 0)
	}
	for t, ok := m.dec.take(); ok; t, ok = m.dec.take() {
		m.toks = append(m.toks, t)
	}
	if m.dec.err != nil {
		return nil, m.dec.err
	} else if m.lim.N != 0 {
		return nil, fmt.Errorf("extmem: run %s ends inside a child of /%s", r.f.Name(), m.root)
	}
	return m.toks, m.advance(r)
}

// close closes the run files and zeroes the child's tokens, which hold its
// strings.
func (m *runMerge) close() {
	for _, r := range m.runs {
		r.f.Close()
		r.br.Reset(strings.NewReader(""))
		readerPool.Put(r.br)
	}
	m.runs = nil
	if m.dec != nil {
		m.dec.release()
		m.dec = nil
	}
	clear(m.toks)
}
