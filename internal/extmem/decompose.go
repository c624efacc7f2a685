package extmem

// The external sort of §6, first half. This file and sort.go serve one
// input only: XML streamed into a store opened WithValidation(false),
// which is how a version larger than memory gets in. Nothing here holds
// more than O(height) of the document: decompose splits the stream into a
// token file and key files (§6.1), sort.go reads them back into
// bounded-memory sorted runs and merges the runs (§6.2). A version that
// arrives as a tree is sorted in memory instead (treesort.go) and touches
// none of this.

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

// memo is an in-flight memorization of a key-path value (the (**) steps of
// Annotate Keys, §4.1).
type memo struct {
	rec     *pendingKey
	pathIdx int
	depth   int // element depth at which the memorized subtree began
	b       strings.Builder
}

// pendingKey collects the key-path values of one open keyed node.
type pendingKey struct {
	key    *keys.Key
	depth  int
	filled []bool
	values []string
}

// decomposer streams one XML document into the internal representation
// plus key files (§6.1), running the stack algorithm of §4.1. A keyed
// node's key value is complete only at its close tag, after its open
// token has been written, so the values go to per-pattern key files that
// the run former pops in step.
type decomposer struct {
	dict *dictionary

	tokens  *tokenWriter
	keyOut  map[string]*tokenWriter // key file per keyed-path pattern met so far
	keyFile func(pattern string) (*tokenWriter, error)

	path     []string
	cursors  []keys.Cursor // cursors[i] matches path[:i]; descends the spec with the document
	pendings []*pendingKey
	memos    []*memo
	depth    int
}

// decompose streams the XML document from r, writing the token stream to
// tokens and composite key values to per-pattern key files, each obtained
// from keyFile when its pattern first closes a node. The caller flushes
// and closes the writers.
func decompose(r io.Reader, spec *keys.Spec, dict *dictionary, tokens *tokenWriter,
	keyFile func(pattern string) (*tokenWriter, error)) error {

	d := &decomposer{
		cursors: []keys.Cursor{spec.Cursor()},
		dict:    dict,
		tokens:  tokens,
		keyOut:  map[string]*tokenWriter{},
		keyFile: keyFile,
	}
	// The tokenizer has already done what the event loop would otherwise
	// repeat: names resolved, namespace declarations dropped, one text
	// event per gap between tags and none for white space, tags balanced
	// under one root.
	t := xmltree.NewTokenizer(r)
	for {
		ev, err := t.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("extmem: parse: %w", err)
		}
		switch ev {
		case xmltree.StartEvent:
			err = d.start(t.Name, t.Attrs)
		case xmltree.EndEvent:
			err = d.end()
		case xmltree.TextEvent:
			d.text(t.Text)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decomposer) text(s string) {
	d.tokens.text(s)
	for _, m := range d.memos {
		m.b.WriteString("t(")
		xmltree.EscapeCanonical(&m.b, s)
		m.b.WriteByte(')')
	}
}

// start takes the tokenizer's attribute scratch, which is this call's to
// reorder.
func (d *decomposer) start(name string, attrs []xmltree.Attribute) error {
	d.path = append(d.path, name)
	cur := d.cursors[len(d.cursors)-1].Child(name)
	d.cursors = append(d.cursors, cur)
	d.depth++

	// Sorted attributes (canonical order).
	if len(attrs) > 1 {
		slices.SortFunc(attrs, func(a, b xmltree.Attribute) int {
			if c := strings.Compare(a.Name, b.Name); c != 0 {
				return c
			}
			return strings.Compare(a.Value, b.Value)
		})
	}

	// Key-path values of enclosing keyed nodes that begin at this element
	// start memorizing here ((**) of §4.1); key paths ending at one of
	// this element's attributes fill directly from the start tag.
	for _, p := range d.pendings {
		rel := keys.Path(d.path[p.depth:])
		for pi, kp := range p.key.KeyPaths {
			if len(kp) == 0 {
				continue
			}
			if kp.Matches(rel) {
				d.memos = append(d.memos, &memo{rec: p, pathIdx: pi, depth: d.depth})
			}
			if len(rel) == len(kp)-1 && kp[:len(kp)-1].Matches(rel) {
				if err := fillFromAttrs(p, pi, kp[len(kp)-1], attrs); err != nil {
					return fmt.Errorf("extmem: %s: %w", pathString(d.path), err)
				}
			}
		}
	}

	// A keyed element opens its own pending record; an empty key path
	// ({\e}) memorizes the node's whole value, and single-segment key
	// paths may fill from the node's own attributes.
	if k := cur.Key(); k != nil {
		p := &pendingKey{
			key:    k,
			depth:  d.depth,
			filled: make([]bool, len(k.KeyPaths)),
			values: make([]string, len(k.KeyPaths)),
		}
		d.pendings = append(d.pendings, p)
		for pi, kp := range k.KeyPaths {
			if len(kp) == 0 {
				d.memos = append(d.memos, &memo{rec: p, pathIdx: pi, depth: d.depth})
				continue
			}
			if len(kp) == 1 {
				if err := fillFromAttrs(p, pi, kp[0], attrs); err != nil {
					return fmt.Errorf("extmem: %s: %w", pathString(d.path), err)
				}
			}
		}
	}

	// Every active memorization (old and new) receives this element's
	// canonical fragment: new memos start their value with it.
	for _, m := range d.memos {
		m.b.WriteString("e(")
		xmltree.EscapeCanonical(&m.b, name)
		for _, a := range attrs {
			m.b.WriteString("a(")
			xmltree.EscapeCanonical(&m.b, a.Name)
			m.b.WriteByte('=')
			xmltree.EscapeCanonical(&m.b, a.Value)
			m.b.WriteByte(')')
		}
	}

	d.tokens.open(d.dict.id(name), nil, "")
	for _, a := range attrs {
		d.tokens.attr(d.dict.id(a.Name), a.Value)
	}
	return nil
}

func (d *decomposer) end() error {
	// Close canonical fragments; finish memorizations that began here.
	remaining := d.memos[:0]
	for _, m := range d.memos {
		m.b.WriteByte(')')
		if m.depth == d.depth {
			if err := m.rec.fill(m.pathIdx, m.b.String()); err != nil {
				return fmt.Errorf("extmem: %s: %w", pathString(d.path), err)
			}
			continue
		}
		remaining = append(remaining, m)
	}
	d.memos = remaining

	// If the closing node is keyed, its pending record is complete: write
	// the composite key value to the key file of its path pattern.
	if len(d.pendings) > 0 && d.pendings[len(d.pendings)-1].depth == d.depth {
		p := d.pendings[len(d.pendings)-1]
		d.pendings = d.pendings[:len(d.pendings)-1]
		for pi, kp := range p.key.KeyPaths {
			if !p.filled[pi] {
				return fmt.Errorf("extmem: %s: key path %s of %s resolves to 0 nodes",
					pathString(d.path), kp, p.key)
			}
		}
		pattern := p.key.Pattern()
		kw, ok := d.keyOut[pattern]
		if !ok {
			var err error
			kw, err = d.keyFile(pattern)
			if err != nil {
				return err
			}
			d.keyOut[pattern] = kw
		}
		writeKeyRecord(kw, p)
	}

	d.tokens.close()
	d.path = d.path[:len(d.path)-1]
	d.cursors = d.cursors[:len(d.cursors)-1]
	d.depth--
	return nil
}

// fill records one key-path value, rejecting duplicates ("every path Pi
// exists uniquely").
func (p *pendingKey) fill(pi int, canon string) error {
	if p.filled[pi] {
		return fmt.Errorf("key path %s of %s resolves to more than one node", p.key.KeyPaths[pi], p.key)
	}
	p.filled[pi] = true
	p.values[pi] = canon
	return nil
}

// writeKeyRecord appends a composite key value: path names and canonical
// values sorted by path name (§4.2's lexicographic key-path order).
func writeKeyRecord(kw *tokenWriter, p *pendingKey) {
	names := p.key.SortedKeyPathNames()
	kw.varint(uint64(len(names)))
	for out, i := range p.key.KeyPathOrder() {
		kw.str(names[out])
		kw.str(p.values[i])
	}
}

// keyReader is a key file being read back.
type keyReader struct {
	*rawReader
	f fsio.File
}

// rawReader reads the varint/string records of key files.
type rawReader struct {
	r   *bufio.Reader
	err error
}

func newRawReader(r io.Reader) *rawReader {
	return &rawReader{r: bufio.NewReaderSize(r, 32*1024)}
}

func (rr *rawReader) varint() (uint64, error) {
	if rr.err != nil {
		return 0, rr.err
	}
	v, err := binary.ReadUvarint(rr.r)
	if err != nil {
		rr.err = err
	}
	return v, err
}

func (rr *rawReader) str() (string, error) {
	n, err := rr.varint()
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(rr.r, buf); err != nil {
		rr.err = err
		return "", err
	}
	return string(buf), nil
}

// readKeyRecord pops the next composite key value from a key file.
func readKeyRecord(rr *rawReader) (*tkey, error) {
	n, err := rr.varint()
	if err != nil {
		return nil, err
	}
	k := &tkey{}
	for i := uint64(0); i < n; i++ {
		p, err := rr.str()
		if err != nil {
			return nil, err
		}
		c, err := rr.str()
		if err != nil {
			return nil, err
		}
		k.paths = append(k.paths, p)
		k.canon = append(k.canon, c)
	}
	return k, nil
}

// fillFromAttrs fills key path pi of p from a matching attribute.
func fillFromAttrs(p *pendingKey, pi int, seg string, attrs []xmltree.Attribute) error {
	for _, a := range attrs {
		if seg == a.Name || seg == keys.Wildcard {
			var b strings.Builder
			b.WriteString("a(")
			xmltree.EscapeCanonical(&b, a.Name)
			b.WriteByte('=')
			xmltree.EscapeCanonical(&b, a.Value)
			b.WriteByte(')')
			if err := p.fill(pi, b.String()); err != nil {
				return err
			}
		}
	}
	return nil
}
