package extmem

import (
	"bufio"
	"fmt"
	"io"

	"xarch/internal/core"
	"xarch/internal/intervals"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// ---------------------------------------------------------------------------
// Version retrieval (§7.1, streaming)

// versionSink receives the projection of one version as events in document
// order. hasText says the element has a text child at that version: what
// decides its layout in indented XML, before its first child arrives.
type versionSink interface {
	open(name string, hasText bool)
	attr(name, value string)
	text(data string)
	close()
}

// versionWalk is one projection of version v onto a sink: a single pass of
// one token reader over the bytes alive at v, building nothing. Memory is
// O(depth + one frontier record's tokens).
type versionWalk struct {
	q    *QueryView
	v    int
	sink versionSink
	tr   *tokenReader

	// The tokens of one frontier record that are alive at v (emitFrontier).
	// hasText[i] is set when toks[i] opens an element with a text child;
	// stack holds the indexes of the open tokens not yet closed.
	toks    []token
	hasText []bool
	stack   []int
}

// streamVersion projects version v into the sink, walking the key
// directory: roots and level-2 entries whose interval summary excludes v
// are skipped without reading a byte of them, dead subtrees below are
// skipped undecoded, and live ones are emitted.
func (q *QueryView) streamVersion(v int, sink versionSink) error {
	if v < 1 || v > q.versions {
		return fmt.Errorf("extmem: version %d out of range 1..%d: %w", v, q.versions, core.ErrNoSuchVersion)
	}
	w := &versionWalk{q: q, v: v, sink: sink}
	emitted := false
	for _, r := range q.d.roots {
		eff := q.rootEff(r)
		if !eff.Contains(v) {
			continue
		}
		if emitted {
			return fmt.Errorf("extmem: multiple roots at version %d: %w", v, core.ErrCorruptArchive)
		}
		emitted = true
		if err := w.emitRoot(r, eff); err != nil {
			return err
		}
	}
	return nil
}

// emitRoot emits a root alive at v from one stream: a raw root's whole
// subtree, or the byte ranges of the level-2 entries alive at v. Entries
// that sit next to each other in a segment share a range, and the stream
// keeps a segment's file open from one range to the next, so a version
// costs one open per segment, not one per entry.
func (w *versionWalk) emitRoot(r *rootRecord, eff *intervals.Set) error {
	up := w.q.spec.Cursor()
	var parts []streamPart
	if r.raw {
		parts = rootParts(r)
	} else {
		for _, s := range r.segs {
			for i := range s.entries {
				e := &s.entries[i]
				if !entryEff(e, eff).Contains(w.v) {
					continue // skipped without any I/O
				}
				if n := len(parts); n > 0 && parts[n-1].seg == s && parts[n-1].off+parts[n-1].n == e.offset {
					parts[n-1].n += e.size
				} else {
					parts = append(parts, streamPart{seg: s, off: e.offset, n: e.size})
				}
			}
		}
		up = up.Child(r.name)
		w.sink.open(r.name, false)
		for _, a := range r.attrs {
			w.sink.attr(a.name, a.value)
		}
	}
	w.tr = w.q.ar.readParts(parts)
	defer w.tr.release()
	for {
		t, ok := w.tr.take()
		if !ok {
			break
		}
		if t.op != tokOpen {
			return corruptf("unexpected token %#x at the head of a subtree of %s", t.op, r.name)
		}
		if err := w.emitNode(t, up); err != nil {
			return err
		}
	}
	if w.tr.err != nil {
		return w.tr.err
	}
	if !r.raw {
		w.sink.close()
	}
	return nil
}

// dead reports whether the timestamp of an open or group-open token
// excludes v; a node without one lives as long as its parent.
func (w *versionWalk) dead(t token) (bool, error) {
	if t.data == "" {
		return false, nil
	}
	ts, err := tokenEff(t)
	if err != nil {
		return false, corruptf("bad timestamp %q", t.data)
	}
	return !ts.Contains(w.v), nil
}

// emitNode projects the node whose open token t was just taken onto
// version v; up is the key spec's position at the node's parent.
func (w *versionWalk) emitNode(t token, up keys.Cursor) error {
	name, err := w.q.name(t.tag)
	if err != nil {
		return err
	}
	cur := up.Child(name)
	if cur.Frontier() {
		return w.emitFrontier(t)
	}
	w.sink.open(name, false)
	for {
		t, err := w.tr.mustTake(name)
		if err != nil {
			return err
		}
		switch t.op {
		case tokAttr: // the reader has refused one that follows a child
			an, err := w.q.name(t.tag)
			if err != nil {
				return err
			}
			w.sink.attr(an, t.data)
		case tokOpen:
			dead, err := w.dead(t)
			if err != nil {
				return err
			}
			if dead {
				err = w.tr.discardSubtree()
			} else {
				err = w.emitNode(t, cur)
			}
			if err != nil {
				return err
			}
		case tokClose:
			w.sink.close()
			return nil
		default:
			return corruptf("unexpected token %#x above the frontier", t.op)
		}
	}
}

// emitFrontier projects the frontier record whose open token t was just
// taken: its shared content plus the content of every group alive at v, in
// stream order (which is the archive's group order). Indented XML writes an
// element on one line iff it has a text child, which its open token does
// not say, so the record's live tokens are collected and marked first and
// replayed as events after; groups dead at v are skipped undecoded.
func (w *versionWalk) emitFrontier(t token) error {
	w.toks, w.hasText, w.stack = append(w.toks[:0], t), append(w.hasText[:0], false), append(w.stack[:0], 0)
	inGroup := false
	for len(w.stack) > 0 {
		t, err := w.tr.mustTake("frontier content")
		if err != nil {
			return err
		}
		switch t.op {
		case tokTSOpen:
			if len(w.stack) != 1 || inGroup {
				return corruptf("nested timestamp group")
			}
			dead, err := w.dead(t)
			if err != nil {
				return err
			}
			if !dead {
				inGroup = true
			} else if err := w.tr.discardSubtree(); err != nil {
				return err
			}
			continue
		case tokTSClose:
			if len(w.stack) != 1 || !inGroup {
				return corruptf("unbalanced timestamp group")
			}
			inGroup = false
			continue
		case tokOpen:
			w.stack = append(w.stack, len(w.toks))
		case tokClose:
			w.stack = w.stack[:len(w.stack)-1]
		case tokText:
			w.hasText[w.stack[len(w.stack)-1]] = true
		case tokAttr:
			// The reader refuses an attribute after content in the stream;
			// this one follows content of another live group.
			if last := w.toks[len(w.toks)-1].op; last != tokOpen && last != tokAttr {
				return corruptf("attribute after content")
			}
		}
		w.toks = append(w.toks, t)
		w.hasText = append(w.hasText, false)
	}
	if inGroup {
		return corruptf("unterminated timestamp group")
	}
	for i, t := range w.toks {
		switch t.op {
		case tokOpen, tokAttr:
			name, err := w.q.name(t.tag)
			if err != nil {
				return err
			}
			if t.op == tokOpen {
				w.sink.open(name, w.hasText[i])
			} else {
				w.sink.attr(name, t.data)
			}
		case tokText:
			w.sink.text(t.data)
		case tokClose:
			w.sink.close()
		}
	}
	return nil
}

// treeSink assembles the projected version as an xmltree document.
type treeSink struct {
	stack []*xmltree.Node
	root  *xmltree.Node
}

func (s *treeSink) place(n *xmltree.Node) {
	if len(s.stack) == 0 {
		s.root = n
	} else {
		s.stack[len(s.stack)-1].Append(n)
	}
}

func (s *treeSink) open(name string, _ bool) {
	e := xmltree.Elem(name)
	s.place(e)
	s.stack = append(s.stack, e)
}

func (s *treeSink) attr(name, value string) { s.place(xmltree.AttrNode(name, value)) }

func (s *treeSink) text(data string) { s.place(xmltree.TextNode(data)) }

func (s *treeSink) close() { s.stack = s.stack[:len(s.stack)-1] }

// Version reconstructs version v as a document tree from one stream. It
// returns (nil, nil) when version v was archived as an empty database.
func (q *QueryView) Version(v int) (*xmltree.Node, error) {
	var s treeSink
	if err := q.streamVersion(v, &s); err != nil {
		return nil, err
	}
	return s.root, nil
}

// xmlSink streams the projected version as XML, writing byte-identically
// to xmltree's serializer without holding the version in memory: only a
// stack of the open elements is kept.
type xmlSink struct {
	w     *bufio.Writer
	opts  xmltree.WriteOptions
	stack []xmlFrame
}

type xmlFrame struct {
	name    string
	started bool // the start tag is closed: a child has been written
	flat    bool // the content is written without line breaks or indentation
}

// flat reports whether what comes next, under the innermost open element,
// is written without line breaks: everything is when Indent is off, and
// with it on everything inside an element that has a text child — so
// indented output round-trips exactly, as xmltree's serializer has it.
func (s *xmlSink) flat() bool {
	if n := len(s.stack); n > 0 {
		return s.stack[n-1].flat
	}
	return !s.opts.Indent
}

// closeStart finishes the enclosing element's start tag before its first
// child is written.
func (s *xmlSink) closeStart() {
	if n := len(s.stack); n > 0 && !s.stack[n-1].started {
		s.stack[n-1].started = true
		s.w.WriteByte('>')
		if !s.flat() {
			s.w.WriteByte('\n')
		}
	}
}

func (s *xmlSink) indent(depth int) {
	for i := 0; i < depth; i++ {
		s.w.WriteString(s.opts.IndentString)
	}
}

func (s *xmlSink) open(name string, hasText bool) {
	s.closeStart()
	if !s.flat() {
		s.indent(len(s.stack))
	}
	s.w.WriteByte('<')
	s.w.WriteString(name)
	s.stack = append(s.stack, xmlFrame{name: name, flat: hasText || s.flat()})
}

func (s *xmlSink) attr(name, value string) {
	s.w.WriteByte(' ')
	s.w.WriteString(name)
	s.w.WriteString(`="`)
	xmltree.EscapeAttr(s.w, value)
	s.w.WriteByte('"')
}

func (s *xmlSink) text(data string) {
	s.closeStart()
	xmltree.EscapeText(s.w, data)
}

func (s *xmlSink) close() {
	n := len(s.stack) - 1
	fr := s.stack[n]
	s.stack = s.stack[:n]
	if !fr.started {
		s.w.WriteString("/>")
	} else {
		if !fr.flat {
			s.indent(n)
		}
		s.w.WriteString("</")
		s.w.WriteString(fr.name)
		s.w.WriteByte('>')
	}
	if !s.flat() {
		s.w.WriteByte('\n')
	}
}

// WriteVersion streams the XML of version v directly to w — the bytes are
// identical to serializing Version(v), but no version tree is built. An
// empty version writes nothing.
func (q *QueryView) WriteVersion(v int, w io.Writer, opts xmltree.WriteOptions) error {
	if opts.IndentString == "" {
		opts.IndentString = "  "
	}
	bw, done := pooledWriter(w)
	defer done()
	sink := &xmlSink{w: bw, opts: opts}
	if err := q.streamVersion(v, sink); err != nil {
		return err
	}
	return bw.Flush()
}
