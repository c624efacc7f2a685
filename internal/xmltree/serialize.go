package xmltree

import (
	"bufio"
	"io"
	"strings"
	"sync"
)

// WriteOptions controls serialization.
type WriteOptions struct {
	// Indent enables the line-oriented layout used throughout the paper's
	// experiments: every start tag, text line and end tag is written on its
	// own line, indented by depth, so that "each element is represented by
	// one or more consecutive lines separate from other elements" (§5) and
	// line diff yields compact deltas.
	Indent bool
	// IndentString is the per-level indentation; defaults to two spaces.
	IndentString string
}

// Sink receives a document as events in document order: an element's
// attributes follow its Open before any of its content. hasText says the
// element has a text child, which decides its layout in indented XML
// before its first child arrives. Writer and Builder are the two sinks;
// every producer of XML — a tree, a version streamed from the external
// engine's tokens, an archive in the paper's form — feeds one of them.
type Sink interface {
	Open(name string, hasText bool)
	Attr(name, value string)
	Text(data string)
	Close()
}

// Writer is the one XML writer: it serializes Sink events, holding only a
// stack of the open elements. Whatever produced the events, the same
// document comes out as the same bytes.
type Writer struct {
	w      *bufio.Writer
	indent string
	stack  []frame
	// open says the innermost element's start tag awaits its '>': it has
	// no child yet. flat says what comes next is written without line
	// breaks or indentation: everything is when Indent is off, and with
	// it on everything inside an element that has a text child — so
	// indented output round-trips exactly (indentation never leaks into
	// character data) and leaves keep the <name>finance</name> layout of
	// the paper's figures.
	open, flat bool
}

type frame struct {
	name string
	flat bool // the enclosing content's flat
}

// NewWriter returns a Writer over w. The caller flushes w when done.
func NewWriter(w *bufio.Writer, opts WriteOptions) *Writer {
	x := &Writer{stack: make([]frame, 0, 16)}
	x.reset(w, opts)
	return x
}

func (x *Writer) reset(w *bufio.Writer, opts WriteOptions) {
	if opts.IndentString == "" {
		opts.IndentString = "  "
	}
	x.w, x.indent, x.stack, x.open, x.flat = w, opts.IndentString, x.stack[:0], false, !opts.Indent
}

// endStart writes the '>' of a start tag that awaits it (x.open); the
// callers test x.open, so the common case costs no call.
func (x *Writer) endStart() {
	x.open = false
	x.w.WriteByte('>')
	if !x.flat {
		x.w.WriteByte('\n')
	}
}

// indentLine indents a line at the given depth, outside flat content.
func (x *Writer) indentLine(depth int) {
	if x.flat {
		return
	}
	for range depth {
		x.w.WriteString(x.indent)
	}
}

// Open starts an element.
func (x *Writer) Open(name string, hasText bool) {
	if x.open {
		x.endStart()
	}
	x.indentLine(len(x.stack))
	x.w.WriteByte('<')
	x.w.WriteString(name)
	x.stack = append(x.stack, frame{name: name, flat: x.flat})
	x.open, x.flat = true, x.flat || hasText
}

// Attr writes an attribute of the element just opened.
func (x *Writer) Attr(name, value string) {
	x.w.WriteByte(' ')
	x.w.WriteString(name)
	x.w.WriteString(`="`)
	EscapeAttr(x.w, value)
	x.w.WriteByte('"')
}

// Text writes character data. Outside flat content — only a bare text
// node written alone meets this — it takes a line of its own.
func (x *Writer) Text(data string) {
	if x.open {
		x.endStart()
	}
	x.indentLine(len(x.stack))
	EscapeText(x.w, data)
	if !x.flat {
		x.w.WriteByte('\n')
	}
}

// Close ends the innermost open element.
func (x *Writer) Close() {
	n := len(x.stack) - 1
	fr := &x.stack[n]
	if x.open {
		x.open = false
		x.w.WriteString("/>")
	} else {
		x.indentLine(n)
		x.w.WriteString("</")
		x.w.WriteString(fr.name)
		x.w.WriteByte('>')
	}
	x.stack, x.flat = x.stack[:n], fr.flat
	if !x.flat {
		x.w.WriteByte('\n')
	}
}

// node walks the subtree rooted at n into x.
func (x *Writer) node(n *Node) {
	switch n.Kind {
	case Text:
		x.Text(n.Data)
		return
	case Attr:
		// A bare attribute outside an element has no XML form; render it
		// the way canonical form does so it is at least visible.
		if x.open {
			x.endStart()
		}
		x.w.WriteByte('@')
		x.w.WriteString(n.Name)
		x.w.WriteString(`="`)
		EscapeAttr(x.w, n.Data)
		x.w.WriteByte('"')
		return
	}
	hasText := false
	for i := 0; i < len(n.Children) && !x.flat && !hasText; i++ {
		hasText = n.Children[i].Kind == Text
	}
	x.Open(n.Name, hasText)
	for _, a := range n.Attrs {
		x.Attr(a.Name, a.Data)
	}
	for _, c := range n.Children {
		x.node(c)
	}
	x.Close()
}

// writers keeps Node.Write's Writers, each with its buffer, across calls:
// a small document costs no allocation.
var writers = sync.Pool{New: func() any { return NewWriter(bufio.NewWriter(io.Discard), WriteOptions{}) }}

// Write serializes the subtree rooted at n.
func (n *Node) Write(w io.Writer, opts WriteOptions) error {
	x := writers.Get().(*Writer)
	x.reset(x.w, opts)
	x.w.Reset(w)
	x.node(n)
	err := x.w.Flush()
	x.w.Reset(io.Discard)
	writers.Put(x)
	return err
}

// XML returns the compact single-line serialization.
func (n *Node) XML() string {
	var b strings.Builder
	_ = n.Write(&b, WriteOptions{})
	return b.String()
}

// IndentedXML returns the line-oriented serialization used for the space
// experiments and for the line-diff baselines.
func (n *Node) IndentedXML() string {
	var b strings.Builder
	_ = n.Write(&b, WriteOptions{Indent: true})
	return b.String()
}

// Builder assembles Sink events into a tree.
type Builder struct {
	Root  *Node // the tree built so far: nil before the first event
	stack []*Node
}

func (b *Builder) place(n *Node) {
	if len(b.stack) == 0 {
		b.Root = n
	} else {
		b.stack[len(b.stack)-1].Append(n)
	}
}

// Open starts an element.
func (b *Builder) Open(name string, _ bool) {
	e := Elem(name)
	b.place(e)
	b.stack = append(b.stack, e)
}

// Attr adds an attribute to the element just opened.
func (b *Builder) Attr(name, value string) { b.place(AttrNode(name, value)) }

// Text adds a text node.
func (b *Builder) Text(data string) { b.place(TextNode(data)) }

// Close ends the innermost open element.
func (b *Builder) Close() { b.stack = b.stack[:len(b.stack)-1] }

// EscapeText writes s with XML character-data escaping, as Writer does.
func EscapeText(w *bufio.Writer, s string) { escape(w, s, &textEscapes) }

// EscapeAttr writes s with XML attribute-value escaping (quotes, newlines
// and tabs escaped so values round-trip), as Writer does.
func EscapeAttr(w *bufio.Writer, s string) { escape(w, s, &attrEscapes) }

// A carriage return is escaped in both: written raw it would come back
// from any XML parser as a line feed.
var textEscapes = [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '\r': "&#13;"}
var attrEscapes = [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '\r': "&#13;",
	'"': "&quot;", '\n': "&#10;", '\t': "&#9;"}

// escape writes s with each byte that has an entry in esc replaced by it,
// and each run between two such bytes in one write.
func escape(w *bufio.Writer, s string, esc *[256]string) {
	run := 0
	for i := 0; i < len(s); i++ {
		if e := esc[s[i]]; e != "" {
			w.WriteString(s[run:i])
			w.WriteString(e)
			run = i + 1
		}
	}
	w.WriteString(s[run:])
}
