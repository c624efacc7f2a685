package xmltree

import (
	"bufio"
	"io"
	"strings"
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

// Write serializes the subtree rooted at n.
func (n *Node) Write(w io.Writer, opts WriteOptions) error {
	if opts.IndentString == "" {
		opts.IndentString = "  "
	}
	bw := bufio.NewWriter(w)
	writeNode(bw, n, opts, 0)
	return bw.Flush()
}

// WriteDepth serializes the subtree rooted at n into an existing buffered
// writer as if it sat at the given indentation depth of a larger
// serialization. Streaming serializers (the external engine's query path)
// use it to emit bounded subtrees byte-identically to a whole-tree Write,
// without building the enclosing document.
func (n *Node) WriteDepth(w *bufio.Writer, opts WriteOptions, depth int) {
	if opts.IndentString == "" {
		opts.IndentString = "  "
	}
	writeNode(w, n, opts, depth)
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

func writeNode(w *bufio.Writer, n *Node, opts WriteOptions, depth int) {
	switch n.Kind {
	case Text:
		if opts.Indent {
			writeIndent(w, opts, depth)
		}
		EscapeText(w, n.Data)
		if opts.Indent {
			w.WriteByte('\n')
		}
		return
	case Attr:
		// A bare attribute outside an element has no XML form; render it
		// the way canonical form does so it is at least visible.
		w.WriteString("@")
		w.WriteString(n.Name)
		w.WriteString("=\"")
		EscapeAttr(w, n.Data)
		w.WriteString("\"")
		return
	}
	if opts.Indent {
		writeIndent(w, opts, depth)
	}
	w.WriteByte('<')
	w.WriteString(n.Name)
	for _, a := range n.Attrs {
		w.WriteByte(' ')
		w.WriteString(a.Name)
		w.WriteString(`="`)
		EscapeAttr(w, a.Data)
		w.WriteByte('"')
	}
	if len(n.Children) == 0 {
		w.WriteString("/>")
		if opts.Indent {
			w.WriteByte('\n')
		}
		return
	}
	// An element with any text content is written inline on one line, so
	// indented output round-trips exactly (indentation never leaks into
	// character data) and leaves keep the <name>finance</name> layout of
	// the paper's figures.
	if opts.Indent && hasTextChild(n) {
		w.WriteByte('>')
		for _, c := range n.Children {
			writeNode(w, c, WriteOptions{}, 0)
		}
		w.WriteString("</")
		w.WriteString(n.Name)
		w.WriteString(">\n")
		return
	}
	w.WriteByte('>')
	if opts.Indent {
		w.WriteByte('\n')
	}
	for _, c := range n.Children {
		writeNode(w, c, opts, depth+1)
	}
	if opts.Indent {
		writeIndent(w, opts, depth)
	}
	w.WriteString("</")
	w.WriteString(n.Name)
	w.WriteByte('>')
	if opts.Indent {
		w.WriteByte('\n')
	}
}

func hasTextChild(n *Node) bool {
	for _, c := range n.Children {
		if c.Kind == Text {
			return true
		}
	}
	return false
}

func writeIndent(w *bufio.Writer, opts WriteOptions, depth int) {
	for i := 0; i < depth; i++ {
		w.WriteString(opts.IndentString)
	}
}

// EscapeText writes s with XML character-data escaping. It is the single
// text-escaping implementation shared by both engines' serializers.
func EscapeText(w *bufio.Writer, s string) { escape(w, s, &textEscapes) }

// EscapeAttr writes s with XML attribute-value escaping (quotes, newlines
// and tabs escaped so values round-trip); shared by both engines.
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
