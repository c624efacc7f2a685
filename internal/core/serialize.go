package core

import (
	"bufio"
	"io"
	"slices"
	"strings"

	"xarch/internal/annotate"
	"xarch/internal/anode"
	"xarch/internal/xmltree"
)

// emitArchive feeds the archive's XML form in the paper's format (§2,
// Fig 5) to s: a node whose timestamp differs from its parent's is wrapped
// in a <T t="..."> element; timestamped content alternatives below
// frontier nodes become <T t="..."> groups; attribute items inside a group
// are carried by <_attr n="name"> elements (XML cannot hold bare
// attributes as children).
func (a *Archive) emitArchive(s xmltree.Sink) {
	s.Open(annotate.TimestampTag, false)
	s.Attr("t", a.root.Time.String())
	emitElement(s, "root", a.root)
	s.Close()
}

// ToXMLTree renders the archive's XML form as a tree.
func (a *Archive) ToXMLTree() *xmltree.Node {
	var b xmltree.Builder
	a.emitArchive(&b)
	return b.Root
}

// EmitNode feeds one archive node (without its own timestamp wrapper) in
// the paper's XML form to s, the form it has in the whole archive: the
// external engine writes its frontier records through it.
func EmitNode(s xmltree.Sink, n *anode.Node) {
	switch n.Kind {
	case xmltree.Text:
		s.Text(n.Data)
	case xmltree.Attr:
		s.Attr(n.Name, n.Data)
	default:
		emitElement(s, n.Name, n)
	}
}

// emitElement feeds an element called name that holds n's content. The
// items of a group without a timestamp are the element's own content, so
// their attributes go in its start tag, wherever the group sits.
func emitElement(s xmltree.Sink, name string, n *anode.Node) {
	if n.Groups == nil {
		s.Open(name, slices.ContainsFunc(n.Children, func(c *anode.Node) bool { return isText(c) && c.Time == nil }))
		for _, attr := range n.Attrs {
			s.Attr(attr.Name, attr.Data)
		}
		for _, c := range n.Children {
			if c.Time != nil {
				s.Open(annotate.TimestampTag, isText(c))
				s.Attr("t", c.Time.String())
			}
			EmitNode(s, c)
			if c.Time != nil {
				s.Close()
			}
		}
		s.Close()
		return
	}
	hasText := false
	for _, g := range n.Groups {
		hasText = hasText || g.Time == nil && slices.ContainsFunc(g.Content, isText)
	}
	s.Open(name, hasText)
	for _, g := range n.Groups {
		for _, it := range g.Content {
			if g.Time == nil && it.Kind == xmltree.Attr {
				s.Attr(it.Name, it.Data)
			}
		}
	}
	for _, g := range n.Groups {
		if g.Time != nil {
			s.Open(annotate.TimestampTag, slices.ContainsFunc(g.Content, isText))
			s.Attr("t", g.Time.String())
		}
		for _, it := range g.Content {
			switch {
			case it.Kind != xmltree.Attr:
				EmitNode(s, it)
			case g.Time != nil:
				s.Open(annotate.AttrItemTag, true)
				s.Attr("n", it.Name)
				s.Text(it.Data)
				s.Close()
			}
		}
		if g.Time != nil {
			s.Close()
		}
	}
	s.Close()
}

func isText(n *anode.Node) bool { return n.Kind == xmltree.Text }

// WriteXML writes the archive's XML form. With indent, the line-oriented
// layout used by the space experiments is produced.
func (a *Archive) WriteXML(w io.Writer, indent bool) error {
	bw := bufio.NewWriter(w)
	a.emitArchive(xmltree.NewWriter(bw, xmltree.WriteOptions{Indent: indent}))
	return bw.Flush()
}

// XML returns the indented XML form of the archive.
func (a *Archive) XML() string {
	var b strings.Builder
	_ = a.WriteXML(&b, true)
	return b.String()
}
