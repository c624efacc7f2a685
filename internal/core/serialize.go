package core

import (
	"io"
	"strings"

	"xarch/internal/annotate"
	"xarch/internal/anode"
	"xarch/internal/xmltree"
)

// ToXMLTree renders the archive as a plain XML tree in the paper's format
// (§2, Fig 5): a node whose timestamp differs from its parent's is wrapped
// in a <T t="..."> element; timestamped content alternatives below
// frontier nodes become <T t="..."> groups; attribute items inside a group
// are carried by <_attr n="name"> elements (XML cannot hold bare
// attributes as children).
func (a *Archive) ToXMLTree() *xmltree.Node {
	rootElem := xmltree.Elem("root")
	appendChild(rootElem, a.root)
	top := xmltree.Elem(annotate.TimestampTag, rootElem)
	top.SetAttr("t", a.root.Time.String())
	return top
}

// appendChild appends the XML form of n's children to e.
func appendChild(e *xmltree.Node, n *anode.Node) {
	if n.Groups != nil {
		for _, g := range n.Groups {
			if g.Time == nil {
				for _, it := range g.Content {
					e.Append(NodeXML(it))
				}
				continue
			}
			t := xmltree.Elem(annotate.TimestampTag)
			t.SetAttr("t", g.Time.String())
			for _, it := range g.Content {
				if it.Kind == xmltree.Attr {
					w := xmltree.Elem(annotate.AttrItemTag, xmltree.TextNode(it.Data))
					w.SetAttr("n", it.Name)
					t.Append(w)
					continue
				}
				t.Append(NodeXML(it))
			}
			e.Append(t)
		}
		return
	}
	for _, attr := range n.Attrs {
		e.Append(xmltree.AttrNode(attr.Name, attr.Data))
	}
	for _, c := range n.Children {
		ce := NodeXML(c)
		if c.Time != nil {
			t := xmltree.Elem(annotate.TimestampTag, ce)
			t.SetAttr("t", c.Time.String())
			e.Append(t)
		} else {
			e.Append(ce)
		}
	}
}

// NodeXML converts one archive node (without its own timestamp wrapper)
// to the paper's XML form, the form ToXMLTree gives it in the whole
// archive: the external engine renders its frontier records through it.
func NodeXML(n *anode.Node) *xmltree.Node {
	switch n.Kind {
	case xmltree.Text:
		return xmltree.TextNode(n.Data)
	case xmltree.Attr:
		return xmltree.AttrNode(n.Name, n.Data)
	}
	e := xmltree.Elem(n.Name)
	appendChild(e, n)
	return e
}

// WriteXML writes the archive's XML form. With indent, the line-oriented
// layout used by the space experiments is produced.
func (a *Archive) WriteXML(w io.Writer, indent bool) error {
	return a.ToXMLTree().Write(w, xmltree.WriteOptions{Indent: indent})
}

// XML returns the indented XML form of the archive.
func (a *Archive) XML() string {
	var b strings.Builder
	_ = a.WriteXML(&b, true)
	return b.String()
}
