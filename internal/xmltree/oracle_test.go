package xmltree_test

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	. "xarch/internal/xmltree" // dot import: the oracle's body stays as it was written inside the package
)

// parseEncodingXML is the oracle the tokenizer is held against: Parse as it
// stood, verbatim, while encoding/xml was the archive's XML front end.
// FuzzParseVsEncodingXML requires that, for any bytes, it and Parse both
// reject or both accept with Canonical-identical trees.
func parseEncodingXML(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	var text strings.Builder

	flushText := func() {
		if text.Len() == 0 {
			return
		}
		s := text.String()
		text.Reset()
		if strings.TrimSpace(s) == "" {
			return
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			top.Children = append(top.Children, TextNode(s))
		}
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			flushText()
			n := &Node{Kind: Element, Name: qname(t.Name)}
			for _, a := range t.Attr {
				name := qname(a.Name)
				if name == "xmlns" || strings.HasPrefix(name, "xmlns:") {
					continue
				}
				n.Attrs = append(n.Attrs, AttrNode(name, a.Value))
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements (%s, %s)", root.Name, n.Name)
				}
				root = n
			} else {
				top := stack[len(stack)-1]
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			flushText()
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", qname(t.Name))
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text.Write(t)
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unclosed element %s", stack[len(stack)-1].Name)
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: no root element")
	}
	return root, nil
}

func qname(n xml.Name) string {
	// encoding/xml resolves prefixes to namespace URLs in Name.Space; for
	// the archiver we only care about the local structure, and the T tag
	// namespace (§2) is handled at the archive layer, so we use the local
	// name, qualifying only true prefixes that did not resolve.
	if n.Space == "" {
		return n.Local
	}
	if strings.ContainsAny(n.Space, ":/") {
		// A resolved URL; drop it and keep the local name.
		return n.Local
	}
	return n.Space + ":" + n.Local
}
