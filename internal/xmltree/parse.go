package xmltree

import (
	"fmt"
	"io"
	"strings"
)

// Parse reads an XML document and returns its root element. Whitespace-only
// text nodes are dropped (the paper's model ignores inter-element
// whitespace); other text is preserved verbatim, with adjacent character
// data coalesced into one T-node. Comments, processing instructions and
// directives are skipped. Names are resolved as Tokenizer documents. A
// malformed document fails with an error wrapping a *SyntaxError.
func Parse(r io.Reader) (*Node, error) { return parse(NewTokenizer(r)) }

func parse(t *Tokenizer) (*Node, error) {
	var root *Node
	var open []*Node // the open elements
	var marks []int  // marks[i] is where open[i]'s children begin in kids
	var kids []*Node // the children met so far of every open element
	for {
		ev, err := t.Next()
		if err == io.EOF {
			return root, nil
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch ev {
		case StartEvent:
			n := &Node{Kind: Element, Name: t.Name}
			if len(t.Attrs) > 0 {
				nodes := make([]Node, len(t.Attrs))
				n.Attrs = make([]*Node, len(t.Attrs))
				for i, a := range t.Attrs {
					nodes[i] = Node{Kind: Attr, Name: a.Name, Data: a.Value}
					n.Attrs[i] = &nodes[i]
				}
			}
			if root == nil {
				root = n
			} else {
				kids = append(kids, n)
			}
			open, marks = append(open, n), append(marks, len(kids))
		case EndEvent:
			// An element's children are known at its end tag: one slice
			// of the exact size, where appending as they came would have
			// grown one by doubling.
			top, mark := len(open)-1, marks[len(open)-1]
			if mark < len(kids) {
				open[top].Children = append([]*Node(nil), kids[mark:]...)
			}
			open, marks, kids = open[:top], marks[:top], kids[:mark]
		case TextEvent:
			kids = append(kids, TextNode(t.Text))
		}
	}
}

// ParseString is Parse over a string.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s))
}

// MustParseString is ParseString that panics on error; for tests and
// literals.
func MustParseString(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}
