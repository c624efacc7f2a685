package extmem

import (
	"fmt"
	"slices"
	"strings"

	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// sortTree writes the §6.2 sorted token stream of a version already held
// as a tree: one walk of doc, in lockstep with the specification's
// compiled trie, that at every keyed level computes each element child's
// composite key, orders the children by (name, key) and descends in that
// order. A tree knows a keyed node's key value at its open tag, so the
// open token carries the key inline; nothing here touches a scratch file
// besides out. The stream is byte for byte what the external sort
// (decompose.go, sort.go) makes of the tree's serialization — adjacent
// text coalesced, whitespace-only text and namespace declarations
// dropped, attributes in canonical order, dictionary ids assigned in
// document order — except that names and values are taken from the tree
// as they are, not through an escape and re-parse.
func sortTree(doc *xmltree.Node, spec *keys.Spec, dict *dictionary, out *tokenWriter) error {
	s := &treeSorter{dict: dict, out: out}
	// Emitting in sorted order would also number new names in sorted
	// order; the dictionary is on disk, so number them first, as met.
	s.intern(doc)
	cur := spec.Cursor().Child(doc.Name)
	key, err := s.keyValue(doc, cur.Key())
	if err != nil {
		return err
	}
	return s.keyed(keyedChild{doc, cur, key})
}

type treeSorter struct {
	dict *dictionary
	out  *tokenWriter

	path  []string             // names of the open keyed elements, for errors
	canon xmltree.AppendBuffer // scratch for one key-path value
	attrs []*xmltree.Node      // scratch for attributes that need sorting
	kids  []keyedChild         // stack of the open keyed levels' children
}

// keyedChild is an element at or above the frontier, the cursor the
// specification matches it as, and its composite key.
type keyedChild struct {
	node *xmltree.Node
	cur  keys.Cursor
	key  *tkey
}

func (s *treeSorter) intern(x *xmltree.Node) {
	s.dict.id(x.Name)
	for _, a := range s.sortedAttrs(x) {
		s.dict.id(a.Name)
	}
	for _, c := range x.Children {
		if c.Kind == xmltree.Element {
			s.intern(c)
		}
	}
}

// keyed emits the subtree of x: a frontier node's content as it stands, a
// node above the frontier with its children sorted.
func (s *treeSorter) keyed(x keyedChild) error {
	s.open(x.node, x.key)
	if x.cur.Frontier() {
		s.content(x.node)
		return nil
	}
	s.path = append(s.path, x.node.Name)
	base := len(s.kids)
	for i := 0; i < len(x.node.Children); i++ {
		c := x.node.Children[i]
		switch c.Kind {
		case xmltree.Text:
			var text string
			if text, i = textRun(x.node.Children, i); strings.TrimSpace(text) != "" {
				return fmt.Errorf("extmem: %s: text above the frontier", pathString(s.path))
			}
		case xmltree.Element:
			cur := x.cur.Child(c.Name)
			key, err := s.keyValue(c, cur.Key())
			if err != nil {
				return err
			}
			s.kids = append(s.kids, keyedChild{c, cur, key})
		}
	}
	// Deeper levels push and pop above this one's children, so kids stays
	// valid — if s.kids is reallocated, as the old array — while they run.
	kids := s.kids[base:]
	slices.SortFunc(kids, func(a, b keyedChild) int {
		if c := strings.Compare(a.node.Name, b.node.Name); c != 0 {
			return c
		}
		return compareKeys(a.key, b.key)
	})
	for i, c := range kids {
		if i > 0 && c.node.Name == kids[i-1].node.Name && compareKeys(c.key, kids[i-1].key) == 0 {
			return fmt.Errorf("extmem: %s: more than one child %s", pathString(s.path), keyLabel(c.node.Name, c.key))
		}
		if err := s.keyed(c); err != nil {
			return err
		}
	}
	s.kids = s.kids[:base]
	s.path = s.path[:len(s.path)-1]
	s.out.close()
	return nil
}

// open writes x's open token and attributes.
func (s *treeSorter) open(x *xmltree.Node, key *tkey) {
	s.out.open(s.dict.id(x.Name), key, "")
	for _, a := range s.sortedAttrs(x) {
		s.out.attr(s.dict.id(a.Name), a.Data)
	}
}

// content writes the children of x, an element at or below the frontier,
// in document order, and x's close token.
func (s *treeSorter) content(x *xmltree.Node) {
	for i := 0; i < len(x.Children); i++ {
		c := x.Children[i]
		switch c.Kind {
		case xmltree.Text:
			var text string
			if text, i = textRun(x.Children, i); strings.TrimSpace(text) != "" {
				s.out.text(text)
			}
		case xmltree.Element:
			s.open(c, nil)
			s.content(c)
		}
	}
	s.out.close()
}

// textRun returns the concatenation of the run of text children that
// starts at children[i], and the index of the run's last node.
func textRun(children []*xmltree.Node, i int) (string, int) {
	text := children[i].Data
	for i+1 < len(children) && children[i+1].Kind == xmltree.Text {
		i++
		text += children[i].Data
	}
	return text, i
}

// isNamespaceDecl reports whether an attribute name declares a namespace.
// Such attributes are not part of the data model: the tokenizer never
// hands one out, so only a tree built in code can still carry one.
func isNamespaceDecl(name string) bool {
	return name == "xmlns" || strings.HasPrefix(name, "xmlns:")
}

// sortedAttrs returns x's attributes in canonical (name, value) order
// without namespace declarations. The result is x.Attrs itself when that
// already qualifies, otherwise scratch valid until the next call.
func (s *treeSorter) sortedAttrs(x *xmltree.Node) []*xmltree.Node {
	ok := true
	for i, a := range x.Attrs {
		if isNamespaceDecl(a.Name) || (i > 0 && xmltree.Compare(x.Attrs[i-1], a) > 0) {
			ok = false
			break
		}
	}
	if ok {
		return x.Attrs
	}
	s.attrs = s.attrs[:0]
	for _, a := range x.Attrs {
		if !isNamespaceDecl(a.Name) {
			s.attrs = append(s.attrs, a)
		}
	}
	slices.SortFunc(s.attrs, xmltree.Compare) // attributes order by (name, value)
	return s.attrs
}

// keyValue computes the composite key of x, a child of the element s.path
// names, under k: canonical key-path values in the key's precomputed §4.2
// order.
func (s *treeSorter) keyValue(x *xmltree.Node, k *keys.Key) (*tkey, error) {
	if k == nil {
		return nil, fmt.Errorf("extmem: unkeyed element %s above the frontier", pathString(append(s.path, x.Name)))
	}
	key := &tkey{paths: k.SortedKeyPathNames()}
	if len(k.KeyPaths) > 0 {
		key.canon = make([]string, len(k.KeyPaths))
	}
	for out, i := range k.KeyPathOrder() {
		kp := k.KeyPaths[i]
		v, found := kp.ResolveUnique(x)
		if found != 1 {
			n := "more than one node"
			if found == 0 {
				n = "0 nodes"
			}
			return nil, fmt.Errorf("extmem: %s: key path %s of %s resolves to %s", pathString(append(s.path, x.Name)), kp, k, n)
		}
		s.canon.Reset()
		s.writeCanon(v)
		key.canon[out] = s.canon.String()
	}
	return key, nil
}

// writeCanon appends the canonical form of a key-path value (an element
// or attribute) to s.canon, as the streaming decomposer memorizes it:
// over the same normalized view of the tree that content emits.
func (s *treeSorter) writeCanon(n *xmltree.Node) {
	w := &s.canon
	if n.Kind == xmltree.Attr {
		w.WriteString("a(")
		xmltree.EscapeCanonical(w, n.Name)
		w.WriteByte('=')
		xmltree.EscapeCanonical(w, n.Data)
		w.WriteByte(')')
		return
	}
	w.WriteString("e(")
	xmltree.EscapeCanonical(w, n.Name)
	for _, a := range s.sortedAttrs(n) {
		s.writeCanon(a)
	}
	for i := 0; i < len(n.Children); i++ {
		c := n.Children[i]
		switch c.Kind {
		case xmltree.Text:
			var text string
			if text, i = textRun(n.Children, i); strings.TrimSpace(text) != "" {
				w.WriteString("t(")
				xmltree.EscapeCanonical(w, text)
				w.WriteByte(')')
			}
		case xmltree.Element:
			s.writeCanon(c)
		}
	}
	w.WriteByte(')')
}
