package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Flat is a document held flat: one slice of nodes in document order over
// one byte arena, the in-memory form of the token stream the archiver
// sorts. It holds no pointer per node, so the collector never walks it, and
// it is meant to be reused: Read and Load keep every slice's room.
//
// An element's children — its attributes first, then its element and text
// children in document order — are chained from First through Next, so a
// subtree is the run of nodes from its element to the next node that is
// not below it, and its text and attribute bytes are one run of the arena.
type Flat struct {
	Nodes []FlatNode // Nodes[0] is the root element; none for no document
	Names []string   // element and attribute names by id, in order of first use
	Arena []byte     // attribute values and text, in document order

	// Keys and KeyEnds hold what keys.Spec.Check stores: the canonical key
	// path values of keyed elements, back to back in document order. Part p
	// is Keys[KeyStart(p):KeyEnds[p]]; an element's parts follow one
	// another from its Key, as many as its key has paths.
	Keys    []byte
	KeyEnds []int

	// Normalized reports that the document is as the tokenizer hands out
	// documents: no text that is white space only, no two text nodes side
	// by side, no namespace declaration among the attributes. Then a
	// value's canonical form as a tree (Canonical) and as data
	// (AppendCanonical, normalized) coincide.
	Normalized bool

	ids   map[string]int32
	open  []openElem
	attrs []int32 // scratch of AppendCanonical
	run   []byte  // scratch of AppendCanonical
}

// FlatNode is one node of a Flat.
type FlatNode struct {
	Kind   Kind
	Name   int32 // element or attribute name id; -1 for text
	Parent int32 // -1 for the root
	First  int32 // first child; -1 for none
	Next   int32 // next sibling; -1 for none
	Key    int32 // the element's first key part (Flat.KeyEnds); -1 for none
	// Off and End delimit a text's or attribute value's bytes in Arena; an
	// element's are both where its subtree's bytes begin.
	Off, End int
}

// openElem is an element Read or Load has not closed, and its last child.
type openElem struct{ node, last int32 }

// Flatten returns the tree rooted at n as a Flat, every node kept as it
// stands (an empty one for a nil n).
func Flatten(n *Node) *Flat {
	d := &Flat{}
	d.Load(n)
	return d
}

func (d *Flat) reset() {
	if d.ids == nil {
		d.ids = make(map[string]int32)
	}
	clear(d.ids)
	d.Nodes, d.Names, d.Arena = d.Nodes[:0], d.Names[:0], d.Arena[:0]
	d.Keys, d.KeyEnds = d.Keys[:0], d.KeyEnds[:0]
	d.open = d.open[:0]
	d.Normalized = true
}

// Load makes d the tree rooted at n, sized to it in one step.
func (d *Flat) Load(n *Node) {
	d.reset()
	if n == nil {
		return
	}
	nodes, size := 0, 0
	n.Walk(func(x *Node) bool {
		nodes++
		size += len(x.Data)
		return true
	})
	d.Nodes = slices.Grow(d.Nodes, nodes)
	d.Arena = slices.Grow(d.Arena, size)
	d.load(n)
}

func (d *Flat) load(n *Node) {
	switch n.Kind {
	case Element:
		d.start(n.Name)
		for _, a := range n.Attrs {
			d.attr(a.Name, a.Data)
		}
		for _, c := range n.Children {
			d.load(c)
		}
		d.end()
	case Text:
		flatText(d, n.Data)
	}
}

// Read makes d the document r holds, tokenized (see Tokenizer) straight
// into the slab. A malformed document fails like Parse, leaving d empty.
func (d *Flat) Read(r io.Reader) error {
	_, err := NewFlatReader(r).Next(d, nil)
	return err
}

// FlatReader tokenizes one document into a Flat, whole or in pieces. Every
// piece holds the root element with its attributes and a run of whole
// children of the root: the pieces' children, in order, are the root's.
type FlatReader struct {
	t     *Tokenizer
	root  string
	attrs []Attribute
	held  bool // t holds the start of a root child that begins the next piece
}

// NewFlatReader returns a reader of the document r holds.
func NewFlatReader(r io.Reader) *FlatReader {
	t := NewTokenizer(r)
	t.rawText = true
	return &FlatReader{t: t}
}

// Next makes d the next piece of the document and reports whether another
// follows. A piece ends with the document, or before a child of the root
// when it holds one already and cut(d) holds; a nil cut never ends one
// early, so the first piece is the whole document. A malformed document
// fails like Parse, leaving d empty.
func (fr *FlatReader) Next(d *Flat, cut func(*Flat) bool) (more bool, err error) {
	d.reset()
	t, held, kids := fr.t, fr.held, false
	if held {
		d.start(fr.root)
		for _, a := range fr.attrs {
			d.attr(a.Name, a.Value)
		}
	}
	fr.held = false
	for {
		ev := StartEvent
		if !held {
			if ev, err = t.Next(); err == io.EOF {
				return false, nil
			} else if err != nil {
				d.reset()
				return false, fmt.Errorf("xmltree: parse: %w", err)
			}
		}
		held = false
		switch ev {
		case StartEvent:
			switch len(d.open) {
			case 0:
				fr.root, fr.attrs = t.Name, append(fr.attrs[:0], t.Attrs...)
			case 1:
				if kids && cut != nil && cut(d) {
					fr.held = true
					return true, nil
				}
				kids = true
			}
			d.start(t.Name)
			for _, a := range t.Attrs {
				d.attr(a.Name, a.Value)
			}
		case EndEvent:
			d.end()
		case TextEvent:
			flatText(d, t.raw)
		}
	}
}

// add appends a node as the next child of the innermost open element.
func (d *Flat) add(kind Kind, name int32, off, end int) int32 {
	i := int32(len(d.Nodes))
	parent := int32(-1)
	if n := len(d.open); n > 0 {
		top := &d.open[n-1]
		if parent = top.node; top.last < 0 {
			d.Nodes[parent].First = i
		} else {
			if kind == Text && d.Nodes[top.last].Kind == Text {
				d.Normalized = false
			}
			d.Nodes[top.last].Next = i
		}
		top.last = i
	}
	d.Nodes = append(d.Nodes, FlatNode{Kind: kind, Name: name, Parent: parent, First: -1, Next: -1, Key: -1, Off: off, End: end})
	return i
}

func (d *Flat) name(s string) int32 {
	id, ok := d.ids[s]
	if !ok {
		id = int32(len(d.Names))
		d.ids[s] = id
		d.Names = append(d.Names, s)
	}
	return id
}

func (d *Flat) start(name string) {
	i := d.add(Element, d.name(name), len(d.Arena), len(d.Arena))
	d.open = append(d.open, openElem{node: i, last: -1})
}

func (d *Flat) end() { d.open = d.open[:len(d.open)-1] }

func (d *Flat) attr(name, value string) {
	if isNamespaceDecl(name) {
		d.Normalized = false
	}
	off := len(d.Arena)
	d.Arena = append(d.Arena, value...)
	d.add(Attr, d.name(name), off, len(d.Arena))
}

func flatText[S string | []byte](d *Flat, s S) {
	off := len(d.Arena)
	d.Arena = append(d.Arena, s...)
	if len(bytes.TrimSpace(d.Arena[off:])) == 0 {
		d.Normalized = false
	}
	d.add(Text, -1, off, len(d.Arena))
}

// isNamespaceDecl reports whether an attribute name declares a namespace.
// Such attributes are not part of the data model: the tokenizer never
// hands one out, so only a tree built in code can still carry one.
func isNamespaceDecl(name string) bool {
	return name == "xmlns" || strings.HasPrefix(name, "xmlns:")
}

// Name returns the name of element or attribute i.
func (d *Flat) Name(i int32) string { return d.Names[d.Nodes[i].Name] }

// value returns the text or attribute value of node i.
func (d *Flat) value(i int32) []byte { n := &d.Nodes[i]; return d.Arena[n.Off:n.End] }

// SubtreeEnd returns the index behind the subtree of node i.
func (d *Flat) SubtreeEnd(i int32) int32 {
	for ; i >= 0; i = d.Nodes[i].Parent {
		if next := d.Nodes[i].Next; next >= 0 {
			return next
		}
	}
	return int32(len(d.Nodes))
}

// ArenaAt returns where the arena bytes of the nodes from index i on begin.
func (d *Flat) ArenaAt(i int32) int {
	if int(i) < len(d.Nodes) {
		return d.Nodes[i].Off
	}
	return len(d.Arena)
}

// KeyStart returns where key part p begins in Keys.
func (d *Flat) KeyStart(p int) int {
	if p == 0 {
		return 0
	}
	return d.KeyEnds[p-1]
}

// KeyParts returns the key parts stored for the elements from index i up
// to j — the first, and the one behind the last — and how many of those
// elements have any.
func (d *Flat) KeyParts(i, j int32) (lo, hi, keyed int) {
	lo, last := -1, -1
	for ; i < j; i++ {
		if k := int(d.Nodes[i].Key); k >= 0 {
			if lo < 0 {
				lo = k
			} else if k > last {
				keyed++
			}
			last = k
		}
	}
	if lo < 0 {
		return 0, 0, 0
	}
	for hi = len(d.KeyEnds); int(j) < len(d.Nodes); j++ {
		if k := d.Nodes[j].Key; k >= 0 {
			hi = int(k)
			break
		}
	}
	if hi > last {
		keyed++
	}
	return lo, hi, keyed
}

// Key returns the composite key stored for element i, whose key has parts
// paths: its parts' canonical forms back to back. Canonical forms are
// self-delimiting, so comparing two such byte strings compares the keys
// part by part.
func (d *Flat) Key(i int32, parts int) []byte {
	p := int(d.Nodes[i].Key)
	return d.Keys[d.KeyStart(p):d.KeyStart(p+parts)]
}

// SortedAttrs appends the attributes of element i to dst in canonical
// (name, value) order, leaving out namespace declarations when normalized
// is set.
func (d *Flat) SortedAttrs(dst []int32, i int32, normalized bool) []int32 {
	base, sorted := len(dst), true
	for a := d.Nodes[i].First; a >= 0 && d.Nodes[a].Kind == Attr; a = d.Nodes[a].Next {
		if normalized && isNamespaceDecl(d.Name(a)) {
			continue
		}
		if len(dst) > base && d.compareAttrs(dst[len(dst)-1], a) > 0 {
			sorted = false
		}
		dst = append(dst, a)
	}
	if !sorted {
		slices.SortStableFunc(dst[base:], d.compareAttrs)
	}
	return dst
}

func (d *Flat) compareAttrs(a, b int32) int {
	if c := strings.Compare(d.Name(a), d.Name(b)); c != 0 {
		return c
	}
	return bytes.Compare(d.value(a), d.value(b))
}

// AppendCanonical appends the canonical form (§4.3) of node i to dst and
// returns the extended buffer. Plain, it is the form Canonical gives the
// tree d was loaded from; normalized, the form of the data model the
// archiver stores, which its keys are computed over: namespace
// declarations left out, adjacent text joined, and text that is white
// space only dropped. The two differ only where d is not Normalized.
func (d *Flat) AppendCanonical(dst []byte, i int32, normalized bool) []byte {
	n := &d.Nodes[i]
	switch n.Kind {
	case Text:
		return appendTextItem(dst, d.value(i))
	case Attr:
		dst = append(dst, "a("...)
		dst = appendEscaped(dst, d.Name(i))
		dst = append(dst, '=')
		dst = appendEscaped(dst, d.value(i))
		return append(dst, ')')
	}
	dst = append(dst, "e("...)
	dst = appendEscaped(dst, d.Name(i))
	base := len(d.attrs)
	d.attrs = d.SortedAttrs(d.attrs, i, normalized)
	for k := base; k < len(d.attrs); k++ {
		dst = d.AppendCanonical(dst, d.attrs[k], false)
	}
	d.attrs = d.attrs[:base]
	for c := d.Nodes[i].First; c >= 0; c = d.Nodes[c].Next {
		switch d.Nodes[c].Kind {
		case Element:
			dst = d.AppendCanonical(dst, c, normalized)
		case Text:
			if !normalized {
				dst = appendTextItem(dst, d.value(c))
				break
			}
			var text []byte
			text, c = d.TextRun(c)
			if len(bytes.TrimSpace(text)) > 0 {
				dst = appendTextItem(dst, text)
			}
		}
	}
	return append(dst, ')')
}

// TextRun returns the text of the run of text siblings that starts at
// node i, and the run's last node. A run of more than one node is joined
// in scratch valid until the next call.
func (d *Flat) TextRun(i int32) ([]byte, int32) {
	next := d.Nodes[i].Next
	if next < 0 || d.Nodes[next].Kind != Text {
		return d.value(i), i
	}
	d.run = append(d.run[:0], d.value(i)...)
	for ; next >= 0 && d.Nodes[next].Kind == Text; next = d.Nodes[next].Next {
		i = next
		d.run = append(d.run, d.value(i)...)
	}
	return d.run, i
}

func appendTextItem(dst, text []byte) []byte {
	dst = append(dst, "t("...)
	dst = appendEscaped(dst, text)
	return append(dst, ')')
}

// appendEscaped is EscapeCanonical for an append-style buffer.
func appendEscaped[S string | []byte](dst []byte, s S) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', ')', '=', '\\':
			dst = append(append(dst, s[start:i]...), '\\', s[i])
			start = i + 1
		}
	}
	return append(dst, s[start:]...)
}
