package extmem

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// sortSlab has the specification check the document in the writer's slab
// and store its keys, and turns it into the §6.2 sorted token stream, in the
// writer's token buffer: one walk in lockstep with the specification's
// compiled trie that at every keyed level orders the element children by
// (name, key) over a stack of node indexes and descends in that order. The
// tokens are the document's serialization's — adjacent text joined,
// whitespace-only text and namespace declarations dropped, attributes in
// canonical order, dictionary ids assigned in document order — and the
// merge reads them where they are, or a run file takes them (sort.go). The
// caller zeroes the buffer once it is done with them.
//
// A document with violations fails with a *keys.ViolationsError that
// names every one; what the sort itself refuses after a clean check is
// two children that only the text the archiver drops told apart
// (footnote 3).
func (ar *Archiver) sortSlab() ([]token, error) {
	d := &ar.flat
	if errs := ar.spec.Check(d); len(errs) > 0 {
		return nil, &keys.ViolationsError{Violations: errs}
	} else if len(d.Nodes) == 0 {
		return ar.toks[:0], nil
	}
	s := &flatSorter{d: d, tags: make([]int, len(d.Names)), bare: map[*keys.Key]*tkey{}}
	// Emitting in sorted order would also number new names in sorted
	// order; the dictionary is on disk, so number them first, as met.
	elements, tag := 0, func(name int32) {
		if s.tags[name] == 0 {
			s.tags[name] = ar.dict.id(d.Names[name]) + 1
		}
	}
	for i := range d.Nodes {
		if d.Nodes[i].Kind != xmltree.Element {
			continue
		}
		elements++
		tag(d.Nodes[i].Name)
		s.attrs = d.SortedAttrs(s.attrs[:0], int32(i), true)
		for _, a := range s.attrs {
			tag(d.Nodes[a].Name)
		}
	}
	// Sized to the version; a store whose versions grow regrows it once an
	// eighth of growth, not at every add.
	if need := len(d.Nodes) + elements; cap(ar.toks) < need {
		ar.toks = make([]token, 0, need+cap(ar.toks)/8)
	}
	s.toks = ar.toks[:0]
	cur := ar.spec.Cursor().Child(d.Name(0))
	err := errUnchecked
	if cur.Key() != nil && d.Nodes[0].Key >= 0 {
		s.enter(0, 1)
		err = s.keyed(0, cur, s.key(0, cur.Key()))
	}
	if err != nil {
		clear(s.toks)
		return nil, err
	}
	return s.toks, nil
}

type flatSorter struct {
	d    *xmltree.Flat
	tags []int // dictionary id by slab name id, 0 until met (ids are 1-based)
	toks []token

	path  []string  // names of the open keyed elements, for errors
	kids  []flatKid // stack of the open keyed levels' children
	attrs []int32   // scratch for one element's attributes

	// The root's key, or the child of the root being emitted: its arena
	// bytes [ca, cb) as one string, its keys' as another, and the room for
	// their annotations.
	ca, cb int
	text   string
	keyStr string
	keyLo  int // where keyStr begins in d.Keys
	tkeys  []tkey
	canon  []string
	bare   map[*keys.Key]*tkey // the one annotation of each key without paths
}

// flatKid is an element at or above the frontier, the cursor the
// specification matches it as, and its composite key's bytes in d.Keys.
type flatKid struct {
	node int32
	cur  keys.Cursor
	key  []byte
}

// errUnchecked stops the sort at what a clean key check leaves none of:
// text, or an element without a key, above the frontier.
var errUnchecked = errors.New("extmem: internal error: the sort met what the key check refuses")

// key returns element n's key annotation, cut from the room enter made.
func (s *flatSorter) key(n int32, k *keys.Key) *tkey {
	if len(k.KeyPaths) == 0 {
		// Such a key is its path names alone: one annotation serves all.
		t := s.bare[k]
		if t == nil {
			t = &tkey{paths: k.SortedKeyPathNames()}
			s.bare[k] = t
		}
		return t
	}
	t, first, parts := &s.tkeys[0], int(s.d.Nodes[n].Key), len(k.KeyPaths)
	s.tkeys = s.tkeys[1:]
	t.paths = k.SortedKeyPathNames()
	t.canon, s.canon = s.canon[:parts:parts], s.canon[parts:]
	for j := range t.canon {
		t.canon[j] = s.keyStr[s.d.KeyStart(first+j)-s.keyLo : s.d.KeyEnds[first+j]-s.keyLo]
	}
	return t
}

// enter makes the nodes from c up to end the ones being emitted: one
// string for their text and attribute values, one for their keys, and the
// room for their annotations. Per child of the root, so that what the
// archive keeps past the add — directory keys, the postings' facts —
// keeps that child's bytes alive, never the whole version's.
func (s *flatSorter) enter(c, end int32) {
	d := s.d
	s.ca, s.cb = d.ArenaAt(c), d.ArenaAt(end)
	s.text = string(d.Arena[s.ca:s.cb])
	lo, hi, keyed := d.KeyParts(c, end)
	s.keyLo = d.KeyStart(lo)
	s.keyStr = string(d.Keys[s.keyLo:d.KeyStart(hi)])
	s.tkeys, s.canon = make([]tkey, keyed), make([]string, hi-lo)
}

// str returns the bytes [off, end) of the arena as a string: a piece of the
// current child's, or a copy.
func (s *flatSorter) str(off, end int) string {
	if s.ca <= off && end <= s.cb {
		return s.text[off-s.ca : end-s.ca]
	}
	return string(s.d.Arena[off:end])
}

// keyed emits the subtree of element n: a frontier node's content as it
// stands, a node above the frontier with its children sorted.
func (s *flatSorter) keyed(n int32, cur keys.Cursor, key *tkey) error {
	d := s.d
	s.open(n, key)
	if cur.Frontier() {
		s.content(n)
		return nil
	}
	s.path = append(s.path, d.Name(n))
	base := len(s.kids)
	for c := d.Nodes[n].First; c >= 0; c = d.Nodes[c].Next {
		switch d.Nodes[c].Kind {
		case xmltree.Text:
			return errUnchecked
		case xmltree.Element:
			cc := cur.Child(d.Name(c))
			k := cc.Key()
			if k == nil || d.Nodes[c].Key < 0 {
				return errUnchecked
			}
			s.kids = append(s.kids, flatKid{c, cc, d.Key(c, len(k.KeyPaths))})
		}
	}
	// Deeper levels push and pop above this one's children, so kids stays
	// valid — if s.kids is reallocated, as the old array — while they run.
	kids := s.kids[base:]
	order := func(a, b flatKid) int {
		if c := strings.Compare(d.Name(a.node), d.Name(b.node)); c != 0 {
			return c
		}
		return bytes.Compare(a.key, b.key)
	}
	slices.SortFunc(kids, order)
	for i, c := range kids {
		if n == 0 {
			s.enter(c.node, d.SubtreeEnd(c.node))
		}
		key := s.key(c.node, c.cur.Key())
		if i > 0 && order(kids[i-1], c) == 0 {
			return fmt.Errorf("extmem: %s: more than one child %s", pathString(s.path), keyLabel(d.Name(c.node), key))
		}
		if err := s.keyed(c.node, c.cur, key); err != nil {
			return err
		}
	}
	s.kids = s.kids[:base]
	s.path = s.path[:len(s.path)-1]
	s.toks = append(s.toks, token{op: tokClose})
	return nil
}

// open emits element n's open token and attributes.
func (s *flatSorter) open(n int32, key *tkey) {
	d := s.d
	s.toks = append(s.toks, token{op: tokOpen, tag: s.tags[d.Nodes[n].Name] - 1, key: key})
	s.attrs = d.SortedAttrs(s.attrs[:0], n, true)
	for _, a := range s.attrs {
		s.toks = append(s.toks, token{op: tokAttr, tag: s.tags[d.Nodes[a].Name] - 1, data: s.str(d.Nodes[a].Off, d.Nodes[a].End)})
	}
}

// content emits the children of element n, at or below the frontier, in
// document order, and n's close token.
func (s *flatSorter) content(n int32) {
	d := s.d
	for c := d.Nodes[n].First; c >= 0; c = d.Nodes[c].Next {
		switch d.Nodes[c].Kind {
		case xmltree.Text:
			first := c
			var text []byte
			if text, c = d.TextRun(c); len(bytes.TrimSpace(text)) == 0 {
				break
			}
			data := s.str(d.Nodes[first].Off, d.Nodes[first].End)
			if c != first {
				data = string(text)
			}
			s.toks = append(s.toks, token{op: tokText, data: data})
		case xmltree.Element:
			if n == 0 {
				s.enter(c, d.SubtreeEnd(c))
			}
			s.open(c, nil)
			s.content(c)
		}
	}
	s.toks = append(s.toks, token{op: tokClose})
}
