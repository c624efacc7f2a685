package keys

import (
	"fmt"
	"slices"
)

// matcher is the compiled form of a normalized Spec: every keyed-path
// pattern and every context pattern folded into one deterministic segment
// trie. A trie node stands for the set of patterns a concrete path prefix
// is still compatible with — a literal edge already carries the patterns
// of its wildcard sibling — so matching a concrete path is a single
// descent, one step per segment, with no backtracking and no allocation,
// and a walker can take those steps in lockstep with the document.
type matcher struct {
	keyed    []*Key // all keys incl. implied, in deterministic order
	frontier []Path
	root     *state // the position above the document root ("/")
}

// state is one trie node.
type state struct {
	lit  map[string]*state
	wild *state // successor for a name with no literal edge; nil = none

	key      *Key   // keys[0]: what KeyFor answers here
	keys     []*Key // keys whose pattern ends here, in matcher.keyed order
	contexts []*Key // keys whose Context pattern ends here, same order
	frontier bool   // some frontier pattern ends here
}

// maxStates bounds the trie. Real specifications compile to about one
// state per distinct pattern prefix; only patterns built to overlap in
// every combination grow beyond that, and such a spec is rejected.
const maxStates = 1 << 16

// Cursor is a position in the compiled trie: the state of matching one
// concrete path. The zero Cursor matches nothing, and so do its children.
type Cursor struct{ st *state }

// Cursor returns the position above the document root; its Child(name)
// is the position of a root element called name.
func (s *Spec) Cursor() Cursor { return Cursor{s.matcher().root} }

// Child steps to the child element or attribute called name.
func (c Cursor) Child(name string) Cursor {
	if c.st == nil {
		return c
	}
	if n, ok := c.st.lit[name]; ok {
		return Cursor{n}
	}
	return Cursor{c.st.wild}
}

// Key returns the key of the path walked so far, or nil if it is not
// keyed. Where several patterns match, the first in AllKeys order wins.
func (c Cursor) Key() *Key {
	if c.st == nil {
		return nil
	}
	return c.st.key
}

// Frontier reports whether the path walked so far is a frontier path.
func (c Cursor) Frontier() bool { return c.st != nil && c.st.frontier }

// Piecewise reports whether an element matched by c can be checked in
// pieces, each the element, its attributes and a run of its children: an
// unkeyed element, whose check stops there, or a keyed one that is not a
// frontier node, has no key with key paths ending here, and whose
// children's labels (their keys) are exactly the one-step, named targets
// of the keys whose context ends here — the one check across pieces is
// then that no two children share a label.
func (c Cursor) Piecewise() bool {
	if c.Key() == nil {
		return true
	} else if c.st.frontier {
		return false
	}
	for _, k := range c.st.keys {
		if len(k.KeyPaths) > 0 {
			return false
		}
	}
	for _, k := range c.st.contexts {
		if len(k.Target) != 1 || k.Target[0] == Wildcard || c.Child(k.Target[0]).Key() != k {
			return false
		}
	}
	for _, st := range c.st.lit {
		if st.key != nil && !slices.Contains(c.st.contexts, st.key) {
			return false
		}
	}
	return c.st.wild == nil || c.st.wild.key == nil // a wildcard's key is no named target
}

// at walks a whole concrete path.
func (m *matcher) at(concrete Path) Cursor {
	c := Cursor{m.root}
	for _, seg := range concrete {
		c = c.Child(seg)
	}
	return c
}

// build compiles the trie. isFrontier[i] tells whether keyed[i]'s pattern
// is a frontier path.
func (m *matcher) build(isFrontier []bool) error {
	n := len(m.keyed)
	b := &trieBuilder{m: m, isFrontier: isFrontier, pats: make([]Path, 2*n), memo: map[string]*state{}}
	live := make([]int, 2*n)
	for i, k := range m.keyed {
		b.pats[i], b.pats[n+i] = k.nodePath, k.Context
		live[i], live[n+i] = i, n+i
	}
	var err error
	m.root, err = b.state(0, live)
	return err
}

// trieBuilder runs the subset construction: pattern i < len(keyed) is
// keyed[i]'s node path, pattern len(keyed)+i its context.
type trieBuilder struct {
	m          *matcher
	isFrontier []bool
	pats       []Path
	memo       map[string]*state // by depth and live set
}

// state returns the trie node for the patterns in live (ascending), all
// of which match the depth segments walked so far.
func (b *trieBuilder) state(depth int, live []int) (*state, error) {
	if len(live) == 0 {
		return nil, nil
	}
	id := fmt.Sprint(depth, live)
	if st, ok := b.memo[id]; ok {
		return st, nil
	}
	if len(b.memo) >= maxStates {
		return nil, fmt.Errorf("keys: specification's overlapping patterns need more than %d matcher states", maxStates)
	}
	st := &state{}
	b.memo[id] = st

	n := len(b.m.keyed)
	var names []string // distinct literal next segments
	var wild []int     // patterns continuing with a wildcard
	for _, p := range live {
		pat := b.pats[p]
		switch {
		case len(pat) > depth:
			if seg := pat[depth]; seg == Wildcard {
				wild = append(wild, p)
			} else if !slices.Contains(names, seg) {
				names = append(names, seg)
			}
		case p < n:
			st.keys = append(st.keys, b.m.keyed[p])
			st.frontier = st.frontier || b.isFrontier[p]
		default:
			st.contexts = append(st.contexts, b.m.keyed[p-n])
		}
	}
	if len(st.keys) > 0 {
		st.key = st.keys[0]
	}

	var err error
	if st.wild, err = b.state(depth+1, wild); err != nil {
		return nil, err
	}
	if len(names) > 0 {
		st.lit = make(map[string]*state, len(names))
	}
	for _, name := range names {
		var next []int
		for _, p := range live {
			if pat := b.pats[p]; len(pat) > depth && segMatch(pat[depth], name) {
				next = append(next, p)
			}
		}
		if st.lit[name], err = b.state(depth+1, next); err != nil {
			return nil, err
		}
	}
	return st, nil
}
