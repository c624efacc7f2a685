package keys

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"xarch/internal/xmltree"
)

// ValidationError describes one violation of a key specification.
type ValidationError struct {
	Path string // path of the offending node
	Key  string // rendering of the violated key, if any
	Msg  string
}

func (e *ValidationError) Error() string {
	if e.Key != "" {
		return fmt.Sprintf("keys: %s at %s: %s", e.Msg, e.Path, e.Key)
	}
	return fmt.Sprintf("keys: %s at %s", e.Msg, e.Path)
}

// ViolationsError aggregates every violation of a key specification found
// in one document. It is the error type behind document validation; use
// errors.As to recover the individual violations.
type ViolationsError struct {
	Violations []*ValidationError
}

func (e *ViolationsError) Error() string {
	if len(e.Violations) == 1 {
		return e.Violations[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "keys: document violates key specification (%d violations):", len(e.Violations))
	for _, v := range e.Violations {
		b.WriteString("\n\t")
		b.WriteString(v.Error())
	}
	return b.String()
}

// Unwrap exposes the individual violations to errors.Is/errors.As.
func (e *ViolationsError) Unwrap() []error {
	out := make([]error, len(e.Violations))
	for i, v := range e.Violations {
		out[i] = v
	}
	return out
}

// CheckDocument verifies that doc satisfies the specification and the
// structural assumptions the archiver relies on (§3):
//
//  1. every key (C, (T, {P1..Pk})) holds: from each node matched by C, every
//     target node has exactly one value per key path, and no two targets of
//     the same context node share a key-value tuple;
//  2. coverage: above the frontier, every element and attribute path is
//     keyed and no text content appears (text lives below frontier nodes).
//
// It returns all violations found (nil if the document satisfies the spec).
func (s *Spec) CheckDocument(doc *xmltree.Node) []*ValidationError {
	return s.Check(xmltree.Flatten(doc))
}

// CheckDocumentErr is CheckDocument returning the violations as a single
// *ViolationsError (nil when the document satisfies the spec).
func (s *Spec) CheckDocumentErr(doc *xmltree.Node) error {
	if errs := s.CheckDocument(doc); len(errs) > 0 {
		return &ViolationsError{Violations: errs}
	}
	return nil
}

// Check is CheckDocument over a flat document, in one walk in lockstep with
// the compiled trie, and the walk that annotates d with keys: every element
// it reaches at or above the frontier whose key paths resolve uniquely gets
// its composite key stored in d (Flat.Key) — the canonical forms, as data
// (Flat.AppendCanonical, normalized), of the values of the key Cursor.Key
// names, in the key's §4.2 order. That is what the archiver sorts by. Where
// d is Normalized the stored keys also decide uniqueness among targets;
// elsewhere the tree's own forms decide it, as CheckDocument always has.
func (s *Spec) Check(d *xmltree.Flat) []*ValidationError {
	d.Keys, d.KeyEnds = d.Keys[:0], d.KeyEnds[:0]
	for i := range d.Nodes {
		d.Nodes[i].Key = -1
	}
	if len(d.Nodes) == 0 {
		return nil
	}
	root := s.Cursor()
	c := checker{d: d, path: Path{d.Name(0)}}
	c.node(0, root.Child(d.Name(0)))
	// Keys whose context is the document root, reported ahead of the rest.
	if root.st == nil {
		return c.errs
	}
	c.path = c.path[:0]
	var dups []*ValidationError
	for _, k := range root.st.contexts {
		for i := c.duplicates(-1, root, k); i > 0; i-- {
			dups = append(dups, &ValidationError{Path: c.path.Absolute(), Key: k.String(), Msg: "duplicate key value among targets"})
		}
	}
	c.errs = slices.Insert(c.errs, 0, dups...)
	return c.errs
}

// checker is one Check walk; it keeps the concrete path only to name
// violations.
type checker struct {
	d    *xmltree.Flat
	path Path
	errs []*ValidationError

	// One context's target key values: spans of d.Keys, or of tuples for a
	// value d has no stored key for.
	spans  []tuple
	tuples []byte
}

type tuple struct {
	lo, hi int
	stored bool
}

func (c *checker) report(path, key, msg string) {
	c.errs = append(c.errs, &ValidationError{Path: path, Key: key, Msg: msg})
}

// node checks element n at c.path, matched so far as cur.
func (c *checker) node(n int32, cur Cursor) {
	d := c.d
	if cur.Key() == nil {
		c.report(c.path.Absolute(), "", "unkeyed element above the frontier")
		return // no key structure to check below
	}
	c.storeKey(n, cur.Key())
	// This node is a target of every key ending here; check their key
	// paths resolve uniquely.
	for i, k := range cur.st.keys {
		if i == 0 && d.Nodes[n].Key >= 0 {
			continue // resolved when its key was stored
		}
		for _, kp := range k.KeyPaths {
			if len(kp) == 0 {
				continue
			}
			if _, found := kp.ResolveFlat(d, n); found != 1 {
				c.report(c.path.Absolute(), k.String(),
					fmt.Sprintf("key path %s resolves to %d nodes, want 1", kp, kp.countFlat(d, n)))
			}
		}
	}
	at := len(c.errs)
	if !cur.Frontier() {
		// Above the frontier: attributes must be keyed paths, text must not
		// appear, element children must be keyed (checked recursively).
		for ch := d.Nodes[n].First; ch >= 0; ch = d.Nodes[ch].Next {
			switch d.Nodes[ch].Kind {
			case xmltree.Attr:
				if name := d.Name(ch); cur.Child(name).Key() == nil {
					c.report(append(c.path, name).Absolute(), "", "unkeyed attribute above the frontier")
				}
			case xmltree.Text:
				c.report(c.path.Absolute(), "", "text content above the frontier")
			case xmltree.Element:
				name := d.Name(ch)
				c.path = append(c.path, name)
				c.node(ch, cur.Child(name))
				c.path = c.path[:len(c.path)-1]
			}
		}
	}
	// Uniqueness among the targets of every key whose context is this node,
	// decided once the walk below has stored the children's keys and
	// reported ahead of what it found there.
	var dups []*ValidationError
	for _, k := range cur.st.contexts {
		for i := c.duplicates(n, cur, k); i > 0; i-- {
			dups = append(dups, &ValidationError{Path: c.path.Absolute(), Key: k.String(), Msg: "duplicate key value among targets"})
		}
	}
	c.errs = slices.Insert(c.errs, at, dups...)
}

// storeKey stores the composite key of element n under k, when each of
// k's key paths resolves to one node.
func (c *checker) storeKey(n int32, k *Key) {
	d := c.d
	lo, p := len(d.Keys), len(d.KeyEnds)
	for _, i := range k.KeyPathOrder() {
		v, found := k.KeyPaths[i].ResolveFlat(d, n)
		if found != 1 {
			d.Keys, d.KeyEnds = d.Keys[:lo], d.KeyEnds[:p]
			return
		}
		d.Keys = d.AppendCanonical(d.Keys, v, true)
		d.KeyEnds = append(d.KeyEnds, len(d.Keys))
	}
	d.Nodes[n].Key = int32(p)
}

// duplicates counts the targets of key k under context n, matched as cur,
// whose key value repeats another target's. n is -1 for the document root,
// whose one child is the root element.
func (c *checker) duplicates(n int32, cur Cursor, k *Key) int {
	c.spans, c.tuples = c.spans[:0], c.tuples[:0]
	switch {
	case n >= 0:
		c.targets(n, cur, k, k.Target, n)
	case len(k.Target) > 1 && segMatch(k.Target[0], c.d.Name(0)):
		c.targets(n, cur, k, k.Target[1:], 0)
	}
	if len(c.spans) < 2 {
		return 0
	}
	slices.SortFunc(c.spans, func(a, b tuple) int { return bytes.Compare(c.value(a), c.value(b)) })
	dups := 0
	for i := 1; i < len(c.spans); i++ {
		if bytes.Equal(c.value(c.spans[i-1]), c.value(c.spans[i])) {
			dups++
		}
	}
	return dups
}

func (c *checker) value(t tuple) []byte {
	if t.stored {
		return c.d.Keys[t.lo:t.hi]
	}
	return c.tuples[t.lo:t.hi]
}

// targets collects the key value of every node path p reaches from x, a
// descendant of context n or n itself.
func (c *checker) targets(n int32, cur Cursor, k *Key, p Path, x int32) {
	d := c.d
	last := len(p) == 1
	for ch := d.Nodes[x].First; ch >= 0; ch = d.Nodes[ch].Next {
		kind := d.Nodes[ch].Kind
		if kind == xmltree.Text || kind == xmltree.Attr && !last || !segMatch(p[0], d.Name(ch)) {
			continue
		}
		if !last {
			c.targets(n, cur, k, p[1:], ch)
			continue
		}
		if d.Normalized && kind == xmltree.Element && x == n && d.Nodes[ch].Key >= 0 && cur.Child(d.Name(ch)).Key() == k {
			first := int(d.Nodes[ch].Key)
			c.spans = append(c.spans, tuple{d.KeyStart(first), d.KeyStart(first + len(k.KeyPaths)), true})
			continue
		}
		lo := len(c.tuples)
		complete := true
		for _, i := range k.KeyPathOrder() {
			v, found := k.KeyPaths[i].ResolveFlat(d, ch)
			if found != 1 {
				complete = false // missing key path already reported at the target
				break
			}
			c.tuples = d.AppendCanonical(c.tuples, v, false)
		}
		if complete {
			c.spans = append(c.spans, tuple{lo, len(c.tuples), false})
		} else {
			c.tuples = c.tuples[:lo]
		}
	}
}
