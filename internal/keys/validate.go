package keys

import (
	"fmt"
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
	c := checker{path: make(Path, 0, 16)}
	c.path = append(c.path, doc.Name)
	c.node(doc, s.Cursor().Child(doc.Name))
	return c.errs
}

// CheckDocumentErr is CheckDocument returning the violations as a single
// *ViolationsError (nil when the document satisfies the spec).
func (s *Spec) CheckDocumentErr(doc *xmltree.Node) error {
	if errs := s.CheckDocument(doc); len(errs) > 0 {
		return &ViolationsError{Violations: errs}
	}
	return nil
}

// checker is one CheckDocument walk: it descends the compiled trie in
// lockstep with the document, keeping the concrete path only to name
// violations.
type checker struct {
	path Path
	errs []*ValidationError

	tuple xmltree.AppendBuffer // scratch for one target's key value
	seen  map[string]struct{}  // key values among one context's targets
}

func (c *checker) report(path, key, msg string) {
	c.errs = append(c.errs, &ValidationError{Path: path, Key: key, Msg: msg})
}

// node checks the element n at c.path, matched so far as cur.
func (c *checker) node(n *xmltree.Node, cur Cursor) {
	// Coverage of this node.
	if cur.Key() == nil {
		c.report(c.path.Absolute(), "", "unkeyed element above the frontier")
		return // no key structure to check below
	}

	// This node is a target of every key ending here; check their key
	// paths resolve uniquely.
	for _, k := range cur.st.keys {
		for _, kp := range k.KeyPaths {
			if len(kp) == 0 {
				continue
			}
			if _, found := kp.ResolveUnique(n); found != 1 {
				c.report(c.path.Absolute(), k.String(),
					fmt.Sprintf("key path %s resolves to %d nodes, want 1", kp, len(kp.Resolve(n))))
			}
		}
	}
	// Uniqueness among the targets of every key whose context is this node.
	for _, k := range cur.st.contexts {
		c.checkTargets(n, k)
	}

	if cur.Frontier() {
		return // content below the frontier is unconstrained
	}

	// Above the frontier: attributes must be keyed paths, text must not
	// appear, element children must be keyed (checked recursively).
	for _, a := range n.Attrs {
		if cur.Child(a.Name).Key() == nil {
			c.report(append(c.path, a.Name).Absolute(), "", "unkeyed attribute above the frontier")
		}
	}
	for _, ch := range n.Children {
		switch ch.Kind {
		case xmltree.Text:
			c.report(c.path.Absolute(), "", "text content above the frontier")
		case xmltree.Element:
			c.path = append(c.path, ch.Name)
			c.node(ch, cur.Child(ch.Name))
			c.path = c.path[:len(c.path)-1]
		}
	}
}

// checkTargets reports every target of key k under context node n whose
// key value repeats an earlier target's.
func (c *checker) checkTargets(n *xmltree.Node, k *Key) {
	targets := 0
	k.Target.each(n, func(*xmltree.Node) { targets++ })
	if targets <= 1 {
		return
	}
	if c.seen == nil {
		c.seen = map[string]struct{}{}
	}
	clear(c.seen)
	k.Target.each(n, func(t *xmltree.Node) {
		if !c.keyTuple(t, k) {
			return // missing key path already reported at the target
		}
		if _, dup := c.seen[string(c.tuple.Buf)]; dup {
			c.report(c.path.Absolute(), k.String(), "duplicate key value among targets")
			return
		}
		c.seen[string(c.tuple.Buf)] = struct{}{}
	})
}

// keyTuple renders the key value of target node t under key k into
// c.tuple as a single canonical string, or reports false if some key path
// does not resolve uniquely.
func (c *checker) keyTuple(t *xmltree.Node, k *Key) bool {
	c.tuple.Reset()
	for _, kp := range k.KeyPaths {
		v, found := kp.ResolveUnique(t)
		if found != 1 {
			return false
		}
		c.tuple.WriteByte('|')
		xmltree.WriteCanonicalTo(&c.tuple, v)
	}
	return true
}
