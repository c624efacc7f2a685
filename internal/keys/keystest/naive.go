// Package keystest holds the reference the key specification's compiled
// matcher and its validator are tested against: the loops over every
// pattern with Path.Matches that Spec used before it compiled a trie, over
// the document as a tree. Nothing outside tests imports it.
package keystest

import (
	"fmt"

	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// KeyFor is Spec.KeyFor by trying every pattern in turn.
func KeyFor(s *keys.Spec, concrete keys.Path) *keys.Key {
	for _, k := range s.AllKeys() {
		if k.NodePath().Matches(concrete) {
			return k
		}
	}
	return nil
}

// IsFrontier is Spec.IsFrontier by trying every frontier pattern in turn.
func IsFrontier(s *keys.Spec, concrete keys.Path) bool {
	for _, p := range s.FrontierPaths() {
		if p.Matches(concrete) {
			return true
		}
	}
	return false
}

// CheckDocument is Spec.CheckDocument by pattern loops over the tree: the
// report it must give, violation by violation and in order.
func CheckDocument(s *keys.Spec, doc *xmltree.Node) []*keys.ValidationError {
	var errs []*keys.ValidationError
	// The document root's keys, whose one target candidate at the first
	// step is the root element.
	checkDuplicates(s, &xmltree.Node{Kind: xmltree.Element, Children: []*xmltree.Node{doc}}, keys.Path{}, &errs)
	checkNode(s, doc, keys.Path{doc.Name}, &errs)
	return errs
}

// checkDuplicates reports the key values repeated among the targets of
// every key whose context is n, at p.
func checkDuplicates(s *keys.Spec, n *xmltree.Node, p keys.Path, errs *[]*keys.ValidationError) {
	for _, k := range s.AllKeys() {
		if !k.Context.Matches(p) {
			continue
		}
		seen := map[string]bool{}
	targets:
		for _, t := range k.Target.Resolve(n) {
			tuple := ""
			for _, kp := range k.KeyPaths {
				vals := kp.Resolve(t)
				if len(vals) != 1 {
					continue targets
				}
				tuple += "|" + xmltree.Canonical(vals[0])
			}
			if seen[tuple] {
				*errs = append(*errs, &keys.ValidationError{
					Path: p.Absolute(), Key: k.String(), Msg: "duplicate key value among targets",
				})
			}
			seen[tuple] = true
		}
	}
}

func checkNode(s *keys.Spec, n *xmltree.Node, p keys.Path, errs *[]*keys.ValidationError) {
	if KeyFor(s, p) == nil {
		*errs = append(*errs, &keys.ValidationError{Path: p.Absolute(), Msg: "unkeyed element above the frontier"})
		return
	}
	for _, k := range s.AllKeys() {
		if !k.NodePath().Matches(p) {
			continue
		}
		for _, kp := range k.KeyPaths {
			if len(kp) == 0 {
				continue
			}
			if vals := kp.Resolve(n); len(vals) != 1 {
				*errs = append(*errs, &keys.ValidationError{
					Path: p.Absolute(), Key: k.String(),
					Msg: fmt.Sprintf("key path %s resolves to %d nodes, want 1", kp, len(vals)),
				})
			}
		}
	}
	checkDuplicates(s, n, p, errs)
	if IsFrontier(s, p) {
		return
	}
	for _, a := range n.Attrs {
		if ap := p.Concat(keys.Path{a.Name}); KeyFor(s, ap) == nil {
			*errs = append(*errs, &keys.ValidationError{Path: ap.Absolute(), Msg: "unkeyed attribute above the frontier"})
		}
	}
	for _, c := range n.Children {
		switch c.Kind {
		case xmltree.Text:
			*errs = append(*errs, &keys.ValidationError{Path: p.Absolute(), Msg: "text content above the frontier"})
		case xmltree.Element:
			checkNode(s, c, p.Concat(keys.Path{c.Name}), errs)
		}
	}
}
