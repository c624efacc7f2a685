// Package keys implements keys for XML as used by the archiver of Buneman
// et al., "Archiving Scientific Data" (§3, Appendix A/B): relative keys
// (Context, (Target, {P1..Pk})), the textual key-specification format of
// Appendix B, implied keys, frontier paths, and validation of documents
// against a specification.
package keys

import (
	"fmt"
	"strings"

	"xarch/internal/xmltree"
)

// Wildcard is the path segment that matches any single element name; the
// XMark specification of Appendix B.3 uses it for the region elements
// (africa, asia, ...).
const Wildcard = "_"

// Path is a sequence of node (or attribute) names. The empty Path is the
// empty key path, written "\e" or "." in the paper.
type Path []string

// ParsePath parses "a/b/c" (or "/a/b/c"). "", "." and `\e` all denote the
// empty path.
func ParsePath(s string) (Path, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "." || s == `\e` {
		return nil, nil
	}
	s = strings.TrimPrefix(s, "/")
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "/")
	p := make(Path, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("keys: empty path segment in %q", s)
		}
		p = append(p, part)
	}
	return p, nil
}

// String renders the path; the empty path renders as "\e".
func (p Path) String() string {
	if len(p) == 0 {
		return `\e`
	}
	return strings.Join(p, "/")
}

// Absolute renders the path with a leading slash, "/" for the empty path.
func (p Path) Absolute() string {
	return "/" + strings.Join(p, "/")
}

// Concat returns p followed by q as a new path.
func (p Path) Concat(q Path) Path {
	out := make(Path, 0, len(p)+len(q))
	out = append(out, p...)
	out = append(out, q...)
	return out
}

// Equal reports exact segment equality (wildcards are not expanded).
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// segMatch reports whether pattern segment a matches concrete segment b.
func segMatch(a, b string) bool { return a == Wildcard || a == b }

// segCompatible reports whether two pattern segments can match a common
// concrete segment.
func segCompatible(a, b string) bool {
	return a == Wildcard || b == Wildcard || a == b
}

// Matches reports whether the (possibly wildcarded) pattern p matches the
// concrete path q exactly.
func (p Path) Matches(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if !segMatch(p[i], q[i]) {
			return false
		}
	}
	return true
}

// CompatiblePrefixOf reports whether pattern p could be a proper prefix of
// pattern q, i.e. some concrete path matched by q has a prefix matched by p.
func (p Path) CompatiblePrefixOf(q Path) bool {
	if len(p) >= len(q) {
		return false
	}
	for i := range p {
		if !segCompatible(p[i], q[i]) {
			return false
		}
	}
	return true
}

// Compatible reports whether patterns p and q can match a common concrete
// path.
func (p Path) Compatible(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if !segCompatible(p[i], q[i]) {
			return false
		}
	}
	return true
}

// ResolveUnique evaluates the path from n like Resolve but without
// building result slices: it returns the unique match, or found != 1 when
// the path resolves to zero or several nodes (found saturates at 2).
// Annotation resolves one key path per keyed node, so this is the merge
// pipeline's allocation-free fast path.
func (p Path) ResolveUnique(n *xmltree.Node) (match *xmltree.Node, found int) {
	if len(p) == 0 {
		return n, 1
	}
	resolveUniqueRec(p, n, 0, &match, &found)
	if found != 1 {
		return nil, found
	}
	return match, 1
}

func resolveUniqueRec(p Path, n *xmltree.Node, i int, match **xmltree.Node, found *int) {
	if n.Kind != xmltree.Element || *found >= 2 {
		return
	}
	seg := p[i]
	last := i == len(p)-1
	for _, ch := range n.Children {
		if ch.Kind != xmltree.Element || !segMatch(seg, ch.Name) {
			continue
		}
		if last {
			if *found++; *found == 1 {
				*match = ch
			} else {
				return
			}
		} else {
			resolveUniqueRec(p, ch, i+1, match, found)
		}
	}
	if last {
		for _, a := range n.Attrs {
			if segMatch(seg, a.Name) {
				if *found++; *found == 1 {
					*match = a
				} else {
					return
				}
			}
		}
	}
}

// Resolve evaluates the path from node n, matching element children by tag
// at every step; the final segment may instead match an attribute. It
// returns all reachable nodes (n[[P]] in the paper). The empty path
// resolves to n itself.
func (p Path) Resolve(n *xmltree.Node) []*xmltree.Node {
	var out []*xmltree.Node
	p.each(n, func(m *xmltree.Node) { out = append(out, m) })
	return out
}

// each calls fn for every node Resolve would return, in the same order,
// without building the result.
func (p Path) each(n *xmltree.Node, fn func(*xmltree.Node)) {
	if len(p) == 0 {
		fn(n)
		return
	}
	if n.Kind != xmltree.Element {
		return
	}
	last := len(p) == 1
	for _, ch := range n.Children {
		if ch.Kind == xmltree.Element && segMatch(p[0], ch.Name) {
			if last {
				fn(ch)
			} else {
				p[1:].each(ch, fn)
			}
		}
	}
	if last {
		for _, a := range n.Attrs {
			if segMatch(p[0], a.Name) {
				fn(a)
			}
		}
	}
}

// ResolveFlat is ResolveUnique from element n of a flat document: the
// index of the unique match, or found != 1 (saturating at 2).
func (p Path) ResolveFlat(d *xmltree.Flat, n int32) (match int32, found int) {
	if len(p) == 0 {
		return n, 1
	}
	p.resolveFlat(d, n, &match, &found)
	if found != 1 {
		return -1, found
	}
	return match, 1
}

func (p Path) resolveFlat(d *xmltree.Flat, n int32, match *int32, found *int) {
	last := len(p) == 1
	for ch := d.Nodes[n].First; ch >= 0 && *found < 2; ch = d.Nodes[ch].Next {
		kind := d.Nodes[ch].Kind
		if kind == xmltree.Text || kind == xmltree.Attr && !last || !segMatch(p[0], d.Name(ch)) {
			continue
		}
		if last {
			*found++
			*match = ch
		} else {
			p[1:].resolveFlat(d, ch, match, found)
		}
	}
}

// countFlat is len(p.Resolve(n)) over a flat document.
func (p Path) countFlat(d *xmltree.Flat, n int32) int {
	if len(p) == 0 {
		return 1
	}
	last, count := len(p) == 1, 0
	for ch := d.Nodes[n].First; ch >= 0; ch = d.Nodes[ch].Next {
		kind := d.Nodes[ch].Kind
		if kind == xmltree.Text || kind == xmltree.Attr && !last || !segMatch(p[0], d.Name(ch)) {
			continue
		}
		if last {
			count++
		} else {
			count += p[1:].countFlat(d, ch)
		}
	}
	return count
}
