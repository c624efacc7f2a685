package core

import (
	"fmt"

	"xarch/internal/annotate"
	"xarch/internal/anode"
	"xarch/internal/intervals"
	"xarch/internal/xmltree"
)

// Version reconstructs version i (1-based) from the archive with a single
// scan (§7.1). It returns nil (and no error) if version i was archived as
// an empty database. Keyed siblings come back in key order, not their
// original document order — the archive deliberately ignores order among
// keyed elements (§2).
func (a *Archive) Version(i int) (*xmltree.Node, error) {
	if i < 1 || i > a.versions {
		return nil, fmt.Errorf("core: version %d out of range 1..%d: %w", i, a.versions, ErrNoSuchVersion)
	}
	var result *xmltree.Node
	for _, c := range a.root.Children {
		eff := c.Time
		if eff == nil {
			eff = a.root.Time
		}
		if !eff.Contains(i) {
			continue
		}
		if result != nil {
			return nil, fmt.Errorf("core: multiple roots at version %d: %w", i, ErrCorruptArchive)
		}
		result = annotate.ProjectAt(c, i)
	}
	return result, nil
}

// History returns the set of versions in which the element denoted by
// selector exists (§7.2), e.g.
//
//	/db/dept[name=finance]/emp[fn=John,ln=Doe]
//
// Predicates name key paths and their display values; the empty key path
// is written "." ( tel[.=123-4567] ). Omitted predicates are allowed as
// long as the selection stays unambiguous.
func (a *Archive) History(selector string) (*intervals.Set, error) {
	steps, err := ParseSelector(selector)
	if err != nil {
		return nil, err
	}
	n, eff, err := a.resolveSteps(steps)
	if err != nil {
		return nil, err
	}
	_ = n
	return eff.Clone(), nil
}

// ContentHistory returns, for a frontier element, the versions at which
// its content changed: the earliest version of each distinct content
// alternative. For elements whose content never diverged it returns just
// the element's first version.
func (a *Archive) ContentHistory(selector string) ([]int, error) {
	steps, err := ParseSelector(selector)
	if err != nil {
		return nil, err
	}
	n, eff, err := a.resolveSteps(steps)
	if err != nil {
		return nil, err
	}
	return ContentChangeVersions(n, eff), nil
}

// ContentChangeVersions returns the versions at which a resolved node's
// content changed: the earliest version of each distinct timestamped
// content alternative, or just the node's first version when the content
// never diverged. Shared with the external engine's streaming query path,
// which builds the node's groups from its segments' tokens.
func ContentChangeVersions(n *anode.Node, eff *intervals.Set) []int {
	if n.Groups == nil {
		if eff.Empty() {
			return nil
		}
		return []int{eff.Min()}
	}
	seen := map[int]bool{}
	var out []int
	for _, g := range n.Groups {
		t := g.Time
		if t == nil {
			t = eff
		}
		if t.Empty() {
			continue
		}
		if v := t.Min(); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// resolveSteps walks the archive by selector steps, returning the node and
// its effective timestamp.
func (a *Archive) resolveSteps(steps []SelectorStep) (*anode.Node, *intervals.Set, error) {
	return ResolveFrom(a.root, a.root.Time, steps, "")
}

// ResolveFrom walks selector steps starting below cur (whose effective
// timestamp is eff), returning the matched node and its effective
// timestamp. pathPrefix seeds error messages with the already-resolved
// selector prefix. The external engine reuses it to resolve selector tails
// that descend below the frontier of its segments.
func ResolveFrom(cur *anode.Node, eff *intervals.Set, steps []SelectorStep, pathPrefix string) (*anode.Node, *intervals.Set, error) {
	path := pathPrefix
	for _, step := range steps {
		path += "/" + step.Tag
		var found *anode.Node
		for _, c := range cur.Children {
			if !step.Matches(c.Name, c.Key) {
				continue
			}
			if found != nil {
				return nil, nil, AmbiguousSelectorError(path, found.Label(), c.Label())
			}
			found = c
		}
		if found == nil {
			return nil, nil, NoSuchElementError(path)
		}
		cur = found
		if cur.Time != nil {
			eff = cur.Time
		}
	}
	return cur, eff, nil
}
