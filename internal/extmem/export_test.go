package extmem

import (
	"testing"

	"xarch/internal/core"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// KidIndexSeeks archives docs and fails t unless the step kid[key=value]
// below the first root's entry parent takes the kid index's binary search,
// not its linear fallback below dirIndexMinEntries kids.
func KidIndexSeeks(t *testing.T, spec *keys.Spec, docs []*xmltree.Node, parent, kid, key, value string) {
	t.Helper()
	q, _ := layoutArchives(t, spec, docs)
	entries := lookup(q.d.roots[0], stepOf(parent))
	if len(entries) != 1 {
		t.Fatalf("%s: %d entries", parent, len(entries))
	}
	ent := q.posting(entries[0].seg, entries[0].i)
	if ent == nil || !ent.hasKids || ent.kidIndex().small {
		t.Fatalf("%s has no kid index over %d or more kids", parent, dirIndexMinEntries)
	}
	if pos, ok := ent.kidIndex().seek(stepOf(kid, core.Predicate{Path: key, Value: value})); !ok || len(pos) != 1 {
		t.Errorf("seek(%s[%s=%s]) = %v, %v; want one binary-searched match", kid, key, value, pos, ok)
	}
}
