package extmem

import (
	"math/bits"
	"testing"

	"xarch/internal/core"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// KidIndexSeeks archives docs and fails t unless the step kid[key=value]
// below the first root's entry parent takes the kid index's binary search,
// not its linear fallback.
func KidIndexSeeks(t *testing.T, spec *keys.Spec, docs []*xmltree.Node, parent, kid, key, value string) {
	t.Helper()
	q, _ := layoutArchives(t, spec, docs)
	entries := lookup(q.d.roots[0], stepOf(parent))
	if len(entries) != 1 {
		t.Fatalf("%s: %d entries", parent, len(entries))
	}
	ent, err := q.posting(entries[0].seg, entries[0].i)
	if err != nil || ent == nil || !ent.hasKids {
		t.Fatalf("%s has no kid index (%v)", parent, err)
	}
	// A binary search over n kids compares about log2(n) of them; the scan
	// compares every kid of the name.
	if _, cmps, err := ent.kidIndex().Find(stepOf(kid, core.Predicate{Path: key, Value: value}), "/"+kid); err != nil || cmps > 2*bits.Len(uint(len(ent.kids))) {
		t.Errorf("Find(%s[%s=%s]) compared %d of %d kids (%v); want one binary-searched match", kid, key, value, cmps, len(ent.kids), err)
	}
}
