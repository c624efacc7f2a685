package xarch

import (
	"xarch/internal/anode"
	"xarch/internal/qlang"
	"xarch/internal/xmltree"
)

// SelectResult is one matching record of a Select query: its display path
// ("/gene{name=BRCA2}" or "/db/emp{id=7}") and the version set at which
// the expression holds, in interval-string form ("3-5,9").
type SelectResult = qlang.Result

// ParseQuery parses a Select expression without evaluating it, for callers
// that want early validation. Errors wrap ErrBadQuery.
func ParseQuery(expr string) (qlang.Expr, error) { return qlang.Parse(expr) }

// memRecords enumerates the archive records of an annotated tree: raw
// (depth-1 frontier) roots themselves, and the level-2 children of every
// other root. Effective lifespans follow core.ResolveFrom — an explicit
// node time replaces the inherited one.
func memRecords(root *anode.Node, versions int) []qlang.Record {
	var recs []qlang.Record
	for _, rc := range root.Children {
		if rc.Kind != xmltree.Element {
			continue
		}
		rootEff := root.Time
		if rc.Time != nil {
			rootEff = rc.Time
		}
		rec := qlang.Record{RootName: rc.Name, RootKey: rc.Key, RootLabel: rc.Label(), Versions: versions}
		if rc.Frontier {
			rec.Raw, rec.Life, rec.Src = true, rootEff, (*qlang.NodeSource)(rc)
			recs = append(recs, rec)
			continue
		}
		for _, e := range rc.Children {
			if e.Kind != xmltree.Element {
				continue
			}
			rec.Name, rec.Key, rec.Label = e.Name, e.Key, e.Label()
			rec.Life, rec.Src = rootEff, (*qlang.NodeSource)(e)
			if e.Time != nil {
				rec.Life = e.Time
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

// evalRecords runs a parsed expression over records and collects the
// non-empty matches, sorted by path.
func evalRecords(e qlang.Expr, recs []qlang.Record) ([]SelectResult, error) {
	return qlang.EvalAll(e, recs)
}

// Select evaluates a boolean query expression against the in-memory
// archive; see Store.Select.
func (s *MemStore) Select(expr string) ([]SelectResult, error) {
	e, err := qlang.Parse(expr)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	return evalRecords(e, memRecords(s.a.Root(), s.a.Versions()))
}
