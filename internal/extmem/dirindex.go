package extmem

import (
	"sort"

	"xarch/internal/anode"
	"xarch/internal/keyindex"
)

// The external engine keeps three kinds of §7.2 list (keyindex.List): one
// over the directory's roots, one over a root's level-2 entries across its
// segments, and one over the kids of one record's posting (its kid
// mini-index). Each is built on first use (sync.Once) by whichever query
// asks, and is shared by every query view that sees its immutable owner.
// The identities it lists are derived on first use too — never at open or
// commit — and live with what they describe: a segmentRecord's table is
// shared by every generation that re-links the segment, an idxEntry's kid
// table likewise. What stays here is what turns a stored key into an
// identity and a list position back into the entry it names.

// segEntry addresses one child entry inside its segment.
type segEntry struct {
	seg *segmentRecord
	i   int
}

func (m segEntry) e() *childEntry { return &m.seg.entries[m.i] }

// index returns the list over the root's level-2 entries, building it on
// first use.
func (r *rootRecord) index() *keyindex.List {
	r.idxOnce.Do(func() {
		ids := make([]*keyindex.Ident, 0, r.entryCount())
		r.cum = make([]int, len(r.segs)+1)
		for i, s := range r.segs {
			r.cum[i] = len(ids)
			segIDs := s.idents()
			for ei := range segIDs {
				ids = append(ids, &segIDs[ei])
			}
		}
		r.cum[len(r.segs)] = len(ids)
		r.idx = keyindex.NewList(ids)
	})
	return r.idx
}

// at resolves a position in the root's entry list to its segment and entry.
func (r *rootRecord) at(pos int32) segEntry {
	si := sort.Search(len(r.cum), func(i int) bool { return r.cum[i] > int(pos) }) - 1
	return segEntry{seg: r.segs[si], i: int(pos) - r.cum[si]}
}

// kidIndex returns the list over the posting's kids, deriving their
// identities with it on first use.
func (e *idxEntry) kidIndex() *keyindex.List {
	e.kidOnce.Do(func() {
		idents := make([]keyindex.Ident, len(e.kids))
		ids := make([]*keyindex.Ident, len(e.kids))
		for i := range e.kids {
			idents[i] = identOf(e.kids[i].name, e.kids[i].key)
			ids[i] = &idents[i]
		}
		e.kidIdx = keyindex.NewList(ids)
	})
	return e.kidIdx
}

// rootList returns the list over the directory's roots, building it on
// first use.
func (d *keyDirectory) rootList() *keyindex.List {
	d.rootOnce.Do(func() {
		ids := make([]*keyindex.Ident, len(d.roots))
		for i, r := range d.roots {
			ids[i] = r.ident()
		}
		d.rootIdx = keyindex.NewList(ids)
	})
	return d.rootIdx
}

// identOf is the identity of an element named name whose stored key is k.
func identOf(name string, k *tkey) keyindex.Ident { return keyindex.IdentOf(name, keyValue(k)) }

// keyLabel renders "emp{fn=John,ln=Doe}" for error messages, matching the
// annotated-node Label format.
func keyLabel(name string, k *tkey) string { return identOf(name, k).Label }

// keyValue is the annotation of a stored key, sharing its path names and
// canonical values; nil for an unkeyed node.
func keyValue(k *tkey) *anode.KeyValue {
	if k == nil {
		return nil
	}
	return &anode.KeyValue{Paths: k.paths, Canon: k.canon, Disp: keyindex.Display(k.canon)}
}

// idents returns the entries' identities, index-aligned with entries.
func (s *segmentRecord) idents() []keyindex.Ident {
	s.identOnce.Do(func() {
		s.ident = make([]keyindex.Ident, len(s.entries))
		for i := range s.entries {
			s.ident[i] = identOf(s.entries[i].name, s.entries[i].key)
		}
	})
	return s.ident
}

func (r *rootRecord) ident() *keyindex.Ident {
	r.identOnce.Do(func() { r.id = identOf(r.name, r.key) })
	return &r.id
}
