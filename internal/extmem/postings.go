package extmem

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"xarch/internal/intervals"
	"xarch/internal/keyindex"
	"xarch/internal/keys"
	"xarch/internal/qlang"
)

// Postings are the external engine's secondary index for boolean Select
// queries and deep History steps, kept in the segment file that holds the
// records they describe (segment.go's postings section): per archive
// record (a level-2 child entry, or a raw frontier root) the attribute
// facts (name, value, effective lifespan), the content-change facts, and —
// for non-frontier entries — a mini-index of the record's direct children
// with their byte spans inside the entry, so depth-3+ selector steps seek
// straight to the matched child subtree instead of streaming the whole
// record. Every posting is derived one way, captureEntryFacts over the
// record's tokens: by the segment writer, and by fsck from the stored
// payload. A segment is immutable, so a re-linked segment keeps its
// postings and nothing is ever rebuilt.

// idxKid is one direct child of a non-frontier record: its identity and
// the byte span of its subtree relative to the record's entry span.
type idxKid struct {
	name    string
	key     *tkey
	timeStr string         // "" inherits the record's effective timestamp
	time    *intervals.Set // parsed timeStr; nil when it inherits; shared, read-only
	off     int64
	size    int64
}

// idxEntry is the indexed form of one record. Its facts are held in the
// form the shared qlang evaluators read — timestamps parsed — from the
// moment the segment's postings are captured or loaded, so a query decodes
// nothing; the
// kids' identities and their index are derived on first use, like a
// segment's entries' and a root's.
// attrTimes[i] is facts.Attrs[i].Time as stored ("" inherits the record
// lifespan), kept so that encode writes the bytes decode read. Immutable
// once built, and shared by every generation that links its segment.
type idxEntry struct {
	hasKids   bool // kid spans recorded (non-frontier)
	facts     qlang.RecordFacts
	attrTimes []string
	kids      []idxKid

	kidOnce sync.Once
	kidIdx  *keyindex.List // kidIndex(): the kids' identities, derived on first query
}

func (e *idxEntry) addAttr(name, value, timeStr string, time *intervals.Set) {
	e.attrTimes = append(e.attrTimes, timeStr)
	e.facts.Attrs = append(e.facts.Attrs, qlang.AttrFact{Name: name, Value: value, Time: time})
}

// stampParser parses the timestamps of one record's facts. Attributes of
// one element, and kids of one edit, repeat the timestamp before them, so it
// keeps the last set it parsed; the sets are shared and never mutated.
type stampParser struct {
	last string
	set  *intervals.Set
}

// parse returns the set timeStr names, nil for "" (inherit).
func (p *stampParser) parse(timeStr string) (*intervals.Set, error) {
	if timeStr == "" {
		return nil, nil
	}
	if timeStr != p.last {
		ts, err := intervals.Parse(timeStr)
		if err != nil {
			return nil, fmt.Errorf("bad timestamp %q", timeStr)
		}
		p.last, p.set = timeStr, ts
	}
	return p.set, nil
}

// ---------------------------------------------------------------------------
// Codec

func encodeIdxEntry(w *kdWriter, e *idxEntry) {
	var flags byte
	if e.facts.HasGroups {
		flags |= 1
	}
	if e.hasKids {
		flags |= 2
	}
	w.b.WriteByte(flags)
	w.varint(uint64(len(e.facts.Changes)))
	for _, c := range e.facts.Changes {
		if c.Explicit {
			w.b.WriteByte(1)
			w.varint(uint64(c.V))
		} else {
			w.b.WriteByte(0)
		}
	}
	w.varint(uint64(len(e.facts.Attrs)))
	for i, a := range e.facts.Attrs {
		w.str(a.Name)
		w.str(a.Value)
		w.str(e.attrTimes[i])
	}
	w.varint(uint64(len(e.kids)))
	for _, k := range e.kids {
		w.str(k.name)
		w.key(k.key)
		w.str(k.timeStr)
		w.varint(uint64(k.off))
		w.varint(uint64(k.size))
	}
}

// decodeIdxEntry decodes one record's facts; a timestamp that does not
// parse is the reader's error, like a short file.
func decodeIdxEntry(r *kdReader) *idxEntry {
	e := &idxEntry{}
	flags := r.byte()
	e.facts.HasGroups = flags&1 != 0
	e.hasKids = flags&2 != 0
	nc := int(r.varint())
	for i := 0; i < nc && r.err == nil; i++ {
		c := qlang.ChangeItem{Explicit: r.byte() == 1}
		if c.Explicit {
			c.V = int(r.varint())
		}
		e.facts.Changes = append(e.facts.Changes, c)
	}
	var stamps stampParser
	na := int(r.varint())
	for i := 0; i < na && r.err == nil; i++ {
		name, value, timeStr := r.str(), r.str(), r.str()
		ts, err := stamps.parse(timeStr)
		if err != nil && r.err == nil {
			r.err = err
		}
		e.addAttr(name, value, timeStr, ts)
	}
	nk := int(r.varint())
	for i := 0; i < nk && r.err == nil; i++ {
		k := idxKid{name: r.str(), key: r.key(), timeStr: r.str(), off: int64(r.varint()), size: int64(r.varint())}
		var err error
		if k.time, err = stamps.parse(k.timeStr); err != nil && r.err == nil {
			r.err = err
		}
		e.kids = append(e.kids, k)
	}
	return e
}

// encodePostings renders a segment's postings section: the count, one
// posting per directory entry in entry order (one for a raw segment), and
// the CRC32 of those bytes.
func encodePostings(w *kdWriter, posts []*idxEntry) {
	start := w.b.Len()
	w.varint(uint64(len(posts)))
	for _, e := range posts {
		encodeIdxEntry(w, e)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(w.b.Bytes()[start:]))
	w.b.Write(tail[:])
}

// decodePostings parses a postings section, which a replication peer may
// have supplied, under decodeKeyDirectory's contract: no panic, allocation
// bounded by the input, ErrCorruptArchive.
func decodePostings(data []byte) ([]*idxEntry, error) {
	if len(data) < crc32.Size {
		return nil, corruptf("postings section truncated")
	}
	body, tail := data[:len(data)-crc32.Size], data[len(data)-crc32.Size:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, corruptf("postings checksum mismatch")
	}
	r := &kdReader{s: string(body)}
	n := r.varint()
	if r.err == nil && n > uint64(len(r.s))/4 { // a posting takes at least 4 bytes
		r.err = fmt.Errorf("posting count %d exceeds section size", n)
	}
	var posts []*idxEntry
	for i := uint64(0); i < n && r.err == nil; i++ {
		posts = append(posts, decodeIdxEntry(r))
	}
	if r.err == nil && len(r.s) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.s))
	}
	if r.err != nil {
		return nil, corruptf("postings: %v", r.err)
	}
	return posts, nil
}

// ---------------------------------------------------------------------------
// Write-time capture

// captureEntryFacts walks one entry's ntok tokens, open token through
// balancing close, which next hands out in order, and derives its facts.
// offs, when non-nil, holds the payload byte offset of each of the tokens
// plus the entry's end, enabling kid spans.
// Effective timestamps follow the same replacement rule as
// core.ResolveFrom; group content inherits the group time.
//
// Change facts mirror qlang.FactsOf over the materialized subtree: every
// explicit group (at any depth, outside other groups) changed at its
// time's minimum; an element holding both groups and plain content has a
// shared nil-time group, which changed at the element's effective
// minimum — an inherit marker when that is the record lifespan.
func captureEntryFacts(next func() token, ntok int, offs []int64, dict *dictionary) (*idxEntry, error) {
	e := &idxEntry{hasKids: offs != nil}
	var stamps stampParser
	changed := func(c qlang.ChangeItem) { e.facts.Changes = append(e.facts.Changes, c) }
	eff := []string{""}
	depth := 0
	groupDepth := 0
	// Per open element (the entry itself at depth 1): whether it holds
	// group and plain content directly, for shared-group change facts.
	var sawTS, sawPlain []bool
	markPlain := func() {
		if groupDepth == 0 && len(sawPlain) > 0 {
			sawPlain[len(sawPlain)-1] = true
		}
	}
	for i := range ntok {
		t := next()
		switch t.op {
		case tokOpen:
			markPlain()
			depth++
			ne := eff[len(eff)-1]
			if depth == 1 {
				ne = "" // the entry's own time lives in the directory
			} else {
				if t.data != "" {
					ne = t.data
				}
				if depth == 2 && groupDepth == 0 && offs != nil {
					n, err := dict.name(t.tag)
					if err != nil {
						return nil, err
					}
					ts, err := stamps.parse(t.data)
					if err != nil {
						return nil, err
					}
					e.kids = append(e.kids, idxKid{name: n, key: t.key, timeStr: t.data, time: ts, off: offs[i] - offs[0]})
				}
			}
			eff = append(eff, ne)
			sawTS = append(sawTS, false)
			sawPlain = append(sawPlain, false)
		case tokClose:
			if depth == 2 && groupDepth == 0 && offs != nil && len(e.kids) > 0 {
				kk := &e.kids[len(e.kids)-1]
				kk.size = offs[i+1] - offs[0] - kk.off
			}
			if sawTS[len(sawTS)-1] && sawPlain[len(sawPlain)-1] {
				// The closing element mixes groups and shared content:
				// the shared part is a nil-time group that changed at the
				// element's effective minimum.
				if ts, err := stamps.parse(eff[len(eff)-1]); err == nil && !ts.Empty() {
					changed(qlang.ChangeItem{Explicit: true, V: ts.Min()})
				} else {
					changed(qlang.ChangeItem{})
				}
			}
			sawTS = sawTS[:len(sawTS)-1]
			sawPlain = sawPlain[:len(sawPlain)-1]
			eff = eff[:len(eff)-1]
			depth--
		case tokTSOpen:
			if groupDepth == 0 {
				e.facts.HasGroups = true
				if len(sawTS) > 0 {
					sawTS[len(sawTS)-1] = true
				}
				if ts, err := stamps.parse(t.data); err == nil && !ts.Empty() {
					changed(qlang.ChangeItem{Explicit: true, V: ts.Min()})
				}
			}
			groupDepth++
			eff = append(eff, t.data)
		case tokTSClose:
			if groupDepth == 0 { // stored bytes only: a writer never emits one
				return nil, corruptf("group close outside a group")
			}
			groupDepth--
			eff = eff[:len(eff)-1]
		case tokAttr:
			if depth >= 1 {
				n, err := dict.name(t.tag)
				if err != nil {
					return nil, err
				}
				ts, err := stamps.parse(eff[len(eff)-1])
				if err != nil {
					return nil, err
				}
				e.addAttr(n, t.data, eff[len(eff)-1], ts)
			}
			markPlain()
		case tokText:
			markPlain()
		}
	}
	e.facts.Changes = qlang.NormalizeChanges(e.facts.Changes)
	return e, nil
}

// capturePostings derives the postings of the segment just encoded, whose
// tokens are still in sw.out, read once in order (the entries tile the
// capture): one per directory entry — names resolved, timestamps parsed,
// kid spans for every entry above the frontier (a frontier entry's content
// is group-structured, not seekable by child) — or, for a raw segment, one
// over its whole token range, without kids.
func (sw *segmentSetWriter) capturePostings(rec *segmentRecord, tokOffs []int64) ([]*idxEntry, error) {
	marks := sw.marks
	if sw.raw {
		marks = []entryMark{{start: 0, end: sw.out.n}}
	}
	posts := make([]*idxEntry, len(marks))
	cur := capCursor{c: sw.out}
	for i, m := range marks {
		offs := tokOffs[m.start : m.end+1]
		if sw.raw || sw.ar.spec.IsFrontier(keys.Path([]string{sw.root.name, rec.entries[i].name})) {
			offs = nil
		}
		var err error
		if posts[i], err = captureEntryFacts(cur.token, m.end-m.start, offs, sw.ar.dict); err != nil {
			return nil, err
		}
	}
	return posts, nil
}

// ---------------------------------------------------------------------------
// Inverted candidate map

func invNameKey(name string) string        { return "n\x00" + name }
func invPairKey(name, value string) string { return "v\x00" + name + "\x00" + value }
func invAdd(m map[string][]int, k string, ord int) {
	l := m[k]
	if len(l) > 0 && l[len(l)-1] == ord {
		return
	}
	m[k] = append(l, ord)
}

// buildInv builds the inverted attribute map of d from its segments'
// postings, over the record ordinals selectRecords enumerates: one per raw
// root, one per entry of any other root.
func (ar *Archiver) buildInv(d *keyDirectory) (map[string][]int, error) {
	m := map[string][]int{}
	ord := 0
	add := func(e *idxEntry) {
		for i := range e.facts.Attrs {
			a := &e.facts.Attrs[i]
			invAdd(m, invNameKey(a.Name), ord)
			invAdd(m, invPairKey(a.Name, a.Value), ord)
		}
		ord++
	}
	for _, r := range d.roots {
		if r.raw {
			e, err := ar.rootPosting(r)
			if err != nil {
				return nil, err
			}
			add(e)
			continue
		}
		for _, s := range r.segs {
			posts, err := ar.postings(s)
			if err != nil {
				return nil, err
			}
			for _, e := range posts {
				add(e)
			}
		}
	}
	return m, nil
}

// rootPosting returns the posting of a raw root: the one its segment holds.
func (ar *Archiver) rootPosting(r *rootRecord) (*idxEntry, error) {
	if len(r.segs) == 0 {
		return nil, corruptf("raw root %s has no segment", r.name)
	}
	posts, err := ar.postings(r.segs[0])
	if err != nil {
		return nil, err
	}
	return posts[0], nil
}

// candidates returns the sorted record ordinals that contain every
// required attribute predicate — a sound superset of the matching
// records, since a record lacking a required attribute evaluates that
// conjunct to the empty set. The generation's inverted map is built by the
// first query that needs it.
func (q *QueryView) candidates(preds []*qlang.AttrPred) ([]int, error) {
	g := q.g
	inv := g.inv.Load()
	if inv == nil {
		g.invMu.Lock()
		if inv = g.inv.Load(); inv == nil {
			m, err := q.ar.buildInv(g.d)
			if err != nil {
				g.invMu.Unlock()
				return nil, err
			}
			inv = &m
			g.inv.Store(inv)
		}
		g.invMu.Unlock()
	}
	var acc []int
	for i, p := range preds {
		k := invNameKey(p.Name)
		if p.HasValue {
			k = invPairKey(p.Name, p.Value)
		}
		l := (*inv)[k]
		if i == 0 {
			acc = append([]int{}, l...)
		} else {
			acc = intersectSorted(acc, l)
		}
		if len(acc) == 0 {
			return []int{}, nil
		}
	}
	return acc, nil
}

func intersectSorted(a, b []int) []int {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
