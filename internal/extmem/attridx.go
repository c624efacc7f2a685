package extmem

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"

	"xarch/internal/intervals"
	"xarch/internal/keys"
	"xarch/internal/qlang"
)

// The attr.idx sidecar is the external engine's persistent secondary
// index for boolean Select queries: per archive record (a level-2 child
// entry, or a raw frontier root) it stores the attribute facts (name,
// value, effective lifespan), the content-change facts, and — for
// non-frontier entries — a mini-index of the record's direct children with
// their byte spans inside the entry, so depth-3+ selector steps seek
// straight to the matched child subtree instead of streaming the whole
// record. Every posting is derived one way, captureEntryFacts over the
// record's tokens: as the segment is written, or from its stored bytes.
//
// The sidecar is ADVISORY, never authoritative. It is bound to one exact
// key directory by the keydir.idx file checksum: any commit produces a
// new checksum, so a sidecar that missed its commit (crash, write error)
// is simply stale and gets bypassed — queries fall back to the exact
// streaming scan and answer identically, just slower. Writable opens
// delete a stale or corrupt sidecar; the next commit rebuilds it,
// reusing postings of every segment file whose name and CRC are
// unchanged. Sidecar write failures never degrade the writer.
const (
	attrIdxFile   = "attr.idx"
	attrIdxMagic  = "XAI1"
	attrIdxFormat = 1
)

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
// moment the sidecar is loaded or built, so a query decodes nothing; the
// kids' identities and their index are derived on first use, like a
// segment's entries' and a root's.
// attrTimes[i] is facts.Attrs[i].Time as stored ("" inherits the record
// lifespan), kept so that encode writes the bytes decode read. Immutable
// once built, and shared by every generation whose segment file is unchanged.
type idxEntry struct {
	hasKids   bool // kid spans recorded (non-frontier)
	facts     qlang.RecordFacts
	attrTimes []string
	kids      []idxKid

	kidOnce sync.Once
	kidIdx  *dirIndex // kidIndex(): the kids' identities, derived on first query
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

// fileIdx is the per-segment-file posting list: one idxEntry per
// directory entry, index-aligned with segmentRecord.entries.
type fileIdx struct {
	crc     uint32
	entries []*idxEntry
}

// rawIdx is the posting of one raw (depth-1 frontier) root, keyed by
// root label. sig binds it to the exact segment files holding the root.
type rawIdx struct {
	sig string
	e   *idxEntry
}

// attrIndex is the in-memory sidecar: bound to one key directory by
// keydirCRC. Immutable after construction; the lazily-built inverted
// map is guarded by invOnce.
type attrIndex struct {
	keydirCRC uint32
	versions  int
	files     map[string]*fileIdx
	raws      map[string]*rawIdx

	invOnce sync.Once
	inv     map[string][]int // attr posting key -> record ordinals
	invN    int              // record count the ordinals index into
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

// encode renders the sidecar with the same whole-file CRC32 trailer as
// keydir.idx.
func (x *attrIndex) encode(d *keyDirectory) []byte {
	var w kdWriter
	w.b.WriteString(attrIdxMagic)
	w.varint(attrIdxFormat)
	w.varint(uint64(x.keydirCRC))
	w.varint(uint64(x.versions))
	// Emit in directory order so the encoding is deterministic.
	nFiles := 0
	for _, r := range d.roots {
		if !r.raw {
			nFiles += len(r.segs)
		}
	}
	w.varint(uint64(nFiles))
	for _, r := range d.roots {
		if r.raw {
			continue
		}
		for _, s := range r.segs {
			f := x.files[s.file]
			w.str(s.file)
			w.varint(uint64(f.crc))
			w.varint(uint64(len(f.entries)))
			for _, e := range f.entries {
				encodeIdxEntry(&w, e)
			}
		}
	}
	nRaws := 0
	for _, r := range d.roots {
		if r.raw {
			nRaws++
		}
	}
	w.varint(uint64(nRaws))
	for _, r := range d.roots {
		if !r.raw {
			continue
		}
		label := keyLabel(r.name, r.key)
		ri := x.raws[label]
		w.str(label)
		w.str(ri.sig)
		encodeIdxEntry(&w, ri.e)
	}
	body := w.b.Bytes()
	sum := crc32.ChecksumIEEE(body)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	return append(body, tail[:]...)
}

// decodeAttrIndex parses attr.idx bytes under decodeKeyDirectory's
// contract: no panic, allocation bounded by the input, ErrCorruptArchive.
func decodeAttrIndex(data []byte) (*attrIndex, error) {
	if len(data) < len(attrIdxMagic)+4 {
		return nil, corruptf("attr index truncated")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, corruptf("attr index checksum mismatch")
	}
	if string(body[:len(attrIdxMagic)]) != attrIdxMagic {
		return nil, corruptf("attr index bad magic")
	}
	r := &kdReader{s: string(body[len(attrIdxMagic):])}
	if format := r.varint(); format != attrIdxFormat {
		return nil, corruptf("attr index format %d not supported", format)
	}
	x := &attrIndex{
		keydirCRC: uint32(r.varint()),
		files:     map[string]*fileIdx{},
		raws:      map[string]*rawIdx{},
	}
	x.versions = int(r.varint())
	nFiles := int(r.varint())
	for i := 0; i < nFiles && r.err == nil; i++ {
		name := r.str()
		f := &fileIdx{crc: uint32(r.varint())}
		ne := int(r.varint())
		for j := 0; j < ne && r.err == nil; j++ {
			f.entries = append(f.entries, decodeIdxEntry(r))
		}
		x.files[name] = f
	}
	nRaws := int(r.varint())
	for i := 0; i < nRaws && r.err == nil; i++ {
		label := r.str()
		ri := &rawIdx{sig: r.str()}
		ri.e = decodeIdxEntry(r)
		x.raws[label] = ri
	}
	if r.err != nil {
		return nil, corruptf("attr index: %v", r.err)
	}
	return x, nil
}

// ---------------------------------------------------------------------------
// Write-time capture

// captureEntryFacts walks one entry's captured tokens and derives its
// facts. m is the entry's token range (open token through balancing
// close); tokOffs, when non-nil, holds the payload byte offset of every
// token plus a final total, enabling kid spans.
// Effective timestamps follow the same replacement rule as
// core.ResolveFrom; group content inherits the group time.
//
// Change facts mirror qlang.FactsOf over the materialized subtree: every
// explicit group (at any depth, outside other groups) changed at its
// time's minimum; an element holding both groups and plain content has a
// shared nil-time group, which changed at the element's effective
// minimum — an inherit marker when that is the record lifespan.
func captureEntryFacts(toks []token, m entryMark, tokOffs []int64, dict *dictionary) (*idxEntry, error) {
	e := &idxEntry{hasKids: tokOffs != nil}
	var stamps stampParser
	changed := func(c qlang.ChangeItem) { e.facts.Changes = append(e.facts.Changes, c) }
	eff := []string{""}
	depth := 0
	groupDepth := 0
	// Per open element (the entry itself at depth 1): whether it holds
	// group and plain content directly, for shared-group change facts.
	var sawTS, sawPlain []bool
	var entryOff int64
	if tokOffs != nil {
		entryOff = tokOffs[m.start]
	}
	markPlain := func() {
		if groupDepth == 0 && len(sawPlain) > 0 {
			sawPlain[len(sawPlain)-1] = true
		}
	}
	for i := m.start; i < m.end; i++ {
		t := &toks[i]
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
				if depth == 2 && groupDepth == 0 && tokOffs != nil {
					n, err := dict.name(t.tag)
					if err != nil {
						return nil, err
					}
					ts, err := stamps.parse(t.data)
					if err != nil {
						return nil, err
					}
					e.kids = append(e.kids, idxKid{name: n, key: t.key, timeStr: t.data, time: ts, off: tokOffs[i] - entryOff})
				}
			}
			eff = append(eff, ne)
			sawTS = append(sawTS, false)
			sawPlain = append(sawPlain, false)
		case tokClose:
			if depth == 2 && groupDepth == 0 && tokOffs != nil && len(e.kids) > 0 {
				kk := &e.kids[len(e.kids)-1]
				kk.size = tokOffs[i+1] - entryOff - kk.off
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

// captureIdx derives the postings of a freshly written segment — names
// resolved, timestamps parsed, kid spans for every entry above the frontier
// (a frontier entry's content is group-structured, not seekable by child) —
// and parks them on the archiver, keyed by file name, for the post-commit
// sidecar rebuild. Raw segments carry no entry marks; their postings, and
// those of a file whose tokens do not capture, come from the stored bytes
// (captureStored).
func (sw *segmentSetWriter) captureIdx(rec *segmentRecord, res *encodedSegment) {
	if sw.ar.cfg.NoAttrIndex || sw.raw || len(sw.marks) == 0 {
		return
	}
	f := &fileIdx{crc: rec.crc}
	for i, m := range sw.marks {
		offs := res.tokOffs
		if sw.ar.spec.IsFrontier(keys.Path([]string{sw.root.name, rec.entries[i].name})) {
			offs = nil
		}
		e, err := captureEntryFacts(sw.out.toks, m, offs, sw.ar.dict)
		if err != nil {
			return
		}
		f.entries = append(f.entries, e)
	}
	if sw.ar.pendingIdx == nil {
		sw.ar.pendingIdx = map[string]*fileIdx{}
	}
	sw.ar.pendingIdx[rec.file] = f
}

// captureStored derives the postings of the stored record at tr's head —
// its open token through the balancing close — with captureEntryFacts, the
// write pass's derivation, so a posting rebuilt from a segment is the one
// written beside it. With kids, every token's payload offset (tr.pos) goes
// along for the kid spans.
func captureStored(tr *tokenReader, name string, kids bool, dict *dictionary) (*idxEntry, error) {
	var toks []token
	var offs []int64
	for depth := 0; len(toks) == 0 || depth > 0; {
		offs = append(offs, tr.pos)
		t, err := tr.mustTake(name)
		if err != nil {
			return nil, err
		}
		if len(toks) == 0 && t.op != tokOpen {
			return nil, corruptf("%s has no open token", name)
		}
		switch t.op {
		case tokOpen:
			depth++
		case tokClose:
			depth--
		}
		toks = append(toks, t)
	}
	if kids {
		offs = append(offs, tr.pos)
	} else {
		offs = nil
	}
	return captureEntryFacts(toks, entryMark{start: 0, end: len(toks)}, offs, dict)
}

// ---------------------------------------------------------------------------
// Build and maintenance

// rawSig identifies the exact bytes of a raw root: its segment files and
// their payload CRCs.
func rawSig(r *rootRecord) string {
	sig := ""
	for _, s := range r.segs {
		sig += fmt.Sprintf("%s:%08x;", s.file, s.crc)
	}
	return sig
}

// indexGeneration builds the attribute index of a generation about to be
// published, in memory: old postings are reused for unchanged segment
// files, the write pass's captured facts consumed for fresh ones, the rest
// captured from the stored tokens. It is strictly best-effort: a failure
// leaves the generation without an index — its queries fall back to scans
// — and never poisons the writer. The commit behind g is already durable.
func (ar *Archiver) indexGeneration(g *generation) {
	if ar.cfg.NoAttrIndex {
		return
	}
	var old *attrIndex
	if cur := ar.current(); cur != nil {
		old = cur.aidx
	}
	g.aidx, ar.IdxErr = ar.buildAttrIndex(g, old)
	ar.pendingIdx = nil
}

// saveAttrIndex writes a published generation's index to the sidecar
// file. The in-memory index is exact for its directory whether or not the
// file is written; only the next open loses it. Never a commit fault for
// the caller.
func (ar *Archiver) saveAttrIndex(g *generation) {
	if g.aidx != nil {
		ar.IdxErr = ar.writeSidecar(g.aidx.encode(g.d))
	}
}

// writeSidecar replaces attr.idx by tmp + rename, with no fsync of the
// file or of the directory. The rename keeps a reader in this process
// lifetime from seeing a half-written file; across a power failure nothing
// is promised and nothing needs to be: the file carries a whole-file CRC,
// is bound to keydir.idx by keydirCRC and cross-checked against the
// directory by attrIndexMatches, so loadAttrIndex detects a torn, empty or
// stale one, removes it, and queries fall back to the scan.
func (ar *Archiver) writeSidecar(data []byte) error {
	path := filepath.Join(ar.dir, attrIdxFile)
	tmp := path + ".tmp"
	f, err := ar.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("extmem: %w", err)
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = ar.fs.Rename(tmp, path)
	}
	if err != nil {
		ar.fs.Remove(tmp)
		return fmt.Errorf("extmem: %w", err)
	}
	return nil
}

func (ar *Archiver) buildAttrIndex(g *generation, old *attrIndex) (*attrIndex, error) {
	d := g.d
	idx := &attrIndex{
		keydirCRC: d.crc,
		versions:  d.versions,
		files:     map[string]*fileIdx{},
		raws:      map[string]*rawIdx{},
	}
	stored := segCursor{ar: ar}
	defer stored.close()
	for _, r := range d.roots {
		if r.raw {
			label := keyLabel(r.name, r.key)
			sig := rawSig(r)
			if old != nil {
				if ri := old.raws[label]; ri != nil && ri.sig == sig {
					idx.raws[label] = ri
					continue
				}
			}
			tr := ar.readParts(rootParts(r))
			e, err := captureStored(tr, r.name, false, ar.dict)
			tr.release()
			if err != nil {
				return nil, err
			}
			idx.raws[label] = &rawIdx{sig: sig, e: e}
			continue
		}
		for _, s := range r.segs {
			if old != nil {
				if of := old.files[s.file]; of != nil && of.crc == s.crc && len(of.entries) == len(s.entries) {
					idx.files[s.file] = of
					continue
				}
			}
			if cf := ar.pendingIdx[s.file]; cf != nil && cf.crc == s.crc && len(cf.entries) == len(s.entries) {
				idx.files[s.file] = cf
				continue
			}
			// Neither posted nor just written (a sidecar rebuilt at open or by
			// fsck -repair, a segment re-linked while none was loaded): capture
			// the postings from the stored tokens.
			f := &fileIdx{crc: s.crc}
			for i := range s.entries {
				en := &s.entries[i]
				tr, err := stored.at(s, en)
				if err != nil {
					return nil, err
				}
				e, err := captureStored(tr, en.name, !ar.spec.IsFrontier(keys.Path([]string{r.name, en.name})), ar.dict)
				if err != nil {
					return nil, err
				}
				f.entries = append(f.entries, e)
			}
			idx.files[s.file] = f
		}
	}
	return idx, nil
}

// loadAttrIndex loads and validates the sidecar at open time. A missing
// sidecar is normal; a corrupt or stale one is deleted (this is the
// writable open path) so fsck after recovery sees a clean directory.
func (ar *Archiver) loadAttrIndex(d *keyDirectory) *attrIndex {
	if ar.cfg.NoAttrIndex {
		return nil
	}
	path := filepath.Join(ar.dir, attrIdxFile)
	data, err := ar.fs.ReadFile(path)
	if err != nil {
		return nil
	}
	x, derr := decodeAttrIndex(data)
	if derr != nil || x.keydirCRC != d.crc || !attrIndexMatches(x, d) {
		ar.fs.Remove(path)
		return nil
	}
	return x
}

// attrIndexMatches cross-checks a decoded sidecar against the
// directory: every live segment file and raw root must be covered with
// matching CRCs and entry counts.
func attrIndexMatches(x *attrIndex, d *keyDirectory) bool {
	for _, r := range d.roots {
		if r.raw {
			ri := x.raws[keyLabel(r.name, r.key)]
			if ri == nil || ri.sig != rawSig(r) {
				return false
			}
			continue
		}
		for _, s := range r.segs {
			f := x.files[s.file]
			if f == nil || f.crc != s.crc || len(f.entries) != len(s.entries) {
				return false
			}
		}
	}
	return true
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

// buildInv builds the inverted attribute map over the directory's record
// enumeration order (raws and entries interleaved exactly as
// QueryView.records enumerates them).
func (x *attrIndex) buildInv(d *keyDirectory) {
	x.invOnce.Do(func() {
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
				if ri := x.raws[keyLabel(r.name, r.key)]; ri != nil {
					add(ri.e)
				}
				continue
			}
			for _, s := range r.segs {
				if f := x.files[s.file]; f != nil {
					for _, e := range f.entries {
						add(e)
					}
				}
			}
		}
		x.inv = m
		x.invN = ord
	})
}

// candidates returns the sorted record ordinals that contain every
// required attribute predicate — a sound superset of the matching
// records, since a record lacking a required attribute evaluates that
// conjunct to the empty set.
func (x *attrIndex) candidates(d *keyDirectory, preds []*qlang.AttrPred) []int {
	x.buildInv(d)
	var acc []int
	for i, p := range preds {
		k := invNameKey(p.Name)
		if p.HasValue {
			k = invPairKey(p.Name, p.Value)
		}
		l := x.inv[k]
		if i == 0 {
			acc = append([]int{}, l...)
		} else {
			acc = intersectSorted(acc, l)
		}
		if len(acc) == 0 {
			return []int{}
		}
	}
	return acc
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
