package extmem

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/fsio"
	"xarch/internal/intervals"
	"xarch/internal/keys"
	"xarch/internal/qlang"
	"xarch/internal/xmltree"
)

// attrSpec mirrors the department schema with keyed attribute slots, so
// archives carry attribute facts above the frontier (region, grade) and
// inside frontier subtrees (band).
const attrSpec = `
(/, (db, {}))
(/db, (dept, {name}))
(/db/dept, (region, {.}))
(/db/dept, (emp, {fn, ln}))
(/db/dept/emp, (grade, {.}))
(/db/dept/emp, (sal, {}))
(/db/dept/emp, (tel, {.}))
`

// attrDoc builds version v deterministically: departments and employees
// drift in and out, salaries change, and key-covered attributes stay
// fixed per element.
func attrDoc(v int) string {
	var b strings.Builder
	b.WriteString("<db>")
	for d := 1; d <= 3; d++ {
		if (v+d)%4 == 0 {
			continue
		}
		b.WriteString("<dept")
		if d != 3 {
			fmt.Fprintf(&b, ` region="r%d"`, 1+d%2)
		}
		fmt.Fprintf(&b, "><name>d%d</name>", d)
		for e := 1; e <= 3; e++ {
			if (v+d+e)%3 == 0 {
				continue
			}
			b.WriteString("<emp")
			if (d+e)%2 == 0 {
				fmt.Fprintf(&b, ` grade="g%d"`, 1+(d*e)%2)
			}
			fmt.Fprintf(&b, "><fn>F%d</fn><ln>L%d</ln>", e, e)
			fmt.Fprintf(&b, `<sal band="b%d">%dK</sal>`, 1+e%2, 50+10*((v+e)%3))
			b.WriteString("</emp>")
		}
		b.WriteString("</dept>")
	}
	b.WriteString("</db>")
	return b.String()
}

func buildAttrArchive(t *testing.T, dir string, cfg Config, versions int) *Archiver {
	t.Helper()
	ar, err := Open(dir, keys.MustParseSpec(attrSpec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= versions; v++ {
		if err := addVersion(ar, strings.NewReader(attrDoc(v))); err != nil {
			t.Fatalf("add v%d: %v", v, err)
		}
	}
	return ar
}

// recordPostings renders the posting of every record of the archive's
// current generation, keyed by the record's root and label, without its kid
// spans: those are byte ranges of the record's encoding, whose interned ids
// depend on the segment that holds it (a clean fsck holds them to it).
func recordPostings(t *testing.T, ar *Archiver) map[string]string {
	t.Helper()
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	out := map[string]string{}
	render := func(where string, e *idxEntry, err error) {
		t.Helper()
		if err != nil || e == nil {
			t.Fatalf("%s: posting %v, %v", where, e, err)
		}
		c := &idxEntry{hasKids: e.hasKids, facts: e.facts, attrTimes: e.attrTimes}
		for _, k := range e.kids {
			k.off, k.size = 0, 0
			c.kids = append(c.kids, k)
		}
		var w kdWriter
		encodeIdxEntry(&w, c)
		out[where] = w.b.String()
	}
	for _, r := range q.d.roots {
		root := keyLabel(r.name, r.key)
		if r.raw {
			e, err := ar.rootPosting(r)
			render(root, e, err)
			continue
		}
		for _, s := range r.segs {
			for i := range s.entries {
				e, err := q.posting(s, i)
				render(root+"/"+keyLabel(s.entries[i].name, s.entries[i].key), e, err)
			}
		}
	}
	return out
}

// TestAttrIndexPersistedAndLoaded pins the postings' lifecycle: written into
// every segment, cached by the write, loaded back on open — the same
// postings, and no file beside the segments holds them.
func TestAttrIndexPersistedAndLoaded(t *testing.T) {
	dir := t.TempDir()
	ar := buildAttrArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 512}, 4)
	written := recordPostings(t, ar)
	if len(written) == 0 {
		t.Fatal("no postings")
	}
	if ar.StorageStats().PostingBytes == 0 {
		t.Fatal("StorageStats counts no posting bytes")
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		switch n := e.Name(); {
		case n == keydirFile, n == dictFile, n == metaFile, strings.HasPrefix(n, "seg-"):
		default:
			t.Errorf("unexpected file %s beside the archive state", n)
		}
	}
	ar2, err := Open(dir, keys.MustParseSpec(attrSpec), Config{Budget: 1 << 16, SegmentTarget: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer ar2.Close()
	if loaded := recordPostings(t, ar2); !reflect.DeepEqual(loaded, written) {
		t.Fatalf("the postings loaded on open differ from the ones written")
	}
}

// TestAttrIndexCodecRoundTrip pins the codec: every segment's postings
// section decodes to postings that re-encode byte-identically, and the
// postings the writer left on each segment's record encode to the bytes
// on disk.
func TestAttrIndexCodecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ar := buildAttrArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 512}, 3)
	defer ar.Close()
	for _, r := range ar.current().d.roots {
		for _, s := range r.segs {
			file, err := os.ReadFile(filepath.Join(dir, s.file))
			if err != nil {
				t.Fatal(err)
			}
			section := file[s.dataOff-s.postLen : s.dataOff]
			posts, err := decodePostings(section)
			if err != nil {
				t.Fatalf("%s: %v", s.file, err)
			}
			var again kdWriter
			encodePostings(&again, posts)
			if !bytes.Equal(again.b.Bytes(), section) {
				t.Fatalf("%s: decode+encode is not byte-identical", s.file)
			}
			kept, err := ar.postings(s)
			if err != nil {
				t.Fatal(err)
			}
			var mem kdWriter
			encodePostings(&mem, kept)
			if !bytes.Equal(mem.b.Bytes(), section) {
				t.Fatalf("%s: the postings the record keeps do not encode to the bytes on disk", s.file)
			}
		}
	}
}

// postingCorpus is one archive history the postings derivation is checked
// over.
type postingCorpus struct {
	name string
	spec *keys.Spec
	docs []*xmltree.Node
}

// postingCorpora: the attr corpus (attributes above and inside the
// frontier), the same documents under a spec whose root is the frontier (one
// raw root), XMark and OMIM.
func postingCorpora(t *testing.T) []postingCorpus {
	t.Helper()
	var attrDocs []*xmltree.Node
	for v := 1; v <= 4; v++ {
		doc, err := xmltree.ParseString(attrDoc(v))
		if err != nil {
			t.Fatal(err)
		}
		attrDocs = append(attrDocs, doc)
	}
	xm := datagen.NewXMark(datagen.XMarkConfig{Seed: 1, Items: 36, People: 24, Categories: 4, OpenAucts: 12, ClosedAucts: 8})
	xdoc := xm.Document()
	xdocs := []*xmltree.Node{xdoc, xm.RandomChanges(xdoc, 0.1)}
	xdocs = append(xdocs, xm.KeyModChanges(xdocs[1], 0.1))
	omim := datagen.NewOMIM(datagen.OMIMConfig{Seed: 1, Records: 60, DeleteFrac: 0.02, InsertFrac: 0.05, ModifyFrac: 0.05})
	var odocs []*xmltree.Node
	for v := 0; v < 4; v++ {
		odocs = append(odocs, omim.Next())
	}
	return []postingCorpus{
		{"attr", keys.MustParseSpec(attrSpec), attrDocs},
		{"raw-root", keys.MustParseSpec("(/, (db, {}))"), attrDocs},
		{"xmark", xm.Spec(), xdocs},
		{"omim", omim.Spec(), odocs},
	}
}

// build archives the corpus into dir, one add per document, at segment
// target, so that with a small one postings are captured by merges and
// carried by re-linked segments.
func (c *postingCorpus) build(t *testing.T, dir string, target int) *Archiver {
	t.Helper()
	ar, err := Open(dir, c.spec, Config{SegmentTarget: target})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range c.docs {
		if err := addTree(doc.Clone())(ar); err != nil {
			t.Fatal(err)
		}
	}
	return ar
}

// TestAttrIndexCaptureMatchesScan: every way a posting is derived gives the
// same posting — captured by the merges into small segments, by the merges
// into one large segment, by the compactor coalescing the small ones, and
// by fsck re-deriving each from its stored payload (a clean CheckArchive
// means every posting equals the one captureEntryFacts derives there).
func TestAttrIndexCaptureMatchesScan(t *testing.T) {
	for _, c := range postingCorpora(t) {
		t.Run(c.name, func(t *testing.T) {
			fsck := func(dir, phase string) {
				t.Helper()
				r, err := CheckArchive(nil, dir)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Clean {
					t.Fatalf("%s: fsck: %+v", phase, r.Problems())
				}
			}
			small, large := t.TempDir(), t.TempDir()
			ar := c.build(t, small, 2048)
			merged := recordPostings(t, ar)
			one := c.build(t, large, 1<<30)
			if got := recordPostings(t, one); !reflect.DeepEqual(got, merged) {
				t.Errorf("postings merged into one segment differ from those merged into small ones")
			}
			if err := one.Close(); err != nil {
				t.Fatal(err)
			}
			fsck(large, "one segment")
			fsck(small, "small segments")
			ar.cfg.SegmentTarget = 1 << 30
			if _, err := ar.Compact(); err != nil {
				t.Fatal(err)
			}
			if got := recordPostings(t, ar); !reflect.DeepEqual(got, merged) {
				t.Errorf("postings the compactor captured differ from the merged ones")
			}
			if err := ar.Close(); err != nil {
				t.Fatal(err)
			}
			fsck(small, "compacted")
		})
	}
}

// renderFacts renders record facts for comparison, attributes sorted (the
// token walk and qlang's tree walk meet them in different orders).
func renderFacts(f *qlang.RecordFacts) string {
	attrs := make([]string, len(f.Attrs))
	for i, a := range f.Attrs {
		attrs[i] = fmt.Sprintf("%s=%s@%v", a.Name, a.Value, a.Time)
	}
	sort.Strings(attrs)
	return fmt.Sprintf("groups=%v changes=%v attrs=%v", f.HasGroups, f.Changes, attrs)
}

// TestAttrIndexMatchesFactsOf holds every posting, as the writer cached it
// and as an open loads it, to the shared evaluator: qlang.FactsOf over the record the query path
// materializes (recordNode) — for every entry and raw root, frontier or not.
// A non-frontier posting carries one kid span per element child.
func TestAttrIndexMatchesFactsOf(t *testing.T) {
	for _, c := range postingCorpora(t) {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			check := func(ar *Archiver, phase string) {
				t.Helper()
				q, err := ar.OpenQuery()
				if err != nil {
					t.Fatal(err)
				}
				defer q.Close()
				records := 0
				compare := func(where string, ent *idxEntry, perr error, r *rootRecord, s *segmentRecord, e *childEntry, frontier bool) {
					t.Helper()
					records++
					if perr != nil {
						t.Fatalf("%s %s: %v", phase, where, perr)
					}
					node, err := q.recordNode(r, s, e)
					if err != nil {
						t.Fatalf("%s %s: %v", phase, where, err)
					}
					if got, want := renderFacts(&ent.facts), renderFacts(qlang.FactsOf(node)); got != want {
						t.Errorf("%s %s:\nposting  %s\nFactsOf  %s", phase, where, got, want)
					}
					if frontier {
						return
					}
					var kids []string
					for _, ch := range node.Children {
						kids = append(kids, ch.Name)
					}
					var posted []string
					for _, k := range ent.kids {
						posted = append(posted, k.name)
					}
					if !ent.hasKids || fmt.Sprint(posted) != fmt.Sprint(kids) {
						t.Errorf("%s %s: kid spans %v (recorded %v), children %v", phase, where, posted, ent.hasKids, kids)
					}
				}
				for _, r := range q.d.roots {
					if r.raw {
						ent, err := ar.rootPosting(r)
						compare("raw root "+r.name, ent, err, r, nil, nil, true)
						continue
					}
					for _, s := range r.segs {
						for i := range s.entries {
							e := &s.entries[i]
							frontier := c.spec.IsFrontier(keys.Path([]string{r.name, e.name}))
							ent, err := q.posting(s, i)
							compare(s.file+" "+keyLabel(e.name, e.key), ent, err, r, s, e, frontier)
						}
					}
				}
				if records == 0 {
					t.Fatalf("%s: no records", phase)
				}
			}
			ar := c.build(t, dir, 2048)
			check(ar, "written")
			if err := ar.Close(); err != nil {
				t.Fatal(err)
			}
			ar, err := Open(dir, c.spec, Config{SegmentTarget: 2048})
			if err != nil {
				t.Fatal(err)
			}
			defer ar.Close()
			check(ar, "loaded")
		})
	}
}

// TestHistoryIOBudget: with the postings — as the writer cached them or as
// an open loads them — a warm two-step History is answered from the key
// directory and a three-step one from the kid index's recorded lifespan:
// neither reads a segment byte, and both answer like the store that ignores
// the postings.
func TestHistoryIOBudget(t *testing.T) {
	xm := datagen.NewXMark(datagen.XMarkConfig{Seed: 1, Items: 60, People: 40, Categories: 6, OpenAucts: 20, ClosedAucts: 12})
	c := postingCorpus{spec: xm.Spec()}
	doc := xm.Document()
	for v := 0; v < 4; v++ {
		c.docs = append(c.docs, doc)
		doc = xm.RandomChanges(doc, 0.1)
	}
	dir := t.TempDir()
	written := c.build(t, dir, 2048)
	selectors := []string{"/site/people", "/site/people/person[id=person3]", "/site/open_auctions/open_auction[id=open_auction2]"}
	history := func(ar *Archiver, sel string) (*intervals.Set, int64) {
		t.Helper()
		q, err := ar.OpenQuery()
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		if _, err := q.History(sel); err != nil { // warm: the dictionaries are cached
			t.Fatalf("History(%s): %v", sel, err)
		}
		before := ar.BytesRead()
		h, err := q.History(sel)
		if err != nil {
			t.Fatalf("History(%s): %v", sel, err)
		}
		return h, ar.BytesRead() - before
	}
	check := func(ar *Archiver, phase string, want map[string]string) {
		t.Helper()
		for _, sel := range selectors {
			h, n := history(ar, sel)
			if n != 0 {
				t.Errorf("%s: History(%s) read %d segment bytes, want 0", phase, sel, n)
			}
			if h.String() != want[sel] {
				t.Errorf("%s: History(%s) = %s, the store without postings says %s", phase, sel, h, want[sel])
			}
		}
	}
	want := map[string]string{}
	written.cfg.NoAttrIndex = true
	for _, sel := range selectors {
		h, _ := history(written, sel)
		want[sel] = h.String()
	}
	written.cfg.NoAttrIndex = false
	check(written, "written", want)
	if err := written.Close(); err != nil {
		t.Fatal(err)
	}
	ar, err := Open(dir, c.spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	check(ar, "loaded", want)
}

// TestAttrIndexDisabled: NoAttrIndex is read-side only. Opened on an archive
// a default store wrote, it ignores the postings — an attribute Select
// reads the records — and answers what the postings answer.
func TestAttrIndexDisabled(t *testing.T) {
	dir := t.TempDir()
	ar := buildAttrArchive(t, dir, Config{Budget: 1 << 16}, 3)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	sel := func(cfg Config) ([]qlang.Result, int64) {
		t.Helper()
		ar, err := Open(dir, keys.MustParseSpec(attrSpec), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ar.Close()
		q, err := ar.OpenQuery()
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		e, err := qlang.Parse("@grade=g2 AND in 2..3")
		if err != nil {
			t.Fatal(err)
		}
		// The first Select loads the sections it needs; the second reads
		// only what it reads past them.
		if _, err := q.Select(e); err != nil {
			t.Fatal(err)
		}
		before := ar.BytesRead()
		res, err := q.Select(e)
		if err != nil {
			t.Fatal(err)
		}
		return res, ar.BytesRead() - before
	}
	indexed, n := sel(Config{})
	scanned, m := sel(Config{NoAttrIndex: true})
	if len(indexed) == 0 || !reflect.DeepEqual(indexed, scanned) {
		t.Fatalf("Select through the postings = %v, without them %v", indexed, scanned)
	}
	if n != 0 || m == 0 {
		t.Fatalf("Select read %d bytes through the postings and %d without them; want 0 and more", n, m)
	}
}

// TestFsckAttrIndexSemanticChecks: fsck holds every posting to its record
// beyond the section's checksum. A posting re-sealed under a valid CRC but
// disagreeing with its payload is reported with its segment and entry, and
// so is a change version the key directory's version count does not reach.
func TestFsckAttrIndexSemanticChecks(t *testing.T) {
	dir := t.TempDir()
	ar := buildAttrArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 512}, 3)
	d := ar.current().d
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	detail := func() string {
		t.Helper()
		r, err := CheckArchive(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, it := range r.Problems() {
			if it.Kind == "segment" {
				out = append(out, it.Detail)
			}
		}
		return strings.Join(out, "\n")
	}

	var seg *segmentRecord
	var file []byte
	var posts []*idxEntry
	entry := -1
	for _, r := range d.roots {
		for _, s := range r.segs {
			for i := range s.entries {
				if entry < 0 {
					data, err := os.ReadFile(filepath.Join(dir, s.file))
					if err != nil {
						t.Fatal(err)
					}
					h, _, err := readSegmentHeader(bytes.NewReader(data))
					if err != nil {
						t.Fatal(err)
					}
					if len(h.posts[i].facts.Attrs) > 0 {
						seg, file, posts, entry = s, data, h.posts, i
					}
				}
			}
		}
	}
	if entry < 0 {
		t.Fatal("no posting with attributes to tamper with")
	}
	orig := posts[entry].facts.Attrs[0].Value
	posts[entry].facts.Attrs[0].Value = strings.Repeat("z", len(orig))
	var w kdWriter
	encodePostings(&w, posts)
	if int64(w.b.Len()) != seg.postLen {
		t.Fatalf("re-sealed postings are %d bytes, not %d", w.b.Len(), seg.postLen)
	}
	tampered := slices.Concat(file[:seg.dataOff-seg.postLen], w.b.Bytes(), file[seg.dataOff:])
	path := filepath.Join(dir, seg.file)
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	label := keyLabel(seg.entries[entry].name, seg.entries[entry].key)
	if got := detail(); !strings.Contains(got, seg.file) || !strings.Contains(got, label) || !strings.Contains(got, "posting disagrees with its payload") {
		t.Fatalf("re-sealed posting of %s entry %s not reported: %q", seg.file, label, got)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := detail(); got != "" {
		t.Fatalf("restored segment: %s", got)
	}

	// Changes stamped at version 3 are out of range for a directory that
	// claims two versions (its meta backup disagrees, which fsck notes too).
	d.versions = 2
	if err := os.WriteFile(filepath.Join(dir, keydirFile), d.encode(d.names), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := detail(); !strings.Contains(got, "change version 3 outside 1..2") {
		t.Fatalf("change version past the directory's count not reported: %q", got)
	}
}

// allVersions renders every version of the archive's current generation.
func allVersions(t *testing.T, ar *Archiver) []string {
	t.Helper()
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var out []string
	for v := 1; v <= q.Versions(); v++ {
		var b strings.Builder
		if err := q.WriteVersion(v, &b, xmltree.WriteOptions{Indent: true}); err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		out = append(out, b.String())
	}
	return out
}

// TestDamagedPostingsLeavePayloadReadable: the postings are derived from the
// payload, so a flipped byte in their section fails only what reads them —
// an attribute Select through them, and fsck, which names the segment. The
// versions still read, the key directory still rebuilds from meta.txt, a
// Select that ignores the postings answers, and an add still commits.
func TestDamagedPostingsLeavePayloadReadable(t *testing.T) {
	dir := t.TempDir()
	spec := keys.MustParseSpec(attrSpec)
	ar := buildAttrArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 512}, 3)
	want := allVersions(t, ar)
	seg := ar.current().d.roots[0].segs[0]
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, seg.file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[seg.dataOff-seg.postLen] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, keydirFile)); err != nil {
		t.Fatal(err)
	}
	e, err := qlang.Parse("@grade=g2")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{}, {NoAttrIndex: true}} {
		ar, err := Open(dir, spec, cfg)
		if err != nil {
			t.Fatalf("open (NoAttrIndex %v): %v", cfg.NoAttrIndex, err)
		}
		if got := allVersions(t, ar); !reflect.DeepEqual(got, want) {
			t.Errorf("NoAttrIndex %v: the versions changed", cfg.NoAttrIndex)
		}
		for _, si := range ar.Segments() {
			if si.CRCOK == (si.File == seg.file) {
				t.Errorf("Segments: %s verifies %v", si.File, si.CRCOK)
			}
		}
		q, err := ar.OpenQuery()
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Select(e)
		q.Close()
		switch {
		case cfg.NoAttrIndex && (err != nil || len(res) == 0):
			t.Errorf("Select without the postings = %v, %v", res, err)
		case !cfg.NoAttrIndex && (!errors.Is(err, core.ErrCorruptArchive) || !strings.Contains(err.Error(), seg.file)):
			t.Errorf("Select through the damaged postings = %v, want ErrCorruptArchive naming %s", err, seg.file)
		}
		if err := ar.Close(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if p := r.Problems(); len(p) != 1 || p[0].File != seg.file || !strings.Contains(p[0].Detail, "postings") {
		t.Errorf("fsck = %+v, want the postings of %s alone", p, seg.file)
	}
	ar, err = Open(dir, spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	if err := addVersion(ar, strings.NewReader(attrDoc(4))); err != nil {
		t.Fatalf("add beside the damaged postings: %v", err)
	}
}

// TestInvertedMapRetriedAfterReadFault: a read that fails while the
// generation's inverted attribute map is built fails that Select only; the
// next one builds the map and answers.
func TestInvertedMapRetriedAfterReadFault(t *testing.T) {
	ffs := fsio.NewFaultFS(nil)
	ar := buildAttrArchive(t, t.TempDir(), Config{Budget: 1 << 16, SegmentTarget: 512, FS: ffs}, 3)
	defer ar.Close()
	e, err := qlang.Parse("@grade=g2 AND in 2..3")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	ar.cfg.NoAttrIndex = true // the answer without the map
	want, err := q.Select(e)
	ar.cfg.NoAttrIndex = false
	if err != nil || len(want) == 0 {
		t.Fatalf("Select without the postings = %v, %v", want, err)
	}
	dropSections(ar)
	ffs.SetFault("segment.open", fsio.Fault{Count: 1})
	if _, err := q.Select(e); !errors.Is(err, fsio.ErrInjected) {
		t.Fatalf("Select under an open fault = %v, want the fault", err)
	}
	ffs.ClearFaults()
	if got, err := q.Select(e); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Select after the fault = %v, %v; want %v", got, err, want)
	}
}
