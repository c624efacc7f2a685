package extmem

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xarch/internal/datagen"
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

// TestAttrIndexPersistedAndLoaded pins the sidecar lifecycle: written by
// commits, bound to the key directory by CRC, reloaded on open.
func TestAttrIndexPersistedAndLoaded(t *testing.T) {
	dir := t.TempDir()
	ar := buildAttrArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 512}, 4)
	if ar.IdxErr != nil {
		t.Fatalf("IdxErr = %v", ar.IdxErr)
	}
	if ar.current().aidx == nil {
		t.Fatal("no in-memory attr index after commits")
	}
	if ar.current().aidx.keydirCRC != ar.current().d.crc {
		t.Fatalf("index CRC %08x does not match directory %08x", ar.current().aidx.keydirCRC, ar.current().d.crc)
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, attrIdxFile)); err != nil {
		t.Fatalf("attr.idx not on disk: %v", err)
	}

	ar2, err := Open(dir, keys.MustParseSpec(attrSpec), Config{Budget: 1 << 16, SegmentTarget: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer ar2.Close()
	if ar2.current().aidx == nil {
		t.Fatal("attr index not loaded on reopen")
	}
	if ar2.current().aidx.keydirCRC != ar2.current().d.crc {
		t.Fatal("reloaded index not bound to current directory")
	}
	if ar2.current().aidx.versions != 4 {
		t.Fatalf("reloaded index versions = %d, want 4", ar2.current().aidx.versions)
	}
}

// TestAttrIndexCodecRoundTrip pins the codec: the on-disk bytes decode to
// an index that re-encodes byte-identically.
func TestAttrIndexCodecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ar := buildAttrArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 512}, 3)
	defer ar.Close()
	data, err := os.ReadFile(filepath.Join(dir, attrIdxFile))
	if err != nil {
		t.Fatal(err)
	}
	x, err := decodeAttrIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.encode(ar.current().d), data) {
		t.Fatal("decode+encode is not byte-identical")
	}
	if got := ar.current().aidx.encode(ar.current().d); !bytes.Equal(got, data) {
		t.Fatal("in-memory index does not encode to the on-disk bytes")
	}
}

// TestAttrIndexCorruptRemovedOnOpen: a corrupt sidecar is flagged by fsck,
// silently dropped by a writable open, and rebuilt by the next commit.
func TestAttrIndexCorruptRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	ar := buildAttrArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 512}, 3)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, attrIdxFile)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean || checkKinds(r)["attridx"] == 0 {
		t.Fatalf("corrupt attr.idx not flagged: %+v", r.Problems())
	}

	ar2, err := Open(dir, keys.MustParseSpec(attrSpec), Config{Budget: 1 << 16, SegmentTarget: 512})
	if err != nil {
		t.Fatal(err)
	}
	if ar2.current().aidx != nil {
		t.Fatal("corrupt index survived open")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("corrupt attr.idx not removed on writable open: %v", err)
	}
	if err := addVersion(ar2, strings.NewReader(attrDoc(4))); err != nil {
		t.Fatal(err)
	}
	if ar2.current().aidx == nil {
		t.Fatal("index not rebuilt by next commit")
	}
	if err := ar2.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean {
		t.Fatalf("archive not clean after rebuild: %+v", r.Problems())
	}
}

// TestAttrIndexStaleKeydir: a sidecar left over from an older directory
// decodes fine but fails the CRC binding; fsck reports it as advisory-OK
// and a writable open drops it.
func TestAttrIndexStaleKeydir(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 512}
	ar := buildAttrArchive(t, dir, cfg, 2)
	p := filepath.Join(dir, attrIdxFile)
	old, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := addVersion(ar, strings.NewReader(attrDoc(3))); err != nil {
		t.Fatal(err)
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, old, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean {
		t.Fatalf("stale advisory sidecar should not fail fsck: %+v", r.Problems())
	}
	ar2, err := Open(dir, keys.MustParseSpec(attrSpec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ar2.Close()
	if ar2.current().aidx != nil {
		t.Fatal("stale index adopted on open")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("stale attr.idx not removed: %v", err)
	}
}

// sidecarCorpus is one archive history the attr.idx derivation is checked
// over.
type sidecarCorpus struct {
	name string
	spec *keys.Spec
	docs []*xmltree.Node
}

// sidecarCorpora: the attr corpus (attributes above and inside the
// frontier), the same documents under a spec whose root is the frontier (one
// raw root), XMark and OMIM.
func sidecarCorpora(t *testing.T) []sidecarCorpus {
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
	return []sidecarCorpus{
		{"attr", keys.MustParseSpec(attrSpec), attrDocs},
		{"raw-root", keys.MustParseSpec("(/, (db, {}))"), attrDocs},
		{"xmark", xm.Spec(), xdocs},
		{"omim", omim.Spec(), odocs},
	}
}

// build archives the corpus into dir, one add per document, in small
// segments so that sidecar postings are reused, captured and re-linked.
func (c *sidecarCorpus) build(t *testing.T, dir string) {
	t.Helper()
	ar, err := Open(dir, c.spec, Config{SegmentTarget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range c.docs {
		if err := addTree(doc.Clone())(ar); err != nil {
			t.Fatal(err)
		}
	}
	if ar.IdxErr != nil {
		t.Fatalf("IdxErr = %v", ar.IdxErr)
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
}

// rebuildSidecar deletes dir's attr.idx and opens the archive with
// RebuildAttrIndex, as fsck -repair does; the caller closes it.
func rebuildSidecar(t *testing.T, dir string, spec *keys.Spec) *Archiver {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, attrIdxFile)); err != nil {
		t.Fatal(err)
	}
	ar, err := Open(dir, spec, Config{SegmentTarget: 2048, RebuildAttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if ar.current().aidx == nil {
		t.Fatalf("sidecar not rebuilt (IdxErr=%v)", ar.IdxErr)
	}
	return ar
}

// TestAttrIndexCaptureMatchesScan: a sidecar rebuilt from the stored
// segments (open with RebuildAttrIndex, what fsck -repair does) is byte for
// byte the one the writes captured, kid spans included.
func TestAttrIndexCaptureMatchesScan(t *testing.T) {
	for _, c := range sidecarCorpora(t) {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.build(t, dir)
			captured, err := os.ReadFile(filepath.Join(dir, attrIdxFile))
			if err != nil {
				t.Fatal(err)
			}
			ar := rebuildSidecar(t, dir, c.spec)
			rebuilt := ar.current().aidx.encode(ar.current().d)
			if err := ar.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rebuilt, captured) {
				t.Fatalf("rebuilt sidecar (%d bytes) differs from the captured one (%d bytes)", len(rebuilt), len(captured))
			}
			if onDisk, err := os.ReadFile(filepath.Join(dir, attrIdxFile)); err != nil || !bytes.Equal(onDisk, captured) {
				t.Fatalf("rebuilt attr.idx on disk differs from the captured one (%v)", err)
			}
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

// TestAttrIndexMatchesFactsOf holds every posting, captured and rebuilt, to
// the shared evaluator: qlang.FactsOf over the record the query path
// materializes (recordNode) — for every entry and raw root, frontier or not.
// A non-frontier posting carries one kid span per element child.
func TestAttrIndexMatchesFactsOf(t *testing.T) {
	for _, c := range sidecarCorpora(t) {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.build(t, dir)
			check := func(ar *Archiver, phase string) {
				t.Helper()
				q, err := ar.OpenQuery()
				if err != nil {
					t.Fatal(err)
				}
				defer q.Close()
				records := 0
				compare := func(where string, ent *idxEntry, r *rootRecord, s *segmentRecord, e *childEntry, frontier bool) {
					t.Helper()
					records++
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
						compare("raw root "+r.name, q.aidx.raws[keyLabel(r.name, r.key)].e, r, nil, nil, true)
						continue
					}
					for _, s := range r.segs {
						for i := range s.entries {
							e := &s.entries[i]
							frontier := c.spec.IsFrontier(keys.Path([]string{r.name, e.name}))
							compare(s.file+" "+keyLabel(e.name, e.key), q.posting(s, i), r, s, e, frontier)
						}
					}
				}
				if records == 0 {
					t.Fatalf("%s: no records", phase)
				}
			}
			ar, err := Open(dir, c.spec, Config{SegmentTarget: 2048})
			if err != nil {
				t.Fatal(err)
			}
			check(ar, "captured")
			if err := ar.Close(); err != nil {
				t.Fatal(err)
			}
			ar = rebuildSidecar(t, dir, c.spec)
			defer ar.Close()
			check(ar, "rebuilt")
		})
	}
}

// TestHistoryIOBudget: with the sidecar — captured or rebuilt — a warm
// two-step History is answered from the key directory and a three-step one
// from the kid index's recorded lifespan: neither reads a segment byte, and
// both answer like the store without a sidecar.
func TestHistoryIOBudget(t *testing.T) {
	xm := datagen.NewXMark(datagen.XMarkConfig{Seed: 1, Items: 60, People: 40, Categories: 6, OpenAucts: 20, ClosedAucts: 12})
	c := sidecarCorpus{spec: xm.Spec()}
	doc := xm.Document()
	for v := 0; v < 4; v++ {
		c.docs = append(c.docs, doc)
		doc = xm.RandomChanges(doc, 0.1)
	}
	dir := t.TempDir()
	c.build(t, dir)
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
	scan, err := Open(dir, c.spec, Config{NoAttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, sel := range selectors {
		h, _ := history(scan, sel)
		want[sel] = h.String()
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(ar *Archiver, phase string) {
		t.Helper()
		for _, sel := range selectors {
			h, n := history(ar, sel)
			if n != 0 {
				t.Errorf("%s: History(%s) read %d segment bytes, want 0", phase, sel, n)
			}
			if h.String() != want[sel] {
				t.Errorf("%s: History(%s) = %s, the store without a sidecar says %s", phase, sel, h, want[sel])
			}
		}
	}
	ar, err := Open(dir, c.spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	check(ar, "captured")
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	ar = rebuildSidecar(t, dir, c.spec)
	defer ar.Close()
	check(ar, "rebuilt")
}

// TestAttrIndexDisabled: NoAttrIndex archives never write the sidecar and
// still answer queries.
func TestAttrIndexDisabled(t *testing.T) {
	dir := t.TempDir()
	ar := buildAttrArchive(t, dir, Config{Budget: 1 << 16, NoAttrIndex: true}, 3)
	defer ar.Close()
	if ar.current().aidx != nil {
		t.Fatal("index built despite NoAttrIndex")
	}
	if _, err := os.Stat(filepath.Join(dir, attrIdxFile)); !os.IsNotExist(err) {
		t.Fatalf("attr.idx written despite NoAttrIndex: %v", err)
	}
	if got := snapshotXML(t, ar); !strings.Contains(got, "region") {
		t.Fatal("archive content missing")
	}
}

// TestFsckAttrIndexSemanticChecks: fsck validates postings beyond the
// checksum — a kid span pointing outside its segment payload is caught
// even though the file re-encodes with a valid CRC.
func TestFsckAttrIndexSemanticChecks(t *testing.T) {
	dir := t.TempDir()
	ar := buildAttrArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 512}, 3)
	d := ar.current().d
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, attrIdxFile)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	x, err := decodeAttrIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for _, fi := range x.files {
		for _, e := range fi.entries {
			if e.hasKids && len(e.kids) > 0 {
				e.kids[0].size = 1 << 40
				tampered = true
				break
			}
		}
		if tampered {
			break
		}
	}
	if !tampered {
		t.Fatal("no kid postings to tamper with")
	}
	if err := os.WriteFile(p, x.encode(d), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean || checkKinds(r)["attridx"] == 0 {
		t.Fatalf("out-of-range kid span not flagged: %+v", r.Problems())
	}
}

// TestRepairRestoresAttrIndex: RepairArchive rebuilds a missing sidecar.
func TestRepairRestoresAttrIndex(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 512}
	ar := buildAttrArchive(t, dir, cfg, 3)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, attrIdxFile)
	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}
	if _, err := RepairArchive(nil, dir, keys.MustParseSpec(attrSpec), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("repair did not restore attr.idx: %v", err)
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean {
		t.Fatalf("archive not clean after repair: %+v", r.Problems())
	}
}
