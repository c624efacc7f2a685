package extmem

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xarch/internal/keys"
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

// factsRendering renders the fact content of an index — changes and
// attributes per record, raw signatures — ignoring the kid mini-index,
// which only capture-built postings carry.
func factsRendering(x *attrIndex) string {
	var files []string
	for f := range x.files {
		files = append(files, f)
	}
	sort.Strings(files)
	var b strings.Builder
	for _, f := range files {
		fi := x.files[f]
		fmt.Fprintf(&b, "file %s crc=%08x n=%d\n", f, fi.crc, len(fi.entries))
		for i, e := range fi.entries {
			fmt.Fprintf(&b, " entry %d %s\n", i, entryFacts(e))
		}
	}
	var raws []string
	for label, ri := range x.raws {
		raws = append(raws, fmt.Sprintf("raw %s sig=%s %s\n", label, ri.sig, entryFacts(ri.e)))
	}
	sort.Strings(raws)
	for _, r := range raws {
		b.WriteString(r)
	}
	return b.String()
}

func entryFacts(e *idxEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "groups=%v changes=", e.facts.HasGroups)
	for _, c := range e.facts.Changes {
		fmt.Fprintf(&b, "(%v,%d)", c.Explicit, c.V)
	}
	attrs := make([]string, len(e.facts.Attrs))
	for i, a := range e.facts.Attrs {
		ts := ""
		if a.Time != nil {
			ts = a.Time.String()
		}
		attrs[i] = fmt.Sprintf("%s=%s@%q", a.Name, a.Value, ts)
		if e.attrTimes[i] != ts {
			attrs[i] += fmt.Sprintf(" (stored as %q)", e.attrTimes[i])
		}
	}
	sort.Strings(attrs)
	fmt.Fprintf(&b, " attrs=%v", attrs)
	return b.String()
}

// TestAttrIndexCaptureMatchesScan: the write-time captured postings hold
// exactly the facts a from-scratch scan rebuild derives.
func TestAttrIndexCaptureMatchesScan(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 512}
	ar := buildAttrArchive(t, dir, cfg, 4)
	if ar.current().aidx == nil {
		t.Fatal("no captured index")
	}
	captured := factsRendering(ar.current().aidx)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, attrIdxFile)); err != nil {
		t.Fatal(err)
	}
	cfg.RebuildAttrIndex = true
	ar2, err := Open(dir, keys.MustParseSpec(attrSpec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ar2.Close()
	if ar2.current().aidx == nil {
		t.Fatalf("scan rebuild did not run (IdxErr=%v)", ar2.IdxErr)
	}
	if scanned := factsRendering(ar2.current().aidx); scanned != captured {
		t.Fatalf("captured and scan-built facts differ:\ncaptured:\n%s\nscanned:\n%s", captured, scanned)
	}
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
