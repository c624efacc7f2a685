package extmem

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// archiveStreamBytes renders the whole archive as one token stream, by
// encodeTokens — each non-raw root's open and attribute tokens from its
// record, then its segments' tokens — so archives compare byte for byte
// whatever each segment's dictionary or file layout.
func archiveStreamBytes(t *testing.T, ar *Archiver) []byte {
	t.Helper()
	var toks []token
	for _, r := range ar.current().d.roots {
		if !r.raw {
			toks = append(toks, token{op: tokOpen, tag: ar.dict.id(r.name), key: r.key, data: r.timeStr})
			for _, a := range r.attrs {
				toks = append(toks, token{op: tokAttr, tag: ar.dict.id(a.name), data: a.value})
			}
		}
		tr := ar.readParts(rootParts(r))
		for tok, ok := tr.take(); ok; tok, ok = tr.take() {
			toks = append(toks, tok)
		}
		err := tr.err
		tr.release()
		if err != nil {
			t.Fatalf("read root %s: %v", r.name, err)
		}
		if !r.raw {
			toks = append(toks, token{op: tokClose})
		}
	}
	return encodeTokens(t, toks)
}

func buildOMIMArchive(t testing.TB, dir string, cfg Config, versions int) *Archiver {
	t.Helper()
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 91, Records: 30, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.1})
	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < versions; i++ {
		if err := addVersion(ar, strings.NewReader(g.Next().IndentedXML())); err != nil {
			t.Fatalf("add v%d: %v", i+1, err)
		}
	}
	return ar
}

func snapshotXML(t *testing.T, ar *Archiver) string {
	t.Helper()
	var b strings.Builder
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := q.WriteArchiveXML(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSegmentLocalMerge pins the tentpole claim: a small Add into a
// many-segment archive reuses the segments its key range does not touch,
// and an empty version touches no segments at all.
func TestSegmentLocalMerge(t *testing.T) {
	dir := t.TempDir()
	// ~30 records with a 2 KiB target yields a healthy number of segments.
	ar := buildOMIMArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 2048}, 1)
	st := ar.StorageStats()
	if st.Segments < 4 {
		t.Fatalf("expected several segments, got %d", st.Segments)
	}

	// Version 2 inserts/modifies a few records: most segments must
	// survive untouched.
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 91, Records: 30, DeleteFrac: 0, InsertFrac: 0.03, ModifyFrac: 0.03})
	v1 := g.Next()
	dir2 := t.TempDir()
	ar2, err := Open(dir2, datagen.OMIMSpec(), Config{Budget: 1 << 16, SegmentTarget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := addVersion(ar2, strings.NewReader(v1.IndentedXML())); err != nil {
		t.Fatal(err)
	}
	before := map[string]bool{}
	for f := range ar2.current().d.files() {
		before[f] = true
	}
	if err := addVersion(ar2, strings.NewReader(g.Next().IndentedXML())); err != nil {
		t.Fatal(err)
	}
	if ar2.Last().Merge.SegmentsReused == 0 {
		t.Errorf("small add reused no segments: %+v", ar2.Last().Merge)
	}
	if ar2.Last().Merge.SegmentsRewritten >= len(before) {
		t.Errorf("small add rewrote every one of the %d segments: %+v", len(before), ar2.Last().Merge)
	}
	reusedOnDisk := 0
	for f := range ar2.current().d.files() {
		if before[f] {
			reusedOnDisk++
		}
	}
	if reusedOnDisk != ar2.Last().Merge.SegmentsReused {
		t.Errorf("reused-on-disk %d != reported reused %d", reusedOnDisk, ar2.Last().Merge.SegmentsReused)
	}

	// An empty version is a directory-only commit: zero segment I/O.
	if err := addVersion(ar2, nil); err != nil {
		t.Fatal(err)
	}
	if ar2.Last().Merge.SegmentsRewritten != 0 || ar2.Last().Merge.SegmentsCreated != 0 {
		t.Errorf("empty version touched segments: %+v", ar2.Last().Merge)
	}
}

// TestCorruptKeyDirectoryRebuild pins the crash-safety satellite: a
// truncated or bit-flipped key directory is detected by checksum and the
// store rebuilds it from the segment files instead of erroring.
func TestCorruptKeyDirectoryRebuild(t *testing.T) {
	dir := t.TempDir()
	ar := buildOMIMArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 2048}, 3)
	want := snapshotXML(t, ar)
	wantStream := archiveStreamBytes(t, ar)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}

	kdPath := filepath.Join(dir, keydirFile)
	orig, err := os.ReadFile(kdPath)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func() []byte{
		"truncated": func() []byte { return orig[:len(orig)/2] },
		"bitflip": func() []byte {
			c := append([]byte(nil), orig...)
			c[len(c)/3] ^= 0x40
			return c
		},
		"missing": nil,
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			// A crash-orphan segment (a valid file the directory never
			// committed) must not be woven into the rebuilt archive.
			segs, err := filepath.Glob(filepath.Join(dir, "seg-*.tok"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("segments: %v %v", segs, err)
			}
			orphanData, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			orphan := filepath.Join(dir, "seg-00009999.tok")
			if err := os.WriteFile(orphan, orphanData, 0o644); err != nil {
				t.Fatal(err)
			}
			if corrupt == nil {
				if err := os.Remove(kdPath); err != nil {
					t.Fatal(err)
				}
			} else if err := os.WriteFile(kdPath, corrupt(), 0o644); err != nil {
				t.Fatal(err)
			}
			ar2, err := Open(dir, datagen.OMIMSpec(), Config{Budget: 1 << 16, SegmentTarget: 2048})
			if err != nil {
				t.Fatalf("open with corrupt keydir: %v", err)
			}
			if ar2.Versions() != 3 {
				t.Fatalf("rebuilt archive has %d versions, want 3", ar2.Versions())
			}
			if got := snapshotXML(t, ar2); got != want {
				t.Errorf("rebuilt archive XML differs")
			}
			if got := archiveStreamBytes(t, ar2); string(got) != string(wantStream) {
				t.Errorf("rebuilt archive token stream differs")
			}
			// The rebuild must have re-persisted a valid directory.
			data, err := os.ReadFile(kdPath)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeKeyDirectory(data); err != nil {
				t.Errorf("rebuilt keydir does not decode: %v", err)
			}
			if _, err := os.Stat(orphan); !os.IsNotExist(err) {
				t.Errorf("orphan segment survived the rebuild's GC")
			}
			if err := ar2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStaleMetaSelfHeal: a crash between the meta backup and the key
// directory commit leaves a newer meta than directory; the directory is
// authoritative and the stale backup is rewritten at open.
func TestStaleMetaSelfHeal(t *testing.T) {
	dir := t.TempDir()
	ar := buildOMIMArchive(t, dir, Config{Budget: 1 << 16}, 2)
	want := snapshotXML(t, ar)
	ar.Close()
	// Fake a stale meta: bump its version count.
	meta := ar.current().d
	fake := &keyDirectory{versions: meta.versions + 7, rootTime: meta.rootTime, roots: meta.roots}
	if err := os.WriteFile(filepath.Join(dir, metaFile), encodeMeta(fake), 0o644); err != nil {
		t.Fatal(err)
	}
	ar2, err := Open(dir, datagen.OMIMSpec(), Config{Budget: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if ar2.Versions() != 2 {
		t.Fatalf("versions = %d, want 2 (keydir authoritative)", ar2.Versions())
	}
	if got := snapshotXML(t, ar2); got != want {
		t.Errorf("archive XML changed after self-heal")
	}
	meta2, err := parseMetaV2(strings.NewReader(readFileString(t, filepath.Join(dir, metaFile))))
	if err != nil {
		t.Fatal(err)
	}
	if meta2.versions != 2 {
		t.Errorf("meta backup not healed: versions %d", meta2.versions)
	}
	ar2.Close()

	// A corrupt meta prefix must not reroute a healthy archive into the
	// legacy-migration or rebuild paths: the key directory decides.
	garbled := []byte(readFileString(t, filepath.Join(dir, metaFile)))
	garbled[0] ^= 0x20
	if err := os.WriteFile(filepath.Join(dir, metaFile), garbled, 0o644); err != nil {
		t.Fatal(err)
	}
	ar3, err := Open(dir, datagen.OMIMSpec(), Config{Budget: 1 << 16})
	if err != nil {
		t.Fatalf("open with garbled meta: %v", err)
	}
	if ar3.Versions() != 2 {
		t.Fatalf("versions = %d after garbled meta, want 2", ar3.Versions())
	}
	if got := snapshotXML(t, ar3); got != want {
		t.Errorf("archive XML changed after garbled-meta open")
	}
	meta3, err := parseMetaV2(strings.NewReader(readFileString(t, filepath.Join(dir, metaFile))))
	if err != nil || meta3.versions != 2 {
		t.Errorf("garbled meta not healed: %v, %+v", err, meta3)
	}
}

func readFileString(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSelectorSpecialCharacterKeys: key values containing the selector
// grammar's separator and escape characters resolve through the
// directory path (quoted selector values), matching the in-memory
// resolver.
func TestSelectorSpecialCharacterKeys(t *testing.T) {
	spec, err := keys.ParseSpecString(`
(/, (db, {}))
(/db, (item, {name}))
(/db/item, (name, {}))
(/db/item, (val, {}))
`)
	if err != nil {
		t.Fatal(err)
	}
	weird := []string{
		`a/b`, `a]b`, `a,b`, `a=b`, `a b`, `<&>`, `quote'q`,
	}
	var b strings.Builder
	b.WriteString("<db>")
	for i, w := range weird {
		fmt.Fprintf(&b, "<item><name>%s</name><val>v%d</val></item>",
			xmlEscape(w), i)
	}
	b.WriteString("</db>")

	dir := t.TempDir()
	ar, err := Open(dir, spec, Config{Budget: 64, SegmentTarget: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := addVersion(ar, strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	ext := loadExternal(t, ar, spec)
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for _, w := range weird {
		sel := `/db/item[name="` + w + `"]`
		want, werr := ext.History(sel)
		got, gerr := q.History(sel)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("History(%s): view err %v, streaming err %v", sel, werr, gerr)
		}
		if werr != nil {
			if werr.Error() != gerr.Error() {
				t.Errorf("History(%s) error text differs: %v vs %v", sel, werr, gerr)
			}
			continue
		}
		if !want.Equal(got) {
			t.Errorf("History(%s): view %q, streaming %q", sel, want, got)
		}
	}
	if _, err := q.History(`/db/item[name="no/such"]`); !errors.Is(err, core.ErrNoSuchElement) {
		t.Errorf("miss on special-char key: %v", err)
	}
}

func xmlEscape(s string) string {
	var b strings.Builder
	bw := bufio.NewWriter(&b)
	xmltree.EscapeText(bw, s)
	bw.Flush()
	return b.String()
}

// TestEmptyArchiveQueries: a freshly created archive answers every query
// sensibly through the directory path.
func TestEmptyArchiveQueries(t *testing.T) {
	dir := t.TempDir()
	ar, err := Open(dir, datagen.CompanySpec(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Version(1); !errors.Is(err, core.ErrNoSuchVersion) {
		t.Errorf("Version(1) on empty archive: %v", err)
	}
	if _, err := q.History("/db"); !errors.Is(err, core.ErrNoSuchElement) {
		t.Errorf("History on empty archive: %v", err)
	}
	st, err := q.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Elements != 1 || st.Versions != 0 {
		t.Errorf("empty archive stats: %+v", st)
	}
	// Reopen: the empty state round-trips.
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	ar2, err := Open(dir, datagen.CompanySpec(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ar2.Versions() != 0 {
		t.Errorf("reopened empty archive has %d versions", ar2.Versions())
	}
}

// TestViewSurvivesAdds: an open query view keeps answering from its
// generation while later Adds rewrite and delete segments under it.
func TestViewSurvivesAdds(t *testing.T) {
	dir := t.TempDir()
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 77, Records: 20, ModifyFrac: 0.4, InsertFrac: 0.2})
	ar, err := Open(dir, datagen.OMIMSpec(), Config{Budget: 1 << 16, SegmentTarget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := addVersion(ar, strings.NewReader(g.Next().IndentedXML())); err != nil {
		t.Fatal(err)
	}
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	var before strings.Builder
	if err := q.WriteVersion(1, &before, xmltree.WriteOptions{Indent: true}); err != nil {
		t.Fatal(err)
	}
	// Heavy churn: several adds rewrite most segments.
	for i := 0; i < 3; i++ {
		if err := addVersion(ar, strings.NewReader(g.Next().IndentedXML())); err != nil {
			t.Fatal(err)
		}
	}
	var after strings.Builder
	if err := q.WriteVersion(1, &after, xmltree.WriteOptions{Indent: true}); err != nil {
		t.Fatalf("old view failed after adds: %v", err)
	}
	if before.String() != after.String() {
		t.Errorf("old view's answer changed under later adds")
	}
	if q.Versions() != 1 {
		t.Errorf("old view sees %d versions", q.Versions())
	}
	q.Close()
	// After the view closes, its superseded segment files are swept.
	live := ar.current().d.files()
	for _, p := range globSegments(ar.fs, ar.dir) {
		if !live[filepath.Base(p)] {
			t.Errorf("unswept segment file %s after view close", filepath.Base(p))
		}
	}
}

// TestRootAttributesAndEmptyFirstVersion: root attributes round-trip
// through the directory's synthesized prefix, and an archive whose
// first version is empty stays consistent.
func TestRootAttributesAndEmptyFirstVersion(t *testing.T) {
	spec := datagen.CompanySpec()
	dir := t.TempDir()
	ar, err := Open(dir, spec, Config{Budget: 64, SegmentTarget: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := addVersion(ar, nil); err != nil {
		t.Fatal(err)
	}
	doc := `<db org="acme"><dept><name>finance</name></dept></db>`
	if err := addVersion(ar, strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if err := addVersion(ar, strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if v1, err := q.Version(1); err != nil || v1 != nil {
		t.Fatalf("empty first version: %v, %v", v1, err)
	}
	var out strings.Builder
	if err := q.WriteVersion(2, &out, xmltree.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `org="acme"`) {
		t.Errorf("root attribute lost: %s", out.String())
	}
	if s := snapshotXML(t, ar); !strings.Contains(s, `<db org="acme">`) {
		t.Errorf("root attribute lost from the export: %s", s)
	}
	h, err := q.History("/db/dept[name=finance]")
	if err != nil {
		t.Fatal(err)
	}
	if h.String() != "2-3" {
		t.Errorf("history = %q, want 2-3", h)
	}
	// Reopen (exercising keydir round-trip of root attrs) and extend
	// with mismatching root attributes: the merge must reject it.
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	ar2, err := Open(dir, spec, Config{Budget: 64, SegmentTarget: 128})
	if err != nil {
		t.Fatal(err)
	}
	err = addVersion(ar2, strings.NewReader(`<db org="other"><dept><name>finance</name></dept></db>`))
	if err == nil || !strings.Contains(err.Error(), "attributes of /db differ") {
		t.Errorf("mismatching root attributes accepted: %v", err)
	}
	if ar2.Versions() != 3 {
		t.Errorf("failed add advanced versions to %d", ar2.Versions())
	}
}

// TestSegmentsVerify: the inspect path verifies checksums and flags
// corruption.
func TestSegmentsVerify(t *testing.T) {
	dir := t.TempDir()
	ar := buildOMIMArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 2048}, 2)
	infos := ar.Segments()
	if len(infos) == 0 {
		t.Fatal("no segments")
	}
	for _, info := range infos {
		if !info.CRCOK {
			t.Errorf("segment %s reported corrupt", info.File)
		}
	}
	// Flip a payload byte: the checksum must catch it.
	victim := infos[0].File
	path := filepath.Join(dir, victim)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, info := range ar.Segments() {
		if info.File == victim && info.CRCOK {
			t.Errorf("corrupted segment %s passed verification", victim)
		}
	}
}

// legacySegHeader is a hand-built format-1 segment header: magic, format
// byte 1, no flags, zero payload length and CRC, root label ROOT with no
// key. No format-1 writer exists any more; these bytes are all a reader
// needs to recognise the generation.
var legacySegHeader = []byte("XSG1\x01\x00" +
	"\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00" + "\x04ROOT\x00")

// dirContents snapshots every file of dir by name.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		out[e.Name()] = readFileString(t, filepath.Join(dir, e.Name()))
	}
	return out
}

// TestLegacySegmentHeaderRejected covers the one legacy shape only the
// segment header reveals: the key directory is gone, so Open and fsck
// fall back to the files meta.txt lists — and meet a format-1 header.
// Both must report ErrLegacyFormat and leave the directory untouched.
func TestLegacySegmentHeaderRejected(t *testing.T) {
	if _, _, err := readSegmentHeader(bytes.NewReader(legacySegHeader)); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("readSegmentHeader(format-1 header) = %v, want ErrLegacyFormat", err)
	}
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	ar := buildOMIMArchive(t, dir, cfg, 1)
	files := segmentFiles(t, ar)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, keydirFile))
	os.Remove(filepath.Join(dir, attrIdxFile))
	if err := os.WriteFile(filepath.Join(dir, files[0]), legacySegHeader, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)
	if _, err := Open(dir, datagen.OMIMSpec(), cfg); !errors.Is(err, ErrLegacyFormat) {
		t.Errorf("Open = %v, want ErrLegacyFormat", err)
	}
	if _, err := CheckArchive(nil, dir); !errors.Is(err, ErrLegacyFormat) {
		t.Errorf("CheckArchive = %v, want ErrLegacyFormat", err)
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(before, after) {
		t.Errorf("rejected legacy directory was modified")
	}
}

// TestDamagedSegmentDictionaryIsCorrupt: a segment whose dictionary section
// or header is damaged is a corrupt archive, for the query that meets it
// and for the header reader alike — not a bare decode error that keeps the
// operator from running fsck -repair.
func TestDamagedSegmentDictionaryIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	ar := buildOMIMArchive(t, dir, cfg, 1)
	seg := ar.current().d.roots[0].segs[0]
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, seg.file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[seg.dataOff-seg.dictLen] = 0x7f // the path table's count
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ar2, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ar2.Close()
	q, err := ar2.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := q.WriteVersion(1, io.Discard, xmltree.WriteOptions{Indent: true}); !errors.Is(err, core.ErrCorruptArchive) {
		t.Errorf("WriteVersion over a damaged dictionary: %v, want a corrupt archive", err)
	}
	for name, b := range map[string][]byte{"damaged dictionary": data, "10-byte file": data[:10]} {
		if _, _, err := readSegmentHeader(bytes.NewReader(b)); !errors.Is(err, core.ErrCorruptArchive) {
			t.Errorf("readSegmentHeader of a %s: %v, want a corrupt archive", name, err)
		}
	}
}

// FuzzSegmentHeader feeds readSegmentHeader hostile bytes — what a
// replication peer can hand us — and holds it to checkHostile's contract:
// no panic, no allocation beyond a small multiple of the bytes actually
// supplied (every length prefix is capped by the input size before it
// sizes a make), and an error that is ErrCorruptArchive or
// ErrLegacyFormat. The seeds include what a block-compressing build left
// behind — the compression flag on a header — and a block length without
// the flag, which are ErrLegacyFormat and ErrCorruptArchive.
func FuzzSegmentHeader(f *testing.F) {
	dir := f.TempDir()
	ar := buildOMIMArchive(f, dir, Config{Budget: 1 << 16, SegmentTarget: 2048}, 1)
	seg := ar.current().d.roots[0].segs[0]
	data, err := os.ReadFile(filepath.Join(dir, seg.file))
	if err != nil {
		f.Fatal(err)
	}
	ar.Close()
	f.Add(data)
	flagged := bytes.Clone(data)
	flagged[len(segMagic)+1] |= segFlagCompressed
	// The block length is the byte before the dictionary length.
	blocked := bytes.Clone(data)
	at := seg.dataOff - seg.dictLen - int64(len(binary.AppendUvarint(nil, uint64(seg.dictLen)))) - 1
	if blocked[at] != 0 {
		f.Fatalf("byte %d of the seed header is %#x, not the block length 0", at, blocked[at])
	}
	blocked[at] = 1
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{{"compression flag", flagged, ErrLegacyFormat}, {"block length", blocked, core.ErrCorruptArchive}} {
		if _, _, err := readSegmentHeader(bytes.NewReader(c.data)); !errors.Is(err, c.want) {
			f.Fatalf("header with a %s: %v, want %v", c.name, err, c.want)
		}
		f.Add(c.data)
	}
	f.Add(legacySegHeader)
	f.Fuzz(func(t *testing.T, data []byte) {
		var h *segmentHeader
		err := checkHostile(t, len(data), func() (err error) {
			h, _, err = readSegmentHeader(bytes.NewReader(data))
			return err
		})
		if err == nil && (h.dataOff > int64(len(data)) || h.dictLen > int64(len(data))) {
			t.Fatalf("accepted header claims dataOff %d, dictLen %d in %d bytes", h.dataOff, h.dictLen, len(data))
		}
	})
}
