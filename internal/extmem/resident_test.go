package extmem

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/fsio"
	"xarch/internal/qlang"
	"xarch/internal/xmltree"
)

// omimSelectors names, for every third record of d's first root, the
// record and its Title.
func omimSelectors(d *keyDirectory) []string {
	var sels []string
	i := 0
	for _, s := range d.roots[0].segs {
		for _, e := range s.entries {
			if i++; i%3 == 1 {
				rec := fmt.Sprintf("/ROOT/Record[Num=%s]", e.key.canon[0])
				sels = append(sels, rec, rec+"/Title")
			}
		}
	}
	return sels
}

// readAll renders to w every answer ar's current generation gives: each
// version, the archive form, History and ContentHistory of sels, and
// Select of exprs, errors included.
func readAll(t *testing.T, ar *Archiver, w io.Writer, sels, exprs []string) {
	t.Helper()
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for v := 1; v <= q.Versions(); v++ {
		err := q.WriteVersion(v, w, xmltree.WriteOptions{Indent: true})
		fmt.Fprintf(w, "\nversion %d: %v\n", v, err)
	}
	fmt.Fprintf(w, "\narchive: %v\n", q.WriteArchiveXML(w))
	for _, sel := range sels {
		h, err := q.History(sel)
		c, cerr := q.ContentHistory(sel)
		fmt.Fprintf(w, "%s: %v %v %v %v\n", sel, h, err, c, cerr)
	}
	for _, expr := range exprs {
		e, err := qlang.Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Select(e)
		fmt.Fprintf(w, "%s: %v %v\n", expr, res, err)
	}
}

// answers is readAll to a string.
func answers(t *testing.T, ar *Archiver, sels, exprs []string) string {
	t.Helper()
	var b strings.Builder
	readAll(t, ar, &b, sels, exprs)
	return b.String()
}

// TestOpenLoadsNoSection: an open store holds its key directory and no
// segment section; a version read loads dictionaries only, and a Select
// then loads the postings it needs.
func TestOpenLoadsNoSection(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	if err := buildOMIMArchive(t, dir, cfg, 3).Close(); err != nil {
		t.Fatal(err)
	}
	fs := &openCounter{FS: fsio.OS}
	cfg.FS = fs
	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	if st := ar.StorageStats(); st.ResidentSectionBytes != 0 || st.SectionLoads != 0 || ar.BytesRead() != 0 {
		t.Fatalf("after Open: %d resident section bytes, %d loads, %d bytes read; want none", st.ResidentSectionBytes, st.SectionLoads, ar.BytesRead())
	}
	fs.opens.Store(0)
	readAll(t, ar, io.Discard, nil, nil)
	st := ar.StorageStats()
	// A dictionary loads through the file its reader holds open: the cold
	// reads open no more files than the same reads warm.
	cold := fs.opens.Swap(0)
	readAll(t, ar, io.Discard, nil, nil)
	if warm := fs.opens.Load(); cold != warm {
		t.Errorf("the version reads opened %d files cold and %d warm", cold, warm)
	}
	for _, s := range ar.current().d.roots[0].segs {
		if s.dict.p.Load() == nil || s.posts.p.Load() != nil {
			t.Fatalf("after a version read, segment %s: dictionary %v, postings %v; want the dictionary alone", s.file, s.dict.p.Load() != nil, s.posts.p.Load() != nil)
		}
	}
	if int(st.SectionLoads) != st.Segments || st.ResidentSectionBytes == 0 {
		t.Errorf("after a version read: %d loads of %d segments' dictionaries, %d resident bytes", st.SectionLoads, st.Segments, st.ResidentSectionBytes)
	}
	readAll(t, ar, io.Discard, nil, []string{"changed 2.."})
	if after := ar.StorageStats(); int(after.SectionLoads) != 2*st.Segments || after.SectionEvictions != 0 {
		t.Errorf("after a Select: %d loads, %d evictions; want %d and none", after.SectionLoads, after.SectionEvictions, 2*st.Segments)
	}
}

// openCounter counts the files opened through it.
type openCounter struct {
	fsio.FS
	opens atomic.Int64
}

func (c *openCounter) Open(name string) (fsio.File, error) {
	c.opens.Add(1)
	return c.FS.Open(name)
}

// TestDamagedSectionSurfacesAtFirstTouch: Open reads no section, so a
// segment whose dictionary is damaged opens; reads that do not touch it
// answer as before, and the one that does fails as a corrupt archive, each
// time it is asked, as a failed load is not kept. fsck names the segment.
func TestDamagedSectionSurfacesAtFirstTouch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	ar := buildOMIMArchive(t, dir, cfg, 3)
	segs := ar.current().d.roots[0].segs
	if len(segs) < 3 {
		t.Fatalf("%d segments; want several", len(segs))
	}
	bad, other := segs[0], segs[len(segs)-1]
	sel := fmt.Sprintf("/ROOT/Record[Num=%s]/Title", other.entries[0].key.canon[0])
	want := answers(t, ar, []string{sel}, nil)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, bad.file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dict := data[bad.dataOff-bad.postLen-bad.dictLen : bad.dataOff-bad.postLen]
	for i := range dict {
		dict[i] = 0xff
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ar, err = Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatalf("Open with a damaged dictionary: %v", err)
	}
	defer ar.Close()
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	h, err := q.History(sel)
	c, cerr := q.ContentHistory(sel)
	if got := fmt.Sprintf("%s: %v %v %v %v\n", sel, h, err, c, cerr); !strings.HasSuffix(want, got) {
		t.Errorf("a read of another segment: %q; want it as before the damage", got)
	}
	if other.dict.p.Load() == nil {
		t.Errorf("the read of another segment loaded no dictionary")
	}
	for i := range 2 {
		if err := q.WriteVersion(1, &strings.Builder{}, xmltree.WriteOptions{}); !errors.Is(err, core.ErrCorruptArchive) {
			t.Errorf("read %d through the damaged segment: %v, want ErrCorruptArchive", i+1, err)
		}
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	named := false
	for _, p := range r.Problems() {
		named = named || p.Kind == "segment" && p.File == bad.file
	}
	if !named {
		t.Errorf("fsck does not name %s: %+v", bad.file, r.Problems())
	}
}

// TestSectionsEvictAndReload: under a section budget far below the
// archive's sections, every answer — each version, the archive form,
// History, ContentHistory and Select — is the unbounded store's, read
// twice, and the resident bytes stay inside the budget.
func TestSectionsEvictAndReload(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	if err := buildOMIMArchive(t, dir, cfg, 4).Close(); err != nil {
		t.Fatal(err)
	}
	exprs := []string{"changed 2..", "changed 3.. AND in 4..4", "NOT in 1..1"}
	read := func(budget int64) (string, string, StorageStats) {
		t.Helper()
		c := cfg
		c.SectionBudget = budget
		ar, err := Open(dir, datagen.OMIMSpec(), c)
		if err != nil {
			t.Fatal(err)
		}
		defer ar.Close()
		sels := omimSelectors(ar.current().d)
		return answers(t, ar, sels, exprs), answers(t, ar, sels, exprs), ar.StorageStats()
	}
	want, _, _ := read(0)
	const budget = 32 << 10
	first, second, st := read(budget)
	if first != want || second != want {
		t.Fatalf("a store under a %d-byte section budget answers differently", budget)
	}
	if st.SectionEvictions == 0 || st.ResidentSectionBytes > budget || st.ResidentSectionBytes == 0 {
		t.Errorf("%d evictions, %d resident bytes under a %d-byte budget", st.SectionEvictions, st.ResidentSectionBytes, budget)
	}
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMemoryIsExternal: an 8,000-record OMIM archive of 3 versions opens
// to a heap the size of its key directory, and a version read, the
// archive form, History and Select keep the sections they load within
// the section budget.
func TestMemoryIsExternal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10 MB archive")
	}
	dir := t.TempDir()
	cfg := Config{SegmentTarget: 64 << 10}
	func() {
		g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 3, Records: 8000, DeleteFrac: 0.05, InsertFrac: 0.05, ModifyFrac: 0.1})
		ar, err := Open(dir, datagen.OMIMSpec(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := 1; v <= 3; v++ {
			if _, err := ar.AddVersionBatch([]Source{{Doc: g.Next()}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ar.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	const budget = 4 << 20
	cfg.SectionBudget = budget
	base := liveHeap()
	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	opened := liveHeap() - base
	// The key directory's size is what decoding keydir.idx alone holds.
	d, err := decodeKeyDirectory(ar.current().state.keydir)
	if err != nil {
		t.Fatal(err)
	}
	dirHeap := liveHeap() - base - opened
	runtime.KeepAlive(d)
	st := ar.StorageStats()
	t.Logf("%d segments, %d stored bytes, %d posting bytes; key directory %d bytes, %d on the heap; heap after Open %d",
		st.Segments, st.StoredBytes, st.PostingBytes, st.DirectoryBytes, dirHeap, opened)
	if st.ResidentSectionBytes != 0 || opened > dirHeap+2<<20 {
		t.Errorf("after Open: %d resident section bytes, heap %d; want none and at most the key directory's %d + 2 MiB", st.ResidentSectionBytes, opened, dirHeap)
	}
	sels := omimSelectors(ar.current().d)[:200]
	for _, read := range []struct {
		name        string
		sels, exprs []string
	}{{"version and archive form", nil, nil}, {"History", sels, nil}, {"Select", nil, []string{"changed 2..", "/ROOT/Record/Title AND in 3..3"}}} {
		readAll(t, ar, io.Discard, read.sels, read.exprs)
		st := ar.StorageStats()
		// The slack holds what the reads derive from the directory and
		// keep with it: the entry identities of every segment and the
		// root's entry index, about 2 MB here.
		const slack = 3 << 20
		grown := liveHeap() - base - opened
		t.Logf("after %s: %d resident section bytes, %d loads, %d evictions, heap +%d", read.name, st.ResidentSectionBytes, st.SectionLoads, st.SectionEvictions, grown)
		if st.ResidentSectionBytes > budget || grown > budget+slack {
			t.Errorf("after %s: %d resident section bytes, heap +%d; want at most %d and %d", read.name, st.ResidentSectionBytes, grown, budget, budget+slack)
		}
	}
}
