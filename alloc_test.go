package xarch

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/xmltree"
)

// omimTexts returns n successive versions of an OMIM database of the given
// size as the XML text the benchmark's ingest-accrete workload streams in.
func omimTexts(tb testing.TB, records, n int, seed int64) (*KeySpec, [][]byte) {
	tb.Helper()
	cfg := datagen.DefaultOMIM()
	cfg.Seed, cfg.Records = seed, records
	g := datagen.NewOMIM(cfg)
	texts := make([][]byte, n)
	for i := range texts {
		var b bytes.Buffer
		if err := g.Next().Write(&b, xmltree.WriteOptions{}); err != nil {
			tb.Fatal(err)
		}
		texts[i] = b.Bytes()
	}
	return g.Spec(), texts
}

// TestAddAllocations is the validated AddReader's allocation budget on the
// benchmark's ingest-accrete shape: versions 2–6 of a 450-record OMIM
// archive (634 KB each). A version is tokenized into the writer's reused
// document slab, checked and sorted there, and the merge reads the sorted
// tokens in place; an add that builds an xmltree.Node tree again, or
// encodes and decodes the sorted version, allocates two to three times the
// budget (140,461 objects and 10.3 MB per add did both).
func TestAddAllocations(t *testing.T) {
	const maxObjects, maxBytes = 40_000, 5_000_000
	spec, texts := omimTexts(t, 450, 6, 1)
	st, err := OpenStore(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.AddReader(bytes.NewReader(texts[0])); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, text := range texts[1:] {
		if err := st.AddReader(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	adds := uint64(len(texts) - 1)
	objects, allocated := (after.Mallocs-before.Mallocs)/adds, (after.TotalAlloc-before.TotalAlloc)/adds
	t.Logf("per validated add: %d objects, %d bytes", objects, allocated)
	if objects > maxObjects || allocated > maxBytes {
		t.Errorf("a validated add allocates %d objects and %d bytes, want at most %d and %d", objects, allocated, maxObjects, maxBytes)
	}
}

// TestAddAllocationsAfterOpen is the allocation budget of the benchmark's
// query-mix add: an archive of 8 XMark versions (a site at 30% of the
// default size, alternating 10% random and key-modifying changes) is
// reopened and given version 9, which rewrites its one segment through the
// freshly opened store's segment writer. The writer encodes each token as
// it arrives, into a byte buffer, and renumbers the buffer once when the
// segment closes: 4.1 MB per add. Holding the segment as decoded tokens
// and encoding them in two more passes allocated 8.1 MB.
func TestAddAllocationsAfterOpen(t *testing.T) {
	const maxBytes = 6_000_000
	def := datagen.DefaultXMark()
	pc := func(n int) int { return n * 30 / 100 }
	g := datagen.NewXMark(datagen.XMarkConfig{Seed: 1, Items: pc(def.Items), People: pc(def.People),
		Categories: pc(def.Categories), OpenAucts: pc(def.OpenAucts), ClosedAucts: pc(def.ClosedAucts)})
	docs := []*xmltree.Node{g.Document()}
	for len(docs) < 9 {
		if len(docs)%2 == 1 {
			docs = append(docs, g.RandomChanges(docs[len(docs)-1], 0.10))
		} else {
			docs = append(docs, g.KeyModChanges(docs[len(docs)-1], 0.10))
		}
	}
	base := t.TempDir()
	st, err := OpenStore(base, g.Spec())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[:8] {
		if err := st.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	const adds = 3
	var allocated uint64
	for i := range adds {
		dir := filepath.Join(t.TempDir(), "copy")
		if err := os.CopyFS(dir, os.DirFS(base)); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(dir, g.Spec())
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = st.Add(docs[8])
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if i > 0 { // the first add warms the process's pools
			allocated += after.TotalAlloc - before.TotalAlloc
		}
	}
	allocated /= adds - 1
	t.Logf("per add after open: %d bytes", allocated)
	if allocated > maxBytes {
		t.Errorf("an add after open allocates %d bytes, want at most %d", allocated, maxBytes)
	}
}
