package xarch

import (
	"bytes"
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
