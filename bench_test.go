// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment; see DESIGN.md's per-experiment index).
// Sizes here are scaled down so `go test -bench=.` completes quickly;
// cmd/benchfig runs the full-scale experiments and prints the tables.
//
// Size results are reported as custom metrics (bytes and ratios); timing
// measures the end-to-end cost of building archives and baselines.
package xarch

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"xarch/internal/annotate"
	"xarch/internal/bench"
	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/keyindex"
	"xarch/internal/repo"
	"xarch/internal/tstree"
	"xarch/internal/xmltree"
)

// reportRatio attaches a size ratio metric to a benchmark.
func reportRatio(b *testing.B, name string, num, den int) {
	if den > 0 {
		b.ReportMetric(float64(num)/float64(den), name)
	}
}

// BenchmarkFig07Stats regenerates the dataset-statistics table (Fig 7).
func BenchmarkFig07Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats := bench.Fig7(0.1, 3, 2)
		if len(stats) != 3 {
			b.Fatal("missing datasets")
		}
		if i == 0 {
			for _, s := range stats {
				b.ReportMetric(float64(s.Nodes), "nodes_"+strings.ReplaceAll(s.Name, "-", ""))
			}
		}
	}
}

// benchFigure runs one storage experiment and reports the headline ratios.
func benchFigure(b *testing.B, gen func() (*bench.Lines, error)) {
	b.Helper()
	var lines *bench.Lines
	for i := 0; i < b.N; i++ {
		var err error
		lines, err = gen()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRatio(b, "arch/inc", bench.Last(lines.Archive), bench.Last(lines.IncDiffs))
	reportRatio(b, "cumu/inc", bench.Last(lines.CumuDiffs), bench.Last(lines.IncDiffs))
	if gz := bench.Last(lines.GzipInc); gz > 0 {
		reportRatio(b, "xmarch/gzinc", bench.Last(lines.XMillArchive), gz)
	}
}

// BenchmarkFig11OMIM: OMIM-like accretive versions; archive vs inc vs cumu
// (Fig 11a).
func BenchmarkFig11OMIM(b *testing.B) {
	benchFigure(b, func() (*bench.Lines, error) {
		spec, docs := bench.OMIMSequence(0.1, 10)
		return bench.Run(spec, docs, bench.Config{})
	})
}

// BenchmarkFig11SwissProt: fast-growing releases (Fig 11b).
func BenchmarkFig11SwissProt(b *testing.B) {
	benchFigure(b, func() (*bench.Lines, error) {
		spec, docs := bench.SwissProtSequence(0.1, 6)
		return bench.Run(spec, docs, bench.Config{})
	})
}

// BenchmarkFig12OMIM adds the compression lines (Fig 12a).
func BenchmarkFig12OMIM(b *testing.B) {
	benchFigure(b, func() (*bench.Lines, error) {
		spec, docs := bench.OMIMSequence(0.1, 8)
		return bench.Run(spec, docs, bench.Config{CompressEvery: 4, KeepConcat: true})
	})
}

// BenchmarkFig12SwissProt adds the compression lines (Fig 12b).
func BenchmarkFig12SwissProt(b *testing.B) {
	benchFigure(b, func() (*bench.Lines, error) {
		spec, docs := bench.SwissProtSequence(0.08, 5)
		return bench.Run(spec, docs, bench.Config{CompressEvery: 5, KeepConcat: true})
	})
}

// BenchmarkFig13XMark166 and ...XMark10: random changes at 1.66% and 10%
// (Fig 13a/b).
func BenchmarkFig13XMark166(b *testing.B) {
	benchFigure(b, func() (*bench.Lines, error) {
		spec, docs := bench.XMarkSequence(0.25, 6, 0.0166, false)
		return bench.Run(spec, docs, bench.Config{CompressEvery: 6})
	})
}

func BenchmarkFig13XMark10(b *testing.B) {
	benchFigure(b, func() (*bench.Lines, error) {
		spec, docs := bench.XMarkSequence(0.25, 6, 0.10, false)
		return bench.Run(spec, docs, bench.Config{CompressEvery: 6})
	})
}

// BenchmarkFig14XMark166 and ...XMark10: the key-modification worst case
// (Fig 14a/b).
func BenchmarkFig14XMark166(b *testing.B) {
	benchFigure(b, func() (*bench.Lines, error) {
		spec, docs := bench.XMarkSequence(0.25, 6, 0.0166, true)
		return bench.Run(spec, docs, bench.Config{CompressEvery: 6})
	})
}

func BenchmarkFig14XMark10(b *testing.B) {
	benchFigure(b, func() (*bench.Lines, error) {
		spec, docs := bench.XMarkSequence(0.25, 6, 0.10, true)
		return bench.Run(spec, docs, bench.Config{CompressEvery: 6})
	})
}

// BenchmarkAppC1XMark333/666: Appendix C.1 intermediate change ratios.
func BenchmarkAppC1XMark333(b *testing.B) {
	benchFigure(b, func() (*bench.Lines, error) {
		spec, docs := bench.XMarkSequence(0.25, 6, 0.0333, false)
		return bench.Run(spec, docs, bench.Config{})
	})
}

func BenchmarkAppC1XMark666(b *testing.B) {
	benchFigure(b, func() (*bench.Lines, error) {
		spec, docs := bench.XMarkSequence(0.25, 6, 0.0666, false)
		return bench.Run(spec, docs, bench.Config{})
	})
}

// BenchmarkAppC2XMark333/666: Appendix C.2 key-modification ratios.
func BenchmarkAppC2XMark333(b *testing.B) {
	benchFigure(b, func() (*bench.Lines, error) {
		spec, docs := bench.XMarkSequence(0.25, 6, 0.0333, true)
		return bench.Run(spec, docs, bench.Config{})
	})
}

func BenchmarkAppC2XMark666(b *testing.B) {
	benchFigure(b, func() (*bench.Lines, error) {
		spec, docs := bench.XMarkSequence(0.25, 6, 0.0666, true)
		return bench.Run(spec, docs, bench.Config{})
	})
}

// BenchmarkAnnotateScaling measures Annotate Keys (§4.1 analysis: time
// dominated by document size for a fixed key specification).
func BenchmarkAnnotateScaling(b *testing.B) {
	for _, records := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 61, Records: records})
			doc := g.Next()
			b.SetBytes(int64(len(doc.IndentedXML())))
			ann := annotate.New(datagen.OMIMSpec(), nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ann.Version(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNestedMergeScaling measures one Nested Merge of a new version
// into an existing archive (§4.2 analysis: O(αN log N)).
func BenchmarkNestedMergeScaling(b *testing.B) {
	for _, records := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			cfg := datagen.OMIMConfig{Seed: 62, Records: records,
				DeleteFrac: 0.002, InsertFrac: 0.02, ModifyFrac: 0.003}
			g := datagen.NewOMIM(cfg)
			v1 := g.Next()
			v2 := g.Next()
			b.SetBytes(int64(len(v2.IndentedXML())))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := core.New(datagen.OMIMSpec(), core.Options{SkipValidation: true})
				// Add neither mutates nor retains the document, so the
				// versions are fed to every iteration without cloning.
				if err := a.Add(v1); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := a.Add(v2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// buildBenchArchive archives an OMIM history once for the retrieval and
// history benchmarks (§7).
func buildBenchArchive(b *testing.B, versions int) (*core.Archive, []*xmltree.Node) {
	b.Helper()
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 63, Records: 300,
		DeleteFrac: 0.01, InsertFrac: 0.02, ModifyFrac: 0.02})
	a := core.New(datagen.OMIMSpec(), core.Options{SkipValidation: true})
	var docs []*xmltree.Node
	for i := 0; i < versions; i++ {
		d := g.Next()
		docs = append(docs, d)
		if err := a.Add(d); err != nil {
			b.Fatal(err)
		}
	}
	return a, docs
}

// BenchmarkRetrievalScan: version retrieval by archive scan (§7.1).
func BenchmarkRetrievalScan(b *testing.B) {
	b.ReportAllocs()
	a, _ := buildBenchArchive(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Version(1 + i%10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrievalTimestampTree: the same retrievals through timestamp
// trees (§7.1).
func BenchmarkRetrievalTimestampTree(b *testing.B) {
	b.ReportAllocs()
	a, _ := buildBenchArchive(b, 10)
	ix := tstree.Build(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Version(1 + i%10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrievalIncDiffs: reconstructing version i from the
// incremental diff repository — the §5 baseline that must replay deltas.
func BenchmarkRetrievalIncDiffs(b *testing.B) {
	b.ReportAllocs()
	_, docs := buildBenchArchive(b, 10)
	r := repo.NewIncremental()
	for _, d := range docs {
		r.Add(d.IndentedXML())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Retrieve(1 + i%10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistoryScan and BenchmarkHistoryIndex: temporal history by
// archive walk versus the §7.2 sorted-list index.
func BenchmarkHistoryScan(b *testing.B) {
	b.ReportAllocs()
	a, docs := buildBenchArchive(b, 10)
	num := docs[0].Child("Record").ChildText("Num")
	sel := "/ROOT/Record[Num=" + num + "]"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.History(sel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistoryIndex(b *testing.B) {
	b.ReportAllocs()
	a, docs := buildBenchArchive(b, 10)
	ix := keyindex.Build(a)
	num := docs[0].Child("Record").ChildText("Num")
	sel := "/ROOT/Record[Num=" + num + "]"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.History(sel); err != nil {
			b.Fatal(err)
		}
	}
}

// buildExtBenchDir archives an XMark history into a fresh directory with
// the external engine, for the streaming-query benchmarks (§6/§7).
func buildExtBenchDir(b *testing.B, versions int) string {
	b.Helper()
	dir := b.TempDir()
	g := datagen.NewXMark(datagen.XMarkConfig{Seed: 71, Items: 60, People: 30, Categories: 10, OpenAucts: 20, ClosedAucts: 12})
	s, err := OpenStore(dir, datagen.XMarkSpec(), WithValidation(false))
	if err != nil {
		b.Fatal(err)
	}
	doc := g.Document()
	for i := 0; i < versions; i++ {
		if err := s.Add(doc); err != nil {
			b.Fatal(err)
		}
		doc = g.RandomChanges(doc, 0.05)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// benchExtQuery measures the cost of one query issued right after the
// store was opened (the post-Add regime: nothing cached): each iteration
// reopens the store and pays one streaming scan.
func benchExtQuery(b *testing.B, versions int, query func(s *ExtStore) error) {
	dir := buildExtBenchDir(b, versions)
	cold := queryAllocBytes(b, dir, query)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := OpenStore(dir, datagen.XMarkSpec(), WithValidation(false))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := query(s); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
	b.StopTimer()
	// ResetTimer clears custom metrics, so the cold-query number is
	// attached only after the measurement loop.
	b.ReportMetric(cold, "cold_query_bytes")
}

// queryAllocBytes measures the bytes allocated by one cold query: the
// streaming path allocates only the projected answer, never the archive.
func queryAllocBytes(b *testing.B, dir string, query func(s *ExtStore) error) float64 {
	b.Helper()
	s, err := OpenStore(dir, datagen.XMarkSpec(), WithValidation(false))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := query(s); err != nil {
		b.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - m0.TotalAlloc)
}

// The query benchmarks keep their "streaming" sub-benchmark name so the
// committed baselines (BENCH_PR3.json, BENCH_PR9.json) still match.

// BenchmarkExtStoreQueryVersion: ExtStore.WriteVersion after an Add.
func BenchmarkExtStoreQueryVersion(b *testing.B) {
	b.Run("streaming", func(b *testing.B) {
		benchExtQuery(b, 8, func(s *ExtStore) error {
			return s.WriteVersion(3, io.Discard)
		})
	})
}

// BenchmarkExtStoreQueryHistory: selector resolution.
func BenchmarkExtStoreQueryHistory(b *testing.B) {
	g := datagen.NewXMark(datagen.XMarkConfig{Seed: 71, Items: 60, People: 30, Categories: 10, OpenAucts: 20, ClosedAucts: 12})
	id, ok := g.Document().Child("categories").Child("category").Attr("id")
	if !ok {
		b.Fatal("xmark document has no category id")
	}
	sel := "/site/categories/category[id=" + id + "]"
	b.Run("streaming", func(b *testing.B) {
		benchExtQuery(b, 8, func(s *ExtStore) error {
			_, err := s.History(sel)
			return err
		})
	})
}

// BenchmarkExtStoreQueryStats: structural statistics.
func BenchmarkExtStoreQueryStats(b *testing.B) {
	b.Run("streaming", func(b *testing.B) {
		benchExtQuery(b, 8, func(s *ExtStore) error {
			_, err := s.Stats()
			return err
		})
	})
}

// BenchmarkExtStoreQueryVersionScaling pins the bounded-memory claim: the
// bytes allocated by one streaming query must not grow with the number of
// archived versions.
func BenchmarkExtStoreQueryVersionScaling(b *testing.B) {
	for _, versions := range []int{4, 8} {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			benchExtQuery(b, versions, func(s *ExtStore) error {
				return s.WriteVersion(2, io.Discard)
			})
		})
	}
}

// BenchmarkExtStoreSelectiveQuery pins the key-directory claim: a
// selective keyed History/ContentHistory reads a bounded fraction of the
// archive. The seek variant resolves History from the directory alone
// (zero archive bytes) and ContentHistory by reading one record; the
// scan variant reads the whole archive stream. bytes_read/op reports the
// archive bytes each query touched — flat across archive sizes for seek,
// linear for scan.
func BenchmarkExtStoreSelectiveQuery(b *testing.B) {
	for _, records := range []int{100, 400} {
		for _, v := range []struct {
			name string
			seek bool
		}{{"seek", true}, {"scan", false}} {
			b.Run(fmt.Sprintf("records=%d/%s", records, v.name), func(b *testing.B) {
				dir := b.TempDir()
				g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 83, Records: records,
					InsertFrac: 0.02, ModifyFrac: 0.02})
				s, err := OpenStore(dir, datagen.OMIMSpec(),
					WithValidation(false), WithDirectorySeek(v.seek))
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				doc := g.Next()
				num := doc.Child("Record").ChildText("Num")
				for i := 0; i < 3; i++ {
					if err := s.Add(doc); err != nil {
						b.Fatal(err)
					}
					doc = g.Next()
				}
				sel := "/ROOT/Record[Num=" + num + "]"
				b.ReportAllocs()
				b.ResetTimer()
				start := s.BytesRead()
				for i := 0; i < b.N; i++ {
					if _, err := s.History(sel); err != nil {
						b.Fatal(err)
					}
					if _, err := s.ContentHistory(sel); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(s.BytesRead()-start)/float64(b.N), "bytes_read/op")
			})
		}
	}
}

// BenchmarkQuerySelect pins the secondary-index claim behind
// Store.Select: a boolean query planned against the attr.idx sidecar
// reads an order of magnitude fewer archive bytes than the exact
// streaming-scan fallback (TestSelectIndexBytesRead asserts the 10x
// floor). bytes_read/op counts segment bytes only — the sidecar itself
// is one state-file read at open.
func BenchmarkQuerySelect(b *testing.B) {
	for _, v := range []struct {
		name string
		opts []Option
	}{
		{"indexed", nil},
		{"scan", []Option{WithQueryIndex(false), WithDirectorySeek(false)}},
	} {
		b.Run(v.name, func(b *testing.B) {
			dir := b.TempDir()
			buildSelectArchive(b, dir, 48, 6, 4)
			spec, err := ParseKeySpec(selectSpec)
			if err != nil {
				b.Fatal(err)
			}
			s, err := OpenStore(dir, spec, append([]Option{WithValidation(false)}, v.opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			start := s.BytesRead()
			for i := 0; i < b.N; i++ {
				for _, expr := range selectBenchExprs {
					if _, err := s.Select(expr); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(s.BytesRead()-start)/float64(b.N), "bytes_read/op")
		})
	}
}

// copyFlatDir copies the regular files of one flat directory (an
// external archive directory) into another.
func copyFlatDir(b *testing.B, src, dst string) {
	b.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentMerge measures a small Add into a large archive: the
// segment-local merge links the segments the version's key range leaves
// byte-identical and rewrites only the rest. segments_reused/op vs
// segments_rewritten/op exposes the locality.
func BenchmarkSegmentMerge(b *testing.B) {
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 84, Records: 300,
		InsertFrac: 0.005, ModifyFrac: 0.005})
	opts := []Option{WithValidation(false), WithSegmentTargetSize(16 * 1024)}
	base := b.TempDir()
	s, err := OpenStore(base, datagen.OMIMSpec(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Add(g.Next()); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	next := g.Next().IndentedXML()
	b.SetBytes(int64(len(next)))
	var reused, rewritten float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		copyFlatDir(b, base, dir)
		s, err := OpenStore(dir, datagen.OMIMSpec(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.AddReader(strings.NewReader(next)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		ss, err := s.StorageStats()
		if err != nil {
			b.Fatal(err)
		}
		reused += float64(ss.LastAddReused)
		rewritten += float64(ss.LastAddRewritten)
		s.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(reused/float64(b.N), "segments_reused/op")
	b.ReportMetric(rewritten/float64(b.N), "segments_rewritten/op")
}

// BenchmarkFingerprintMerge compares merge cost with FNV fingerprints
// against MD5 (§4.3: fingerprint choice affects speed only).
func BenchmarkFingerprintMerge(b *testing.B) {
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 64, Records: 200, InsertFrac: 0.02})
	v1 := g.Next()
	v2 := g.Next()
	for _, f := range []struct {
		name string
		fn   FingerprintFunc
	}{{"fnv", FNV}, {"md5", MD5}} {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := core.New(datagen.OMIMSpec(), core.Options{SkipValidation: true, Fingerprint: f.fn})
				if err := a.Add(v1); err != nil {
					b.Fatal(err)
				}
				if err := a.Add(v2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWeaveAblation measures the further-compaction design choice
// (§4.2): plain whole-content alternatives versus the SCCS weave under a
// content-churn workload.
func BenchmarkWeaveAblation(b *testing.B) {
	for _, weave := range []bool{false, true} {
		name := "plain"
		if weave {
			name = "weave"
		}
		b.Run(name, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				spec, docs := bench.XMarkSequence(0.15, 6, 0.10, false)
				lines, err := bench.Run(spec, docs, bench.Config{Weave: weave})
				if err != nil {
					b.Fatal(err)
				}
				size = bench.Last(lines.Archive)
			}
			b.ReportMetric(float64(size), "archive_bytes")
		})
	}
}

// fragmentXML renders one version of a growing OMIM-shaped database
// whose inserted records interleave the existing key space — the
// workload that strands undersized segment tails (see the compaction
// tests in internal/extmem).
func fragmentXML(base, grown int) string {
	nums := make([]int, 0, base+grown)
	for k := 0; k < base; k++ {
		nums = append(nums, 10_000_000+k*1000)
	}
	for r := 0; r < grown; r++ {
		nums = append(nums, 10_000_000+((r*7)%base)*1000+800-(r/base)*100)
	}
	sort.Ints(nums)
	var sb strings.Builder
	sb.WriteString("<ROOT>")
	for _, n := range nums {
		fmt.Fprintf(&sb, "<Record><Num>%08d</Num><Title>record %08d</Title><Text>%s</Text></Record>",
			n, n, strings.Repeat(fmt.Sprintf("body of record %08d. ", n), 55))
	}
	sb.WriteString("</ROOT>")
	return sb.String()
}

// BenchmarkSegmentCompaction measures one full compaction pass over a
// fragmented archive: 30 small interleaving Adds strand undersized
// tails, and Compact coalesces them back to a right-sized layout.
// segments_before/op vs segments_after/op exposes the shrink;
// bytes_rewritten/op the maintenance cost.
func BenchmarkSegmentCompaction(b *testing.B) {
	opts := []Option{WithValidation(false), WithSegmentTargetSize(4096)}
	base := b.TempDir()
	s, err := OpenStore(base, datagen.OMIMSpec(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	for v := 0; v <= 30; v++ {
		if err := s.AddReader(strings.NewReader(fragmentXML(100, v))); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	var before, after, rewritten float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		copyFlatDir(b, base, dir)
		s, err := OpenStore(dir, datagen.OMIMSpec(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		ss, err := s.StorageStats()
		if err != nil {
			b.Fatal(err)
		}
		before += float64(ss.Segments)
		b.StartTimer()
		st, err := s.Compact()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		ss, err = s.StorageStats()
		if err != nil {
			b.Fatal(err)
		}
		after += float64(ss.Segments)
		rewritten += float64(st.BytesRewritten)
		s.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(before/float64(b.N), "segments_before/op")
	b.ReportMetric(after/float64(b.N), "segments_after/op")
	b.ReportMetric(rewritten/float64(b.N), "bytes_rewritten/op")
}

// BenchmarkExtStoreDirectoryLookup pins the scalable-directory claim: a
// fully keyed History resolves through binary search over the level-2
// entries, so the lookup cost stays near-flat as the root's child count
// grows (the pre-PR5 linear scan grew with it).
func BenchmarkExtStoreDirectoryLookup(b *testing.B) {
	for _, records := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			var sb strings.Builder
			sb.WriteString("<ROOT>")
			for k := 0; k < records; k++ {
				fmt.Fprintf(&sb, "<Record><Num>%08d</Num><Title>record %08d</Title></Record>", k, k)
			}
			sb.WriteString("</ROOT>")
			dir := b.TempDir()
			s, err := OpenStore(dir, datagen.OMIMSpec(), WithValidation(false))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if err := s.AddReader(strings.NewReader(sb.String())); err != nil {
				b.Fatal(err)
			}
			sels := make([]string, 16)
			for i := range sels {
				sels[i] = fmt.Sprintf("/ROOT/Record[Num=%08d]", (i*records)/len(sels))
			}
			// Warm the lazily-built index so the steady-state lookup is
			// what the benchmark times.
			if _, err := s.History(sels[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.History(sels[i%len(sels)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
