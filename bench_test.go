// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment; see DESIGN.md's per-experiment index).
// Sizes here are scaled down so `go test -bench=.` completes quickly;
// cmd/benchfig runs the full-scale experiments and prints the tables.
//
// Size results are reported as custom metrics (bytes and ratios); timing
// measures the end-to-end cost of building archives and baselines.
package xarch

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"xarch/internal/annotate"
	"xarch/internal/bench"
	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/fsio"
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

// BenchmarkExtStoreWriteVersion: the same retrievals streamed from the
// external engine's segments, with the segment bytes each one reads.
func BenchmarkExtStoreWriteVersion(b *testing.B) {
	_, docs := buildBenchArchive(b, 10)
	st, err := OpenStore(b.TempDir(), datagen.OMIMSpec())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for _, d := range docs {
		if err := st.Add(d.Clone()); err != nil {
			b.Fatal(err)
		}
	}
	read := st.BytesRead()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.WriteVersion(1+i%10, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.BytesRead()-read)/float64(b.N), "diskB/op")
}

// BenchmarkExtStoreSelect: the external engine's Select over a 450-record
// OMIM root (the benchmark's ingest-accrete shape), by what the plan can
// narrow on — a keyed path, an attribute, nothing.
func BenchmarkExtStoreSelect(b *testing.B) {
	st, nums := buildOMIMStore(b, 450, 4)
	exprs := omimSelects(nums[len(nums)/2])
	for _, name := range []string{"keyed", "attr", "unnarrowed"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.Select(exprs[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtStoreKidLookup: a three-step History and a kid-path Select
// on the benchmark's query-mix shape — an XMark site at 60% of the default
// size, 9 versions alternating 10% random and key-modifying changes — whose
// person step is looked up in the people entry's kid mini-index.
func BenchmarkExtStoreKidLookup(b *testing.B) {
	def := datagen.DefaultXMark()
	pc := func(n int) int { return n * 60 / 100 }
	g := datagen.NewXMark(datagen.XMarkConfig{Seed: 1, Items: pc(def.Items), People: pc(def.People),
		Categories: pc(def.Categories), OpenAucts: pc(def.OpenAucts), ClosedAucts: pc(def.ClosedAucts)})
	st, err := OpenStore(b.TempDir(), g.Spec())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	doc := g.Document()
	var ids []string
	for _, p := range doc.Child("people").ChildrenNamed("person") {
		id, _ := p.Attr("id")
		ids = append(ids, id)
	}
	for v := 0; v < 9; v++ {
		if err := st.Add(doc); err != nil {
			b.Fatal(err)
		}
		if v%2 == 0 {
			doc = g.RandomChanges(doc, 0.10)
		} else {
			doc = g.KeyModChanges(doc, 0.10)
		}
	}
	selectors, exprs := make([]string, len(ids)), make([]string, len(ids))
	for i, id := range ids {
		selectors[i] = "/site/people/person[id=" + id + "]"
		exprs[i] = fmt.Sprintf("%s AND in %d..9", selectors[i], 1+i%9)
	}
	b.Run("history", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.History(selectors[i%len(selectors)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.Select(exprs[i%len(exprs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtStoreAddReader: AddReader on the benchmark's ingest-accrete
// shape — a 450-record OMIM archive, each iteration adding the next of
// versions 2–6 again (TestAddAllocations holds its budget). At the default
// memory budget each version is checked and sorted in one piece.
func BenchmarkExtStoreAddReader(b *testing.B) { benchAddReader(b) }

// BenchmarkExtStoreAddStream: the same adds at a 4,096-node memory budget,
// each version checked and sorted piece by piece into runs that the merge
// reads directly.
func BenchmarkExtStoreAddStream(b *testing.B) {
	b.Run("budget4096", func(b *testing.B) { benchAddReader(b, WithMemoryBudget(4096)) })
}

// scratchBytes counts the bytes written to scratch (tmp-*) files.
type scratchBytes struct {
	fsio.FS
	n int64
}

type scratchFile struct {
	fsio.File
	n *int64
}

func (s *scratchBytes) Create(name string) (fsio.File, error) {
	f, err := s.FS.Create(name)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "tmp-") {
		return f, err
	}
	return &scratchFile{File: f, n: &s.n}, nil
}

func (f *scratchFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	*f.n += int64(n)
	return n, err
}

// benchAddReader reports, beside the time per add, the runs the last add
// sorted in and scratch-B/op, what an add writes to scratch (tmp-*) files:
// a version sorted in runs writes them once, and nothing else.
func benchAddReader(b *testing.B, opts ...Option) {
	spec, texts := omimTexts(b, 450, 6, 1)
	scratch := &scratchBytes{FS: fsio.OS}
	st, err := OpenStore(b.TempDir(), spec, append(opts, WithFS(scratch))...)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.AddReader(bytes.NewReader(texts[0])); err != nil {
		b.Fatal(err)
	}
	scratch.n = 0
	b.SetBytes(int64(len(texts[1])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.AddReader(bytes.NewReader(texts[1+i%5])); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.SortRuns()), "runs")
	b.ReportMetric(float64(scratch.n)/float64(b.N), "scratch-B/op")
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
