package main

import (
	"bytes"
	"io"
	"time"

	"xarch"
	"xarch/internal/annotate"
	"xarch/internal/core"
	"xarch/internal/fingerprint"
	"xarch/internal/qlang"
	"xarch/internal/xmltree"
)

// layerAcc sums what the traced rounds of a run observed at the three
// seams; metrics() divides the sums into the per-layer figures. Counts
// come from the metering filesystem and the engine's own counters, times
// from span self times.
type layerAcc struct {
	// add section
	addFS         fsCounts
	addInput      int64
	addAllocBytes uint64
	adds          int64
	// read sections
	readFS         fsCounts
	readOps        int64
	selMallocs     uint64
	selAllocBytes  uint64
	selOps         int64
	compactNS      int64
	compactBytes   int64
	segmentsFinal  int64
	dictBytesFinal int64
	shapes         int64

	// span self times by name, nanoseconds
	selfNS, spanN map[string]int64
	addSpanNS     int64 // duration of store.Add spans
	addCoveredNS  int64 // part of it inside filesystem calls
	queueWaitNS   int64
	queueWaitN    int64

	// engine counters read by the store decorator
	tadds, reused, rewritten, sortRuns int64
	peakHeap                           uint64
	bytesRead, storeCalls              [nClass]int64

	// server counters
	batches, batchedDocs, rejected int64
}

func (a *layerAcc) addSection(d delta, input int64, adds int) {
	a.addFS = addCounts(a.addFS, d.fs)
	a.addInput += input
	a.addAllocBytes += d.allocBytes
	a.adds += int64(adds)
}

func (a *layerAcc) readSection(c class, d delta, ops int) {
	a.readFS = addCounts(a.readFS, d.fs)
	a.readOps += int64(ops)
	if c == clsSelect {
		a.selMallocs += d.mallocs
		a.selAllocBytes += d.allocBytes
		a.selOps += int64(ops)
	}
}

func addCounts(a, b fsCounts) fsCounts {
	for i := 0; i < nFSOp; i++ {
		a.n[i] += b.n[i]
		a.bytes[i] += b.bytes[i]
		a.ns[i] += b.ns[i]
	}
	return a
}

// finalShape records the segment layout a round ends with. Segments
// reads the whole archive, so it runs outside every timed section.
func (a *layerAcc) finalShape(st extStore) {
	segs, err := st.Segments()
	if err != nil {
		return
	}
	a.shapes++
	a.segmentsFinal += int64(len(segs))
	for _, s := range segs {
		a.dictBytesFinal += s.DictBytes
	}
}

// absorb folds one traced round's spans and counters in.
func (a *layerAcc) absorb(t *tracer) {
	if a.selfNS == nil {
		a.selfNS, a.spanN = map[string]int64{}, map[string]int64{}
	}
	self := selfTimes(t.spans)
	byID := make(map[uint64]*span, len(t.spans))
	for i := range t.spans {
		byID[t.spans[i].ID] = &t.spans[i]
	}
	for _, s := range t.spans {
		a.selfNS[s.Name] += self[s.ID]
		a.spanN[s.Name]++
		if s.Name == "store.Add" {
			a.addSpanNS += s.End - s.Start
			a.addCoveredNS += s.End - s.Start - self[s.ID]
			// Handler entry to commit entry: body read, XML parse and
			// the wait in the committer's queue.
			if p := byID[s.Parent]; p != nil && p.Name == "server.handle.add" {
				a.queueWaitNS += s.Start - p.Start
				a.queueWaitN++
			}
		}
	}
	a.tadds += t.adds
	a.reused += t.reused
	a.rewritten += t.rewritten
	a.sortRuns += t.sortRuns
	a.peakHeap = max(a.peakHeap, t.peakHeap)
	for c := range a.bytesRead {
		a.bytesRead[c] += t.bytesRead[c]
		a.storeCalls[c] += t.storeCalls[c]
	}
}

const (
	nsPerMS = 1e6
	nsPerUS = 1e3
)

// meanSelf is the mean self time of the spans called name, in unit.
func (a *layerAcc) meanSelf(name string, unit float64) float64 {
	return ratio(float64(a.selfNS[name]), float64(a.spanN[name])) / unit
}

func (a *layerAcc) metrics(m map[string]float64) {
	adds, input := float64(a.adds), float64(a.addInput)
	m["extmem.add_self_ms"] = a.meanSelf("store.Add", nsPerMS)
	m["extmem.segments_rewritten_per_add"] = ratio(float64(a.rewritten), float64(a.tadds))
	m["extmem.segments_reused_per_add"] = ratio(float64(a.reused), float64(a.tadds))
	m["extmem.sort_runs_per_add"] = ratio(float64(a.sortRuns), float64(a.tadds))
	m["extmem.segments_final"] = ratio(float64(a.segmentsFinal), float64(a.shapes))
	m["extmem.dict_bytes_final"] = ratio(float64(a.dictBytesFinal), float64(a.shapes))
	m["extmem.alloc_bytes_per_input_byte"] = ratio(float64(a.addAllocBytes), input)
	m["extmem.peak_heap_mb"] = float64(a.peakHeap) / 1e6
	m["extmem.compact_s"] = ratio(float64(a.compactNS)/1e9, float64(a.spanN["store.Compact"]))
	m["extmem.compact_bytes_rewritten"] = ratio(float64(a.compactBytes), float64(a.spanN["store.Compact"]))
	m["extmem.version_self_ms"] = a.meanSelf("store.WriteVersion", nsPerMS)
	m["extmem.history_self_us"] = a.meanSelf("store.History", nsPerUS)
	m["extmem.select_self_us"] = a.meanSelf("store.Select", nsPerUS)
	m["extmem.bytes_read_per_version"] = ratio(float64(a.bytesRead[clsVersion]), float64(a.storeCalls[clsVersion]))
	m["extmem.bytes_read_per_history"] = ratio(float64(a.bytesRead[clsHistory]), float64(a.storeCalls[clsHistory]))
	m["extmem.bytes_read_per_select"] = ratio(float64(a.bytesRead[clsSelect]), float64(a.storeCalls[clsSelect]))
	m["extmem.allocs_per_select"] = ratio(float64(a.selMallocs), float64(a.selOps))
	m["extmem.alloc_bytes_per_select"] = ratio(float64(a.selAllocBytes), float64(a.selOps))
	m["extmem.open_self_ms"] = a.meanSelf("store.Open", nsPerMS)

	m["fsio.write_bytes_per_input_byte"] = ratio(float64(a.addFS.bytes[fsWrite]), input)
	m["fsio.read_bytes_per_add"] = ratio(float64(a.addFS.bytes[fsRead]), adds)
	m["fsio.fsyncs_per_add"] = ratio(float64(a.addFS.n[fsSync]), adds)
	m["fsio.fsync_ms_per_add"] = ratio(float64(a.addFS.ns[fsSync]+a.addFS.ns[fsSyncDir])/nsPerMS, adds)
	m["fsio.syncdirs_per_add"] = ratio(float64(a.addFS.n[fsSyncDir]), adds)
	m["fsio.renames_per_add"] = ratio(float64(a.addFS.n[fsRename]), adds)
	m["fsio.creates_per_add"] = ratio(float64(a.addFS.n[fsCreate]), adds)
	m["fsio.removes_per_add"] = ratio(float64(a.addFS.n[fsRemove]), adds)
	m["fsio.busy_share"] = ratio(float64(a.addCoveredNS), float64(a.addSpanNS))
	m["fsio.read_bytes_per_read_op"] = ratio(float64(a.readFS.bytes[fsRead]), float64(a.readOps))
	m["fsio.opens_per_read_op"] = ratio(float64(a.readFS.n[fsOpen]), float64(a.readOps))

	m["server.handle_self_ms_add"] = a.meanSelf("server.handle.add", nsPerMS)
	m["server.handle_self_ms_read"] = a.meanSelf("server.handle.read", nsPerMS)
	m["server.queue_wait_ms"] = ratio(float64(a.queueWaitNS)/nsPerMS, float64(a.queueWaitN))
	m["server.mean_batch"] = ratio(float64(a.batchedDocs), float64(a.batches))
	m["server.adds_rejected"] = float64(a.rejected)
}

// ---------------------------------------------------------------------------
// Shadow probes

// The external engine runs parse, validate, annotate and merge inside
// one Add and exposes no boundary between them. Until the pipelines
// carry their own stage timers, the traced pass times each stage's
// public function on the same documents in a phase of its own: what the
// stage costs alone, not its exact share of an Add.

// probeDocs bounds the probe phase: the first documents of the fixture,
// up to about one megabyte of input.
func probeDocs(fx *fixture) int {
	var n int64
	for i, r := range fx.raws {
		n += int64(len(r))
		if n > 1<<20 || i == 49 {
			return i + 1
		}
	}
	return len(fx.raws)
}

func msPerMB(d time.Duration, nbytes int64) float64 {
	return ratio(float64(d)/nsPerMS, float64(nbytes)/1e6)
}

func probeLayers(fx *fixture, m map[string]float64) error {
	n := probeDocs(fx)
	nbytes := fx.inputBytes(0, n)
	var parse, write, validate, annot, merge time.Duration
	an := annotate.New(fx.spec, fingerprint.FNV)
	ar := core.New(fx.spec, core.Options{})
	for i := 0; i < n; i++ {
		t0 := time.Now()
		doc, err := xmltree.Parse(bytes.NewReader(fx.raws[i]))
		if err != nil {
			return err
		}
		parse += time.Since(t0)

		t0 = time.Now()
		if err := doc.Write(io.Discard, xmltree.WriteOptions{}); err != nil {
			return err
		}
		write += time.Since(t0)

		t0 = time.Now()
		if err := fx.spec.CheckDocumentErr(doc); err != nil {
			return err
		}
		validate += time.Since(t0)

		t0 = time.Now()
		if _, err := an.Version(doc); err != nil {
			return err
		}
		annot += time.Since(t0)

		t0 = time.Now()
		if err := ar.Add(doc); err != nil {
			return err
		}
		merge += time.Since(t0)
	}
	m["xmltree.parse_ms_per_mb"] = msPerMB(parse, nbytes)
	m["xmltree.write_ms_per_mb"] = msPerMB(write, nbytes)
	m["keys.validate_ms_per_mb"] = msPerMB(validate, nbytes)
	m["annotate.version_ms_per_mb"] = msPerMB(annot, nbytes)
	m["core.add_ms_per_mb"] = msPerMB(merge, nbytes)

	t0 := time.Now()
	for _, e := range fx.selectOps {
		if _, err := qlang.Parse(e); err != nil {
			return err
		}
	}
	m["qlang.parse_us"] = ratio(float64(time.Since(t0))/nsPerUS, float64(len(fx.selectOps)))
	return nil
}

// scanSelectOps is how many selects the fallback-path probe issues.
const scanSelectOps = 30

// probeScan reopens the built archive with the query sidecar and the
// directory seeks off — the exact path every Select falls back to when
// the advisory index is stale — and times the workload's own selects.
func probeScan(dir string, fx *fixture) (float64, error) {
	st, err := xarch.OpenStore(dir, fx.spec, xarch.WithQueryIndex(false), xarch.WithDirectorySeek(false))
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var lat []float64
	for i := 0; i < min(scanSelectOps, len(fx.selectOps)); i++ {
		t0 := time.Now()
		if _, err := st.Select(fx.selectOps[i]); err != nil {
			return 0, err
		}
		lat = append(lat, float64(time.Since(t0)))
	}
	return percentile(lat, 0.5) / nsPerMS, nil
}
