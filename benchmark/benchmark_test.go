package main

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tinySizes runs every workload's real code at about 1% of the committed
// op counts, so the whole suite stays within a few seconds.
var tinySizes = map[string]sizes{
	"ingest-accrete": {scale: 20, adds: 3, versions: 3, histories: 10, selects: 10, opens: 2},
	"ingest-churn":   {scale: 10, adds: 3, versions: 3, histories: 10, selects: 10, opens: 2},
	"query-mix":      {scale: 10, base: 3, adds: 2, versions: 5, histories: 20, selects: 20, opens: 2},
	"serve-mixed":    {adds: 12, versions: 5, histories: 10, selects: 10, opens: 2},
}

func tinyRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	return sizedRun(t, workload, seed, trace, tinySizes[workload])
}

func sizedRun(t *testing.T, workload string, seed int64, trace bool, sz sizes) *result {
	t.Helper()
	res, err := runWorkload(config{workload: workload, seed: seed, trace: trace, dir: t.TempDir(),
		sizes: map[string]sizes{workload: sz}})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed: %v", workload, seed, trace, res.Failed, res.Attempted, res.errs)
	}
	return res
}

// TestSmoke runs every workload, untraced and traced, and holds what
// they emit against BENCHMARK.json: every declared metric is reported
// with its declared unit, and nothing else is.
func TestSmoke(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(mf.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, wl := range mf.Workloads {
		if wl.Name != workloads[i].name || !name.MatchString(wl.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, wl.Name, workloads[i].name)
		}
		if wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", wl.Name)
		}
	}
	for _, pass := range []struct {
		trace    bool
		declared []manifestMetric
	}{{false, mf.EndToEnd}, {true, mf.PerLayer}} {
		for _, wl := range workloads {
			res := tinyRun(t, wl.name, 1, pass.trace)
			if len(res.Metrics) != len(pass.declared) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", wl.name, pass.trace, len(res.Metrics), len(pass.declared))
			}
			for _, d := range pass.declared {
				got, ok := res.Metrics[d.Name]
				switch {
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q is not well-formed", d.Name)
				case !ok:
					t.Errorf("%s trace=%v: declared metric %s was not reported", wl.name, pass.trace, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.name, d.Name, got.Unit, d.Unit)
				case !pass.trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", wl.name, d.Name, got.Value)
				}
			}
		}
	}
}

// countMetrics are figures that count work rather than time it. With one
// client and no timers they must repeat exactly.
var countMetrics = []string{
	"extmem.segments_rewritten_per_add", "extmem.segments_reused_per_add", "extmem.sort_runs_per_add",
	"extmem.segments_final", "extmem.dict_bytes_final",
	"extmem.bytes_read_per_version", "extmem.bytes_read_per_history", "extmem.bytes_read_per_select",
	"fsio.write_bytes_per_input_byte", "fsio.read_bytes_per_add", "fsio.fsyncs_per_add",
	"fsio.syncdirs_per_add", "fsio.renames_per_add", "fsio.creates_per_add", "fsio.removes_per_add",
}

// TestDeterminism: the seed fixes the inputs and the op sequence, and so
// every count, on the three single-client workloads; another seed gives
// other inputs.
func TestDeterminism(t *testing.T) {
	for _, wl := range workloads[:3] {
		sz := tinySizes[wl.name]
		a, err := wl.setup(7, sz, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b, err := wl.setup(7, sz, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c, err := wl.setup(8, sz, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.raws, b.raws) || !reflect.DeepEqual(a.versionOps, b.versionOps) ||
			!reflect.DeepEqual(a.historyOps, b.historyOps) || !reflect.DeepEqual(a.selectOps, b.selectOps) {
			t.Errorf("%s: the same seed gave different inputs or ops", wl.name)
		}
		if bytes.Equal(bytes.Join(a.raws, nil), bytes.Join(c.raws, nil)) {
			t.Errorf("%s: seeds 7 and 8 gave the same documents", wl.name)
		}

		r1, r2 := tinyRun(t, wl.name, 7, true), tinyRun(t, wl.name, 7, true)
		for _, m := range countMetrics {
			if r1.Metrics[m] != r2.Metrics[m] {
				t.Errorf("%s: %s is %v then %v on the same seed", wl.name, m, r1.Metrics[m].Value, r2.Metrics[m].Value)
			}
		}
		e1, e2 := tinyRun(t, wl.name, 7, false), tinyRun(t, wl.name, 7, false)
		if m := "stored_bytes_per_input_byte"; e1.Metrics[m] != e2.Metrics[m] {
			t.Errorf("%s: %s is %v then %v on the same seed", wl.name, m, e1.Metrics[m].Value, e2.Metrics[m].Value)
		}
	}
}

// TestLayersSeparate pins what makes the workloads worth having apart:
// the accretive one links segments it did not touch, and an indexed
// select reads no archive bytes while still allocating.
func TestLayersSeparate(t *testing.T) {
	// Large enough for the archive to span several segments.
	res := sizedRun(t, "ingest-accrete", 1, true, sizes{scale: 450, adds: 3, versions: 2, histories: 5, selects: 5, opens: 1})
	if v := res.Metrics["extmem.segments_reused_per_add"].Value; v <= 0 {
		t.Errorf("ingest-accrete reuses %v segments per add; it should link the unchanged ones", v)
	}
	if v := res.Metrics["extmem.allocs_per_select"].Value; v <= 0 {
		t.Errorf("allocs per select is %v", v)
	}
}

// TestSelfTime checks the aggregation on a hand-built tree: children
// that overlap each other, or stick out of their parent, must not be
// subtracted twice or beyond the parent's own interval.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "store", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "fs", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "fs", Start: 30, End: 50}, // overlaps span 3
		{ID: 5, Parent: 2, Name: "fs", Start: 25, End: 35}, // inside both
		{ID: 6, Parent: 2, Name: "fs", Start: 80, End: 95}, // ends after its parent
		{ID: 7, Parent: 2, Name: "fs", Start: 60, End: 60}, // empty
	}
	self := selfTimes(spans)
	want := map[uint64]int64{
		1: 20,                         // 100 - [10,90)
		2: 80 - (50 - 20) - (90 - 80), // [20,50) once, [80,90) clipped
		3: 20, 4: 20, 5: 10, 6: 15, 7: 0,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// TestQuartiles pins the spread statistic to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 are %v and %v, Python gives 2.75 and 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 are %v and %v, Python gives 1 and 3", q1, q3)
	}
}

// TestLatency: a class's figure is the median over the untraced rounds
// of each round's percentile divided by that round's host slowdown, so a
// round the host slowed by half reads the same as a quiet one.
func TestLatency(t *testing.T) {
	round := func(traced bool, slow float64, add ...float64) roundRec {
		var rd roundRec
		rd.samples[clsAdd], rd.slow, rd.traced = add, slow, traced
		return rd
	}
	r := &runner{done: []roundRec{
		round(false, 1, 10, 20, 30), round(true, 1, 1, 1, 1),
		round(false, 1.5, 15, 30, 45), round(false, 2, 44, 48, 52),
	}}
	if got := r.latency(clsAdd, 0.5); got != 20 {
		t.Errorf("latency p50 = %v, want 20", got)
	}
	if got := r.latency(clsAdd, 1); got != 30 {
		t.Errorf("latency p100 = %v, want 30", got)
	}
}

// TestSlowdown: the host's slowdown is the trimmed mean of the reference
// timings over the nominal time; a stretch without samples reports 1.
func TestSlowdown(t *testing.T) {
	var p hostProbe
	if got := p.slowdown(); got != 1 {
		t.Errorf("empty probe: slowdown %v, want 1", got)
	}
	for i := 0; i < 8; i++ {
		p.samples = append(p.samples, 2*refNominalNS)
	}
	p.samples = append(p.samples, 100*refNominalNS, 0) // the tenth at each end is dropped
	if got := p.slowdown(); got != 2 {
		t.Errorf("slowdown %v, want 2", got)
	}
	p = hostProbe{}
	p.tick()
	if len(p.samples) != refBurstMax {
		t.Errorf("first tick took %d samples, want %d", len(p.samples), refBurstMax)
	}
	p.tick()
	if len(p.samples) != refBurstMax {
		t.Errorf("a tick right after a burst took %d more samples", len(p.samples)-refBurstMax)
	}
}
