package main

import (
	"math"
	"sort"
)

// class is one homogeneous kind of client operation; every latency
// metric is a percentile over the samples of exactly one class.
type class int

const (
	clsAdd class = iota
	clsVersion
	clsHistory
	clsSelect
	clsOpen
	clsBeside // serve-mixed: any GET issued while the writer is posting
	nClass
)

var classNames = [nClass]string{"add", "version", "history", "select", "open", "beside"}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// the samples, exactly: raw samples are kept, never bucketed.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// median averages the two middle samples of an even-sized set, so a
// per-round figure over four rounds does not jump between two values.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, and 0 when the layer did no such work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricDef names one metric and its unit. The two tables below are the
// program's copy of BENCHMARK.json; a test keeps them equal.
type metricDef struct{ name, unit string }

// endToEnd lists what a user of the archive sees, measured with tracing
// off. Every workload reports every one of them. The p95 of each class
// is printed beside them as a diagnostic, not declared: it moved with the
// p50 and doubled the ways host noise could fail a run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_mb_s", "MB/s"},
	{"add_p50_ms", "ms"},
	{"stored_bytes_per_input_byte", "ratio"},
	{"version_p50_ms", "ms"},
	{"history_p50_us", "us"},
	{"select_p50_us", "us"},
	{"open_p50_ms", "ms"},
	{"ops_s", "1/s"},
}

// perLayer lists the traced pass's figures; the prefix is the module
// (layer) that owns the work. A layer a workload leaves idle reports 0.
var perLayer = []metricDef{
	{"datagen.gen_s", "s"},
	{"xmltree.parse_ms_per_mb", "ms/MB"},
	{"xmltree.write_ms_per_mb", "ms/MB"},
	{"keys.validate_ms_per_mb", "ms/MB"},
	{"annotate.version_ms_per_mb", "ms/MB"},
	{"core.add_ms_per_mb", "ms/MB"},
	{"extmem.add_self_ms", "ms"},
	{"extmem.segments_rewritten_per_add", "count"},
	{"extmem.segments_reused_per_add", "count"},
	{"extmem.sort_runs_per_add", "count"},
	{"extmem.segments_final", "count"},
	{"extmem.dict_bytes_final", "bytes"},
	{"extmem.alloc_bytes_per_input_byte", "ratio"},
	{"extmem.peak_heap_mb", "MB"},
	{"extmem.compact_s", "s"},
	{"extmem.compact_bytes_rewritten", "bytes"},
	{"extmem.version_self_ms", "ms"},
	{"extmem.history_self_us", "us"},
	{"extmem.select_self_us", "us"},
	{"extmem.bytes_read_per_version", "bytes"},
	{"extmem.bytes_read_per_history", "bytes"},
	{"extmem.bytes_read_per_select", "bytes"},
	{"extmem.allocs_per_select", "count"},
	{"extmem.alloc_bytes_per_select", "bytes"},
	{"extmem.open_self_ms", "ms"},
	{"extmem.select_scan_p50_ms", "ms"},
	{"qlang.parse_us", "us"},
	{"fsio.write_bytes_per_input_byte", "ratio"},
	{"fsio.read_bytes_per_add", "bytes"},
	{"fsio.fsyncs_per_add", "count"},
	{"fsio.fsync_ms_per_add", "ms"},
	{"fsio.syncdirs_per_add", "count"},
	{"fsio.renames_per_add", "count"},
	{"fsio.creates_per_add", "count"},
	{"fsio.removes_per_add", "count"},
	{"fsio.busy_share", "ratio"},
	{"fsio.read_bytes_per_read_op", "bytes"},
	{"fsio.opens_per_read_op", "count"},
	{"server.handle_self_ms_add", "ms"},
	{"server.handle_self_ms_read", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.mean_batch", "count"},
	{"server.adds_rejected", "count"},
	{"trace.overhead_share", "ratio"},
}
