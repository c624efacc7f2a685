// Command benchmark is the archiver's one performance harness: four
// named workloads, end-to-end metrics from an untraced pass and
// per-layer metrics from a traced pass, with the outputs verified in the
// same command. BENCHMARK.json at the repository root names it; see
// README.md beside this file.
//
//	bash benchmark/run.sh --workload query-mix --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --out results.json
//	bash benchmark/run.sh --workload all --seed 1 --trace 1 --spans spans.json
//	bash benchmark/run.sh --selfcheck 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// A run repeats its set-up and reports the median as setup_s: at least
// minSetupReps times, and, while set-up is cheap, until it has spent a
// twentieth of --seconds on it, so that a 20 ms set-up is not judged on
// three samples. A burst of setupRefs reference calls before and after
// each repetition tells how slow the host was meanwhile.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupRefs    = 8
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	spans    string
	sizes    map[string]sizes
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	retried int64
	rounds  int
	samples [nClass]int
	p95     [nClass]float64 // untraced rounds, at quiet-host speed, ns
	slow    []float64       // the host's slowdown in each untraced round
	phases  phases
	errs    []string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs and op sequences")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "how long one run keeps starting rounds")
	trace := flag.Int("trace", 0, "1 = traced pass: report the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "work"), "scratch directory for archives (created, emptied after)")
	flag.StringVar(&cfg.spans, "spans", "", "with --trace 1: write the recorded spans to this JSON file")
	out := flag.String("out", "", "write the results to this JSON file")
	selfcheck := flag.Int("selfcheck", 0, "A/A mode: run the untraced suite on this many seeds and test it against the bounds in BENCHMARK.json")
	manifest := flag.String("manifest", "BENCHMARK.json", "the benchmark manifest (--selfcheck reads its bounds)")
	flag.Parse()
	cfg.trace = *trace != 0
	cfg.sizes = fullSizes

	var err error
	if *selfcheck > 0 {
		err = runSelfcheck(cfg, *selfcheck, *manifest, os.Stdout)
	} else {
		err = runNamed(cfg, *out, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runNamed runs one workload, or all four in turn, printing each one's
// table and result line. Any failed operation makes it return an error.
func runNamed(cfg config, out string, w io.Writer) error {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	}
	results := map[string]*result{}
	var failed int64
	for _, name := range names {
		c := cfg
		c.workload = name
		res, err := runWorkload(c)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printResult(w, c, res)
		results[name] = res
		failed += res.Failed
	}
	if out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runWorkload is one run: set up (repeatedly, for a steady setup_s),
// rounds until the clock runs out, verification, metrics.
func runWorkload(cfg config) (*result, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.dir, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	r := &runner{wl: wl, sz: cfg.sizes[wl.name], seed: cfg.seed, keep: cfg.spans != ""}
	var setups []float64
	begun := time.Now()
	for i := 0; i < minSetupReps || (i < maxSetupReps && time.Since(begun).Seconds() < cfg.seconds/20); i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		r.quiesce()
		var host hostProbe
		host.burst(setupRefs)
		t0 := time.Now()
		fx, err := wl.setup(cfg.seed, r.sz, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0).Seconds()
		host.burst(setupRefs)
		setups = append(setups, took/host.slowdown())
		if r.fx != nil && r.fx.baseDir != "" {
			os.RemoveAll(r.fx.baseDir)
		}
		r.fx = fx
	}

	// Rounds. A traced run alternates untraced and traced rounds, so the
	// tracing overhead compares like with like.
	minRounds := 1
	if cfg.trace {
		minRounds = 2
	}
	start := time.Now()
	r.phases.setup = start.Sub(begun)
	for n := 0; ; n++ {
		if n >= minRounds && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		if r.lastDir != "" {
			os.RemoveAll(r.lastDir)
		}
		r.lastDir = filepath.Join(work, fmt.Sprintf("round%d", n))
		if cfg.trace && n%2 == 1 {
			r.tr = newTracer()
		}
		rs, err := wl.round(r, r.lastDir)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", n, err)
		}
		r.done = append(r.done, roundRec{r.cur, rs, r.tr != nil})
		r.cur = recorder{}
		if r.tr != nil {
			r.layers.absorb(r.tr)
			if r.keep {
				r.spans = append(r.spans, r.tr.spans...)
			}
			r.tr = nil
		}
	}

	r.phases.rounds = time.Since(start)
	var vrec recorder
	if err := r.verify(&vrec); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	r.phases.verify = time.Since(start) - r.phases.rounds

	res := &result{Metrics: map[string]value{}, rounds: len(r.done)}
	tally := func(rec *recorder) {
		res.Attempted += rec.attempted
		res.Failed += rec.failed
		res.retried += rec.retried
		res.errs = append(res.errs, rec.errs...)
	}
	for i := range r.done {
		tally(&r.done[i].recorder)
		if !r.done[i].traced {
			for c, s := range r.done[i].samples {
				res.samples[c] += len(s)
			}
		}
	}
	for c := range res.p95 {
		res.p95[c] = r.latency(class(c), 0.95)
	}
	res.slow = r.untraced(func(rd *roundRec) float64 { return rd.slow })
	res.phases = r.phases
	tally(&vrec)
	res.Correct = res.Failed == 0
	m := map[string]float64{}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := r.layerMetrics(m); err != nil {
			return nil, err
		}
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, r.spans); err != nil {
				return nil, err
			}
		}
	} else {
		m["setup_s"] = median(setups)
		r.endToEndMetrics(m)
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	if len(m) != len(defs) {
		return nil, errors.New("a metric was measured that the tables in stats.go do not declare")
	}
	return res, nil
}

// latency is the p-th percentile of class c's operations as a quiet host
// would have served them: every untraced round gives the percentile of
// its own samples divided by the slowdown the host probe saw during that
// round, and the run reports the median over its rounds. The two are taken
// within seconds of each other, so a host that is slow for a minute slows
// both and the quotient stays.
func (r *runner) latency(c class, p float64) float64 {
	return median(r.untraced(func(rd *roundRec) float64 { return percentile(rd.samples[c], p) / rd.slow }))
}

// endToEndMetrics computes what a user sees from the untraced rounds, at
// quiet-host speed: one figure per round, the median over rounds.
func (r *runner) endToEndMetrics(m map[string]float64) {
	inputMB := float64(r.fx.inputBytes(r.fx.base, len(r.fx.docs))) / 1e6
	m["add_p50_ms"] = r.latency(clsAdd, 0.5) / nsPerMS
	m["ingest_mb_s"] = median(r.untraced(func(rd *roundRec) float64 {
		return inputMB / (sum(rd.samples[clsAdd]) / 1e9 / rd.slow)
	}))
	m["version_p50_ms"] = r.latency(clsVersion, 0.5) / nsPerMS
	m["history_p50_us"] = r.latency(clsHistory, 0.5) / nsPerUS
	m["select_p50_us"] = r.latency(clsSelect, 0.5) / nsPerUS
	m["open_p50_ms"] = r.latency(clsOpen, 0.5) / nsPerMS
	m["ops_s"] = median(r.untraced(func(rd *roundRec) float64 { return rd.opsPerSec * rd.slow }))
	m["stored_bytes_per_input_byte"] = median(r.untraced(func(rd *roundRec) float64 { return rd.stored }))
}

// layerMetrics computes the traced pass's figures: the seams' sums, the
// shadow probes, and what tracing itself cost.
func (r *runner) layerMetrics(m map[string]float64) error {
	r.layers.metrics(m)
	m["datagen.gen_s"] = r.fx.genTime.Seconds()
	if err := probeLayers(r.fx, m); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	scan, err := probeScan(r.lastDir, r.fx)
	if err != nil {
		return fmt.Errorf("scan probe: %w", err)
	}
	m["extmem.select_scan_p50_ms"] = scan
	var tw, uw []float64
	for _, rd := range r.done {
		if rd.traced {
			tw = append(tw, rd.wall)
		} else {
			uw = append(uw, rd.wall)
		}
	}
	m["trace.overhead_share"] = ratio(median(tw), median(uw)) - 1
	return nil
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printResult prints every metric by name with its unit, then the one
// JSON line the driver reads.
func printResult(w io.Writer, cfg config, res *result) {
	pass := "end-to-end (untraced)"
	defs := endToEnd
	if cfg.trace {
		pass, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %d rounds\n", cfg.workload, cfg.seed, pass, res.rounds)
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "samples (untraced) / p95 in ms:")
	for c, n := range res.samples {
		fmt.Fprintf(w, " %s=%d/%.4g", classNames[c], n, res.p95[c]/nsPerMS)
	}
	if len(res.slow) > 0 {
		fmt.Fprintf(w, "\nhost slowdown per round: median %.3f, %.3f to %.3f (times are divided by it)",
			median(res.slow), slices.Min(res.slow), slices.Max(res.slow))
	}
	fmt.Fprintf(w, "\nwall: set-up %.1f s, rounds %.1f s, verification %.1f s; of these %.1f s in sync(2)",
		res.phases.setup.Seconds(), res.phases.rounds.Seconds(), res.phases.verify.Seconds(), res.phases.sync.Seconds())
	fmt.Fprintf(w, "\nattempted %d  failed %d  retried %d  failed_share %g\n",
		res.Attempted, res.Failed, res.retried, float64(res.Failed)/float64(res.Attempted))
	for _, e := range res.errs {
		fmt.Fprintln(w, "failure:", e)
	}
	line, _ := json.Marshal(res) // a map of floats and strings cannot fail to encode
	fmt.Fprintf(w, "%s\n", line)
}
