package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// manifest is the part of BENCHMARK.json the harness reads back.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the driver uses to judge a metric's spread.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// runSelfcheck is the A/A test: the same code on n seeds, untraced. A
// metric passes on a workload when the distance between its quartiles
// stays within its bound (setup_s excepted, as in the driver) and the
// median of the second half of the runs is not worse than that of the
// first by more than the bound.
func runSelfcheck(cfg config, n int, manifestPath string, w io.Writer) error {
	mf, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	cfg.trace = false
	vals := map[string]map[string][]float64{} // workload → metric → one value per seed
	for _, wl := range workloads {
		vals[wl.name] = map[string][]float64{}
		for i := 0; i < n; i++ {
			c := cfg
			c.workload, c.seed = wl.name, cfg.seed+int64(i)
			res, err := runWorkload(c)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, c.seed, err)
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d operations failed: %v", wl.name, c.seed, res.Failed, res.errs)
			}
			for name, v := range res.Metrics {
				vals[wl.name][name] = append(vals[wl.name][name], v.Value)
			}
			fmt.Fprintf(w, "ran %s seed %d\n", wl.name, c.seed)
		}
	}
	bad := 0
	fmt.Fprintf(w, "%-16s %-28s %12s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "half2/1", "bound")
	for _, wl := range workloads {
		for _, em := range mf.EndToEnd {
			v := vals[wl.name][em.Name]
			if len(v) == 0 {
				return fmt.Errorf("%s: %s is declared in %s but was not reported", wl.name, em.Name, manifestPath)
			}
			med := median(v)
			q1, q3 := quartiles(v)
			lo, hi := slices.Min(v), slices.Max(v)
			h1, h2 := median(v[:len(v)/2]), median(v[len(v)/2:])
			worse := h2/h1 - 1
			if em.Better == "higher" {
				worse = 1 - h2/h1
			}
			verdict := ""
			if (em.Name != "setup_s" && (q3-q1)/med > em.Bound) || (len(v) >= 4 && worse > em.Bound) {
				verdict = "  FAIL"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-28s %12.4f %12.4f %12.4f %8.4f %8.4f %+8.4f %6.2f%s\n",
				wl.name, em.Name, med, q1, q3, (q3-q1)/med, (hi-lo)/med, worse, em.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric x workload pairs outside their bound", bad)
	}
	return nil
}
