package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"xarch"
	"xarch/internal/server"
)

// workload is one named traffic shape. All four run the same five op
// classes (add, version, history, select, open) against the default
// xarch.OpenStore / server.Options{} configuration, so every end-to-end
// metric exists on every workload; they differ in data set, entry
// point, op mix and concurrency, and so in which layer owns the time.
type workload struct {
	name  string
	setup func(seed int64, sz sizes, dir string) (*fixture, error)
	round func(r *runner, dir string) (roundStats, error)
	// The single-client workloads differ in how a version enters the
	// store: streamed through AddReader or handed over as a tree; the
	// tree workloads also call Compact after their last add.
	stream, compact bool
}

var workloads = []workload{
	{name: "ingest-accrete", setup: setupAccrete, round: (*runner).directRound, stream: true},
	{name: "ingest-churn", setup: setupChurn, round: (*runner).directRound, compact: true},
	{name: "query-mix", setup: setupQueryMix, round: (*runner).directRound, compact: true},
	{name: "serve-mixed", setup: setupServe, round: (*runner).serveRound},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func setupAccrete(seed int64, sz sizes, _ string) (*fixture, error) { return omimFixture(seed, sz) }
func setupChurn(seed int64, sz sizes, _ string) (*fixture, error)   { return xmarkFixture(seed, sz) }

// setupQueryMix archives the first versions of the churn data set into
// dir before the clock starts; each round works on a copy of it.
func setupQueryMix(seed int64, sz sizes, dir string) (*fixture, error) {
	fx, err := xmarkFixture(seed, sz)
	if err != nil {
		return nil, err
	}
	fx.baseDir = dir
	st, err := xarch.OpenStore(dir, fx.spec)
	if err != nil {
		return nil, err
	}
	for _, d := range fx.docs[:fx.base] {
		if err := st.Add(d); err != nil {
			st.Close()
			return nil, err
		}
	}
	return fx, st.Close()
}

func setupServe(seed int64, sz sizes, _ string) (*fixture, error) { return bumpFixture(seed, sz) }

// ---------------------------------------------------------------------------
// Recording

// recorder tallies one client's operations: raw latency samples per
// class (nanoseconds), failures against attempts, and what the host's
// speed was meanwhile.
type recorder struct {
	samples   [nClass][]float64
	host      hostProbe
	attempted int64
	failed    int64
	retried   int64
	errs      []string
}

func (rec *recorder) fail(format string, args ...any) {
	rec.failed++
	if len(rec.errs) < 5 {
		rec.errs = append(rec.errs, fmt.Sprintf(format, args...))
	}
}

func (rec *recorder) merge(o *recorder) {
	for c := range rec.samples {
		rec.samples[c] = append(rec.samples[c], o.samples[c]...)
	}
	rec.host.samples = append(rec.host.samples, o.host.samples...)
	rec.attempted += o.attempted
	rec.failed += o.failed
	rec.retried += o.retried
	rec.errs = append(rec.errs, o.errs...)
}

// roundStats are the figures one round yields as a whole.
type roundStats struct {
	opsPerSec float64 // completed ops per second of timed wall
	stored    float64 // archive directory bytes per input byte
	wall      float64 // timed wall, seconds
	slow      float64 // the host's slowdown during the round (1 = quiet)
}

// runner executes the rounds of one workload run.
type runner struct {
	wl   workload
	sz   sizes
	fx   *fixture
	seed int64

	tr   *tracer    // non-nil during a traced round
	cur  recorder   // the round in progress
	done []roundRec // finished rounds, in order

	layers  layerAcc
	spans   []span // kept only when --spans asks for them
	keep    bool
	lastDir string // the last round's archive, closed, for verification
	phases  phases
}

// roundRec is one finished round: its samples and its whole-round
// figures. End-to-end metrics use the untraced rounds only.
type roundRec struct {
	recorder
	roundStats
	traced bool
}

// untraced returns one figure per untraced round.
func (r *runner) untraced(f func(*roundRec) float64) []float64 {
	var out []float64
	for i := range r.done {
		if !r.done[i].traced {
			out = append(out, f(&r.done[i]))
		}
	}
	return out
}

// timeOp runs one client operation of class c, in an op span when the
// round is traced, and records its latency or its failure. Untraced, it
// first lets the host probe run when one is due (never between the reads
// beside writes, which would only take the writer's core); a traced round
// counts allocations and must not see the probe's.
func (r *runner) timeOp(rec *recorder, c class, lane int, f func() error) time.Duration {
	if r.tr == nil && c != clsBeside {
		rec.host.tick()
	}
	var err error
	t0 := time.Now()
	if r.tr != nil {
		r.tr.in(lane, "op."+classNames[c], func() { err = f() })
	} else {
		err = f()
	}
	d := time.Since(t0)
	rec.attempted++
	if err != nil {
		rec.fail("%s: %v", classNames[c], err)
		return d
	}
	rec.samples[c] = append(rec.samples[c], float64(d))
	return d
}

// open opens (or creates) the archive in dir the way `xarch serve` does:
// default options. A traced round adds only the metering filesystem and
// the store decorator.
func (r *runner) open(dir, spanName string, opts ...xarch.Option) (extStore, error) {
	if r.tr == nil {
		st, err := xarch.OpenStore(dir, r.fx.spec, opts...)
		if err != nil {
			return nil, err
		}
		return st, nil
	}
	var st *xarch.ExtStore
	var err error
	r.tr.in(laneWrite, spanName, func() {
		st, err = xarch.OpenStore(dir, r.fx.spec, append(opts, xarch.WithFS(&r.tr.fs))...)
	})
	if err != nil {
		return nil, err
	}
	return &tracedStore{ExtStore: st, tr: r.tr}, nil
}

// reopen times OpenStore on the built archive n times and returns the
// last store open.
func (r *runner) reopen(rec *recorder, dir string, n int) (st extStore, wall time.Duration, err error) {
	for k := 0; k < n; k++ {
		if st != nil {
			if err := st.Close(); err != nil {
				return nil, wall, err
			}
		}
		wall += r.timeOp(rec, clsOpen, laneWrite, func() error {
			st, err = r.open(dir, "store.Open")
			return err
		})
		if err != nil {
			return nil, wall, err
		}
	}
	return st, wall, nil
}

// section brackets one homogeneous stretch of a traced round with
// filesystem and allocator snapshots; untraced rounds skip both.
type section struct {
	fs fsCounts
	ms runtime.MemStats
}

func (r *runner) mark() (s section) {
	if r.tr != nil {
		s.fs = r.tr.fs.snapshot()
		runtime.ReadMemStats(&s.ms)
	}
	return s
}

// delta is what a section of a traced round cost the filesystem and the
// allocator.
type delta struct {
	fs                  fsCounts
	mallocs, allocBytes uint64
}

func (r *runner) since(s section) delta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return delta{r.tr.fs.snapshot().sub(s.fs), ms.Mallocs - s.ms.Mallocs, ms.TotalAlloc - s.ms.TotalAlloc}
}

// countWriter checks a streamed version arrived without keeping it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// ---------------------------------------------------------------------------
// The three single-client workloads

// directRound is one closed-loop client calling the store in process:
// add the round's versions, compact where the workload says so, reopen,
// then the fixed read sequence, each class on its own after an untimed
// 5% warm-up.
func (r *runner) directRound(dir string) (rs roundStats, err error) {
	fx, rec := r.fx, &r.cur
	var wall time.Duration
	var st extStore
	if fx.baseDir != "" {
		if err := copyDir(fx.baseDir, dir); err != nil {
			return rs, err
		}
	}
	r.quiesce()
	if fx.baseDir != "" {
		wall += r.timeOp(rec, clsOpen, laneWrite, func() error {
			st, err = r.open(dir, "store.Open")
			return err
		})
	} else {
		st, err = r.open(dir, "store.Create")
	}
	if err != nil {
		return rs, err
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()

	// Writes.
	m := r.mark()
	for i := fx.base; i < len(fx.docs); i++ {
		wall += r.timeOp(rec, clsAdd, laneWrite, func() error {
			if r.wl.stream {
				return st.AddReader(bytes.NewReader(fx.raws[i]))
			}
			return st.Add(fx.docs[i])
		})
	}
	if r.tr != nil {
		r.layers.addSection(r.since(m), fx.inputBytes(fx.base, len(fx.docs)), len(fx.docs)-fx.base)
	}

	if r.wl.compact {
		t0 := time.Now()
		cs, err := st.Compact()
		if err != nil {
			return rs, fmt.Errorf("compact: %w", err)
		}
		if r.tr != nil {
			r.layers.compactNS += int64(time.Since(t0))
			r.layers.compactBytes += cs.BytesRewritten
		}
	}
	if err := st.Close(); err != nil {
		return rs, err
	}

	// Reads, on the archive as a fresh process finds it.
	var w time.Duration
	if st, w, err = r.reopen(rec, dir, r.sz.opens); err != nil {
		return rs, err
	}
	wall += w
	wall += r.readClass(rec, clsVersion, len(fx.versionOps), func(i int) error {
		var cw countWriter
		if err := st.WriteVersion(fx.versionOps[i], &cw); err != nil {
			return err
		}
		if cw.n == 0 {
			return fmt.Errorf("version %d came back empty", fx.versionOps[i])
		}
		return nil
	})
	wall += r.readClass(rec, clsHistory, len(fx.historyOps), func(i int) error {
		h, err := st.History(fx.historyOps[i])
		if err == nil && h == nil {
			err = errors.New("nil history")
		}
		return err
	})
	wall += r.readClass(rec, clsSelect, len(fx.selectOps), func(i int) error {
		_, err := st.Select(fx.selectOps[i])
		return err
	})
	if r.tr != nil {
		r.layers.finalShape(st)
	}
	err = st.Close()
	st = nil
	if err != nil {
		return rs, err
	}
	return r.finishRound(dir, wall)
}

// readClass runs n read ops of one class: the first 5% untimed and
// unrecorded (a reopened store's first calls load dictionaries), then
// all n timed.
func (r *runner) readClass(rec *recorder, c class, n int, f func(i int) error) time.Duration {
	if r.tr != nil {
		r.tr.quiet.Store(true)
	}
	for i := 0; i < (n+19)/20; i++ {
		if err := f(i); err != nil {
			rec.fail("%s warm-up: %v", classNames[c], err)
		}
	}
	if r.tr != nil {
		r.tr.quiet.Store(false)
	}
	m := r.mark()
	var wall time.Duration
	for i := 0; i < n; i++ {
		wall += r.timeOp(rec, c, laneRead, func() error { return f(i) })
	}
	if r.tr != nil {
		r.layers.readSection(c, r.since(m), n)
	}
	return wall
}

// finishRound turns a round's totals into its per-round figures.
func (r *runner) finishRound(dir string, wall time.Duration) (rs roundStats, err error) {
	size, err := dirSize(dir)
	if err != nil {
		return rs, err
	}
	rs.opsPerSec = float64(r.cur.attempted) / wall.Seconds()
	rs.stored = float64(size) / float64(r.fx.inputBytes(0, len(r.fx.docs)))
	rs.wall = wall.Seconds()
	rs.slow = r.cur.host.slowdown()
	return rs, nil
}

// ---------------------------------------------------------------------------
// serve-mixed

// serveRound puts the store behind the real server on a loopback
// listener and drives it over two connections, both closed loops. First
// a writer posts whole snapshots while a reader draws from the four read
// endpoints until the writer is done: reads beside writes, which wait
// for the store's write lock whenever a commit is in flight. Their
// latency has two modes, so they feed ops_s and the beside-class
// diagnostics, not the per-class medians. Then the reader issues a
// fixed sequence per endpoint against the idle server.
func (r *runner) serveRound(dir string) (rs roundStats, err error) {
	fx, rec := r.fx, &r.cur
	r.quiesce()
	st, err := r.open(dir, "store.Create")
	if err != nil {
		return rs, err
	}
	srv := server.New(st, server.Options{})
	handler := srv.Handler()
	if r.tr != nil {
		handler = traceHandler(r.tr, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return rs, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	base := "http://" + ln.Addr().String()
	reader, stamp := newConn(), r.stampFor(laneRead)
	defer reader.CloseIdleConnections()
	versionURL := func(n int64) string { return base + "/v1/version/" + strconv.FormatInt(n, 10) }
	historyURL := func(i int) string {
		return base + "/v1/history?selector=" + url.QueryEscape(fx.historyOps[i%len(fx.historyOps)])
	}
	queryURL := func(i int) string {
		return base + "/v1/query?q=" + url.QueryEscape(fx.selectOps[i%len(fx.selectOps)])
	}

	var acked atomic.Int64 // highest version the server acknowledged
	firstAck := make(chan struct{})
	writerDone := make(chan struct{})
	wrec, rrec := &recorder{}, &recorder{}
	m := r.mark()
	t0 := time.Now()

	go func() {
		defer close(writerDone)
		c := newConn()
		defer c.CloseIdleConnections()
		for _, body := range fx.raws {
			r.timeOp(wrec, clsAdd, laneWrite, func() error {
				v, err := r.post(c, wrec, base, body)
				if err != nil {
					return err
				}
				if prev := acked.Swap(int64(v)); int64(v) <= prev {
					return fmt.Errorf("acknowledged version %d after %d", v, prev)
				} else if prev == 0 {
					close(firstAck)
				}
				return nil
			})
		}
		if acked.Load() == 0 {
			close(firstAck) // nothing ever landed; let the reader go and stop
		}
	}()

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		// A seeded draw, not a rotation: a fixed order phase-locks with
		// the writer's commits and parks one endpoint behind the
		// store's write lock every time.
		rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
		<-firstAck
		for i := 0; ; i++ {
			select {
			case <-writerDone:
				return
			default:
			}
			u := base + "/v1/stats"
			switch rng.Intn(4) {
			case 0:
				u = versionURL(1 + rng.Int63n(max(acked.Load(), 1)))
			case 1:
				u = historyURL(i)
			case 2:
				u = queryURL(i)
			}
			r.timeOp(rrec, clsBeside, laneRead, func() error { return httpGet(reader, stamp, u) })
		}
	}()
	<-writerDone
	<-readerDone
	wall := time.Since(t0)

	if r.tr != nil {
		r.layers.addSection(r.since(m), fx.inputBytes(0, len(fx.raws)), len(fx.raws))
		sm := srv.Metrics()
		r.layers.batches += sm.Batches
		r.layers.batchedDocs += sm.BatchedDocs
		r.layers.rejected += sm.AddsRejected
	}
	rec.merge(wrec)
	rec.merge(rrec)

	// The idle server: each endpoint on its own.
	wall += r.readClass(rec, clsVersion, len(fx.versionOps), func(i int) error {
		return httpGet(reader, stamp, versionURL(int64(fx.versionOps[i])))
	})
	wall += r.readClass(rec, clsHistory, len(fx.historyOps), func(i int) error {
		return httpGet(reader, stamp, historyURL(i))
	})
	wall += r.readClass(rec, clsSelect, len(fx.selectOps), func(i int) error {
		return httpGet(reader, stamp, queryURL(i))
	})
	if r.tr != nil {
		r.layers.finalShape(st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = hs.Shutdown(ctx)
	<-served
	if e := srv.Shutdown(ctx); err == nil { // closes the store
		err = e
	}
	if err != nil {
		return rs, err
	}
	st, w, err := r.reopen(rec, dir, r.sz.opens)
	if err != nil {
		return rs, err
	}
	if err := st.Close(); err != nil {
		return rs, err
	}
	return r.finishRound(dir, wall+w)
}

func newConn() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// post sends one snapshot and returns the version it landed in. A 429 is
// backpressure, not failure: wait Retry-After and send the same snapshot
// again (the model is fixed, so nothing supersedes it).
func (r *runner) post(c *http.Client, rec *recorder, base string, body []byte) (int, error) {
	for {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/add", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/xml")
		r.stampFor(laneWrite)(req)
		resp, err := c.Do(req)
		if err != nil {
			return 0, err
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var added struct {
				Version int `json:"version"`
			}
			if err := json.Unmarshal(payload, &added); err != nil {
				return 0, err
			}
			return added.Version, nil
		case http.StatusTooManyRequests:
			rec.retried++
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(max(secs, 1)) * time.Second)
		default:
			return 0, fmt.Errorf("add: status %d: %.200s", resp.StatusCode, payload)
		}
	}
}

// httpGet issues one read and demands a non-empty 200.
func httpGet(c *http.Client, stamp func(*http.Request), u string) error {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	stamp(req)
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || n == 0 {
		return fmt.Errorf("GET %s: status %d, %d bytes", u, resp.StatusCode, n)
	}
	return nil
}

// stampFor returns a function that passes the client's open op span on
// the lane to the server's middleware; untraced rounds send no header.
func (r *runner) stampFor(lane int) func(*http.Request) {
	return func(req *http.Request) {
		if r.tr != nil && !r.tr.quiet.Load() {
			req.Header.Set(spanHeader, strconv.FormatUint(r.tr.lane[lane].Load(), 10))
		}
	}
}

// ---------------------------------------------------------------------------
// Directories

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirSize sums every file of an archive directory: segments, key
// directory, dictionaries, sidecars and metadata all count as stored.
func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
