package main

import (
	"io"
	"io/fs"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xarch"
	"xarch/internal/extmem"
	"xarch/internal/fsio"
)

// The traced pass records spans from outside the engine, at the three
// public seams it offers: the HTTP handler (middleware), the xarch.Store
// handed to the server or called directly (decorator), and the fsio.FS
// passed with xarch.WithFS (metering wrapper). No engine file knows it
// is being traced; stage timers inside the pipelines are a later change.

// span is one timed interval. Spans of one client operation form a tree
// through parent; times are nanoseconds since the tracer was created.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// A lane holds the innermost open span of one client connection, so a
// span started on another goroutine (the server's committer, an ingest
// shard worker) still finds its cause. The load generator has at most
// one writer and one reader in flight, hence two lanes.
const (
	laneWrite = iota
	laneRead
)

type tracer struct {
	t0   time.Time
	next atomic.Uint64
	lane [2]atomic.Uint64
	// quiet mutes span recording while the harness warms a read class up.
	quiet atomic.Bool

	mu    sync.Mutex
	spans []span

	fs fsMeter
	// Engine counters read at the store seam, summed over the traced
	// round (the decorator is the only place that sees every add of the
	// served store).
	adds, reused, rewritten, sortRuns int64
	peakHeap                          uint64
	bytesRead                         [nClass]int64
	storeCalls                        [nClass]int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.fs.tr = t
	t.fs.inner = fsio.OS
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span; the caller passes the returned values to end.
func (t *tracer) begin() (id uint64, start int64) {
	return t.next.Add(1), t.now()
}

func (t *tracer) end(id, parent uint64, name string, start int64) {
	s := span{ID: id, Parent: parent, Name: name, Start: start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// in runs f inside a span on the given lane: the span's parent is the
// lane's current span, and while f runs the lane points at the new span.
func (t *tracer) in(lane int, name string, f func()) {
	if t.quiet.Load() {
		f()
		return
	}
	parent := t.lane[lane].Load()
	id, start := t.begin()
	t.lane[lane].Store(id)
	f()
	t.lane[lane].Store(parent)
	t.end(id, parent, name, start)
}

// fsParent picks the span a filesystem call belongs to. Calls that
// change the directory belong to the writer; reads belong to the reader
// when one is in flight and to the writer (merge input) otherwise. With
// one client this is exact; on serve-mixed, reads issued while both
// lanes are busy are attributed to the reader, an approximation the
// README states.
func (t *tracer) fsParent(mutating bool) uint64 {
	w, r := t.lane[laneWrite].Load(), t.lane[laneRead].Load()
	if mutating {
		if w != 0 {
			return w
		}
		return r
	}
	if r != 0 {
		return r
	}
	return w
}

// ---------------------------------------------------------------------------
// Self time

type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the intervals cover. Overlapping
// children (parallel shard workers, a reader beside a writer) are merged
// first, so shared time is subtracted once.
func covered(lo, hi int64, kids []interval) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	var sum int64
	end := lo
	for _, k := range kids {
		a, b := max(k.lo, end), min(k.hi, hi)
		if b > a {
			sum += b - a
			end = b
		}
	}
	return sum
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its direct children cover.
func selfTimes(spans []span) map[uint64]int64 {
	kids := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// ---------------------------------------------------------------------------
// Seam 1: fsio.FS

// fsOp classes the meter counts.
const (
	fsCreate = iota
	fsOpen
	fsRead
	fsWrite
	fsSync
	fsSyncDir
	fsRename
	fsRemove
	fsOther // Stat, ReadDir, MkdirAll
	nFSOp
)

var fsOpNames = [nFSOp]string{"fsio.create", "fsio.open", "fsio.read", "fsio.write",
	"fsio.sync", "fsio.syncdir", "fsio.rename", "fsio.remove", "fsio.other"}

// fsCounts is a snapshot of the meter: calls, bytes and nanoseconds per
// op class.
type fsCounts struct {
	n, bytes, ns [nFSOp]int64
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	for i := 0; i < nFSOp; i++ {
		a.n[i] -= b.n[i]
		a.bytes[i] -= b.bytes[i]
		a.ns[i] -= b.ns[i]
	}
	return a
}

// fsMeter is an fsio.FS that counts and times every call and records it
// as a span under the operation that caused it. Errors pass through
// untouched — SyncDir's in particular, which the commit protocol must
// see.
type fsMeter struct {
	inner fsio.FS
	tr    *tracer
	n     [nFSOp]atomic.Int64
	bytes [nFSOp]atomic.Int64
	ns    [nFSOp]atomic.Int64
}

func (m *fsMeter) snapshot() fsCounts {
	var c fsCounts
	for i := 0; i < nFSOp; i++ {
		c.n[i], c.bytes[i], c.ns[i] = m.n[i].Load(), m.bytes[i].Load(), m.ns[i].Load()
	}
	return c
}

func (m *fsMeter) record(op int, f func()) {
	if m.tr.quiet.Load() {
		f()
		return
	}
	mutating := op != fsOpen && op != fsRead && op != fsOther
	parent := m.tr.fsParent(mutating)
	id, start := m.tr.begin()
	f()
	m.tr.end(id, parent, fsOpNames[op], start)
	m.n[op].Add(1)
	m.ns[op].Add(m.tr.now() - start)
}

func (m *fsMeter) Create(name string) (f fsio.File, err error) {
	m.record(fsCreate, func() { f, err = m.inner.Create(name) })
	if err != nil {
		return nil, err
	}
	return &meteredFile{File: f, m: m}, nil
}

func (m *fsMeter) Open(name string) (f fsio.File, err error) {
	m.record(fsOpen, func() { f, err = m.inner.Open(name) })
	if err != nil {
		return nil, err
	}
	return &meteredFile{File: f, m: m}, nil
}

func (m *fsMeter) Rename(oldpath, newpath string) (err error) {
	m.record(fsRename, func() { err = m.inner.Rename(oldpath, newpath) })
	return err
}

func (m *fsMeter) Remove(name string) (err error) {
	m.record(fsRemove, func() { err = m.inner.Remove(name) })
	return err
}

func (m *fsMeter) ReadFile(name string) (data []byte, err error) {
	m.record(fsOpen, func() { data, err = m.inner.ReadFile(name) })
	m.n[fsRead].Add(1)
	m.bytes[fsRead].Add(int64(len(data)))
	return data, err
}

func (m *fsMeter) WriteFile(name string, data []byte, perm fs.FileMode) (err error) {
	m.record(fsWrite, func() { err = m.inner.WriteFile(name, data, perm) })
	m.bytes[fsWrite].Add(int64(len(data)))
	return err
}

func (m *fsMeter) Stat(name string) (fi fs.FileInfo, err error) {
	m.record(fsOther, func() { fi, err = m.inner.Stat(name) })
	return fi, err
}

func (m *fsMeter) MkdirAll(path string, perm fs.FileMode) (err error) {
	m.record(fsOther, func() { err = m.inner.MkdirAll(path, perm) })
	return err
}

func (m *fsMeter) ReadDir(name string) (ents []fs.DirEntry, err error) {
	m.record(fsOther, func() { ents, err = m.inner.ReadDir(name) })
	return ents, err
}

func (m *fsMeter) SyncDir(dir string) (err error) {
	m.record(fsSyncDir, func() { err = m.inner.SyncDir(dir) })
	return err
}

// meteredFile meters the data-path calls of one handle. Seek, Close and
// Name fall through to the embedded file unmetered: they move no bytes.
type meteredFile struct {
	fsio.File
	m *fsMeter
}

func (f *meteredFile) Read(p []byte) (n int, err error) {
	f.m.record(fsRead, func() { n, err = f.File.Read(p) })
	f.m.bytes[fsRead].Add(int64(n))
	return n, err
}

func (f *meteredFile) ReadAt(p []byte, off int64) (n int, err error) {
	f.m.record(fsRead, func() { n, err = f.File.ReadAt(p, off) })
	f.m.bytes[fsRead].Add(int64(n))
	return n, err
}

func (f *meteredFile) Write(p []byte) (n int, err error) {
	f.m.record(fsWrite, func() { n, err = f.File.Write(p) })
	f.m.bytes[fsWrite].Add(int64(n))
	return n, err
}

func (f *meteredFile) WriteAt(p []byte, off int64) (n int, err error) {
	f.m.record(fsWrite, func() { n, err = f.File.WriteAt(p, off) })
	f.m.bytes[fsWrite].Add(int64(n))
	return n, err
}

func (f *meteredFile) Sync() (err error) {
	f.m.record(fsSync, func() { err = f.File.Sync() })
	return err
}

// ---------------------------------------------------------------------------
// Seam 2: xarch.Store

// extStore is what the harness uses of an external store: the Store
// interface plus the inspection calls of *xarch.ExtStore. Both the bare
// store and its tracing decorator satisfy it.
type extStore interface {
	xarch.Store
	Compact() (extmem.CompactStats, error)
	Segments() ([]extmem.SegmentInfo, error)
	SameVersion(doc, other *xarch.Document) (bool, error)
}

// tracedStore decorates an ExtStore with spans. It embeds the concrete
// store so the optional facets the server looks for (Degraded,
// CompactionErr, OpenReplicaView) stay visible through it.
type tracedStore struct {
	*xarch.ExtStore
	tr *tracer
}

// afterAdd reads the engine's own per-add counters; it runs outside the
// add's span so the reads do not count as engine time.
func (s *tracedStore) afterAdd(docs int) {
	t := s.tr
	if ss, err := s.ExtStore.StorageStats(); err == nil {
		t.reused += int64(ss.LastAddReused)
		t.rewritten += int64(ss.LastAddRewritten)
	}
	t.sortRuns += int64(s.ExtStore.SortRuns())
	t.adds += int64(docs)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.peakHeap = max(t.peakHeap, ms.HeapInuse)
}

func (s *tracedStore) Add(doc *xarch.Document) (err error) {
	s.tr.in(laneWrite, "store.Add", func() { err = s.ExtStore.Add(doc) })
	s.afterAdd(1)
	return err
}

func (s *tracedStore) AddReader(r io.Reader) (err error) {
	s.tr.in(laneWrite, "store.Add", func() { err = s.ExtStore.AddReader(r) })
	s.afterAdd(1)
	return err
}

func (s *tracedStore) AddBatch(docs []*xarch.Document) (res []xarch.AddResult, err error) {
	s.tr.in(laneWrite, "store.Add", func() { res, err = s.ExtStore.AddBatch(docs) })
	s.afterAdd(len(docs))
	return res, err
}

func (s *tracedStore) Compact() (st extmem.CompactStats, err error) {
	s.tr.in(laneWrite, "store.Compact", func() { st, err = s.ExtStore.Compact() })
	return st, err
}

// read runs one query call in a span on the reader lane and charges the
// archive bytes it read to its class.
func (s *tracedStore) read(c class, name string, f func()) {
	if s.tr.quiet.Load() {
		f()
		return
	}
	b0 := s.ExtStore.BytesRead()
	s.tr.in(laneRead, name, f)
	atomic.AddInt64(&s.tr.bytesRead[c], s.ExtStore.BytesRead()-b0)
	atomic.AddInt64(&s.tr.storeCalls[c], 1)
}

func (s *tracedStore) WriteVersion(n int, w io.Writer) (err error) {
	s.read(clsVersion, "store.WriteVersion", func() { err = s.ExtStore.WriteVersion(n, w) })
	return err
}

func (s *tracedStore) History(sel string) (h *xarch.VersionSet, err error) {
	s.read(clsHistory, "store.History", func() { h, err = s.ExtStore.History(sel) })
	return h, err
}

// Stats is only spanned, not charged to a class: /v1/stats calls it, and
// without the span its scan would read as the handler's own time.
func (s *tracedStore) Stats() (st xarch.Stats, err error) {
	s.tr.in(laneRead, "store.Stats", func() { st, err = s.ExtStore.Stats() })
	return st, err
}

func (s *tracedStore) Select(expr string) (res []xarch.SelectResult, err error) {
	s.read(clsSelect, "store.Select", func() { res, err = s.ExtStore.Select(expr) })
	return res, err
}

// ---------------------------------------------------------------------------
// Seam 3: http.Handler

// spanHeader carries the client's op span id to the server, so handler
// spans hang under the request that caused them.
const spanHeader = "X-Bench-Span"

// traceHandler wraps the server's handler: one server.handle span per
// request, on the writer lane for POSTs and the reader lane for GETs.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tr.quiet.Load() {
			next.ServeHTTP(w, r)
			return
		}
		lane, name := laneRead, "server.handle.read"
		if r.Method == http.MethodPost {
			lane, name = laneWrite, "server.handle.add"
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		id, start := tr.begin()
		tr.lane[lane].Store(id)
		next.ServeHTTP(w, r)
		// The client may already have opened its next op span on this
		// lane; clear the lane only if it still holds this handler.
		tr.lane[lane].CompareAndSwap(id, 0)
		tr.end(id, parent, name, start)
	})
}
