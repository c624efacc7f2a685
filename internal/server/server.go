// Package server runs a long-lived archive Store as an HTTP/JSON
// service — the always-on archive of Gray & Szalay's "Online Scientific
// Data Curation, Publication, and Archiving", layered over the engines
// of Buneman et al.'s archiver.
//
// The service keeps one Store open for its whole lifetime. Reads
// (/v1/version, /v1/history, /v1/snapshot, /v1/stats) run concurrently,
// each against the consistent pinned view generation the store opens
// per query. Writes (/v1/add) are funneled through a single committer
// goroutine that batches queued submissions into one group commit per
// round (Store.AddBatch): the tmp+fsync+keydir-rename protocol and the
// segment rewrites are paid once per batch, not once per submitter, and
// every submitter's response still reports the exact version its
// document landed in — after that batch's commit is durable.
//
// Admission control bounds the ingest queue: when it is full the server
// answers 429 with a Retry-After hint instead of queueing unboundedly,
// and oversized bodies are rejected at MaxBodyBytes. A degraded store
// (a poisoned writer after a failed commit fsync/rename) flips the
// server read-only: /v1/add fails fast with 503, /v1/healthz surfaces
// the cause, and reads keep serving the last committed generation.
// Shutdown drains the queue — every already-admitted submission still
// gets its durable commit and its response — and then closes the store.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xarch"
	"xarch/internal/extmem"
	"xarch/internal/segstore"
)

// Options tunes the server; zero values mean the documented defaults.
type Options struct {
	// QueueDepth bounds the ingest queue: submissions beyond it are
	// rejected with 429 + Retry-After. Default 64.
	QueueDepth int
	// MaxBatch caps how many queued submissions one group commit may
	// absorb. Default 16.
	MaxBatch int
	// Linger is how long the committer waits for more submissions after
	// the first one of a batch before committing. 0 (the default)
	// commits as soon as the queue is dry — batching then emerges under
	// load, because submissions queue up while the previous commit's
	// fsyncs are in flight.
	Linger time.Duration
	// MaxBodyBytes caps a /v1/add request body. Default 8 MiB.
	MaxBodyBytes int64
	// AddTimeout bounds how long a /v1/add handler waits for its
	// batch's durable commit before answering 503 (the add may still
	// land; the response says so). Default 60s.
	AddTimeout time.Duration
	// RetryAfter is the backpressure hint attached to 429 responses.
	// Default 1s.
	RetryAfter time.Duration
	// Logger receives lifecycle and commit-failure lines; nil discards.
	Logger *log.Logger
}

func (o *Options) setDefaults() {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.AddTimeout <= 0 {
		o.AddTimeout = 60 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
}

// degrader is the optional store facet reporting a poisoned writer;
// *xarch.ExtStore implements it.
type degrader interface{ Degraded() error }

// compactionReporter is the optional store facet reporting a failed
// opportunistic compaction pass; *xarch.ExtStore implements it.
type compactionReporter interface{ CompactionErr() error }

// storageReporter and commitCounter are the optional store facets behind
// the "storage" and "commits" fields of /v1/stats. *xarch.ExtStore
// implements both, and so does a decorator that embeds or forwards to one.
type storageReporter interface {
	StorageStats() (extmem.StorageStats, error)
}

type commitCounter interface{ CommitCount() int64 }

// replicaSource is the optional store facet handing out pinned
// generation views for replication; *xarch.ExtStore implements it.
// Stores without it (the in-memory engine) answer the replication
// endpoints 404.
type replicaSource interface {
	OpenReplicaView() (*extmem.ReplicaView, error)
}

// Metrics is a point-in-time snapshot of the server's counters,
// reported by /v1/stats.
type Metrics struct {
	AddsAccepted   int64 `json:"adds_accepted"`    // admitted into the queue
	AddsCommitted  int64 `json:"adds_committed"`   // got a durable version
	AddsRejected   int64 `json:"adds_rejected"`    // 429: queue full
	AddsFailed     int64 `json:"adds_failed"`      // per-document or batch errors
	Batches        int64 `json:"batches"`          // group commits executed
	BatchedDocs    int64 `json:"batched_docs"`     // documents across all batches
	LargestBatch   int64 `json:"largest_batch"`    // biggest group commit so far
	Queries        int64 `json:"queries"`          // read requests served
	QueueLen       int   `json:"queue_len"`        // submissions waiting now
	QueueCap       int   `json:"queue_cap"`        // admission bound
	ReadOnlyDenied int64 `json:"read_only_denied"` // 503: degraded store
}

// Server serves one long-lived Store over HTTP. Create it with New,
// mount Handler on an http.Server, and stop it with Shutdown.
type Server struct {
	store xarch.Store
	opts  Options
	mux   *http.ServeMux

	submitCh chan *submission
	closeMu  sync.Mutex
	closed   bool
	done     chan struct{} // closed when the committer has drained and exited

	addsAccepted   atomic.Int64
	addsCommitted  atomic.Int64
	addsRejected   atomic.Int64
	addsFailed     atomic.Int64
	batches        atomic.Int64
	batchedDocs    atomic.Int64
	largestBatch   atomic.Int64
	queries        atomic.Int64
	readOnlyDenied atomic.Int64

	// replMu guards the cached pinned view the replication source
	// endpoints serve from: a pull that fetched /v1/keydir reads its
	// segments out of exactly that committed generation, even while
	// concurrent adds commit newer ones and sweep rewritten files.
	replMu   sync.Mutex
	replView *extmem.ReplicaView
}

// New starts the committer goroutine and returns a server over store.
// The caller keeps ownership of nothing: Shutdown closes the store.
func New(store xarch.Store, opts Options) *Server {
	opts.setDefaults()
	s := &Server{
		store:    store,
		opts:     opts,
		mux:      http.NewServeMux(),
		submitCh: make(chan *submission, opts.QueueDepth),
		done:     make(chan struct{}),
	}
	s.mux.HandleFunc("POST /v1/add", s.handleAdd)
	s.mux.HandleFunc("GET /v1/version/{n}", s.handleVersion)
	s.mux.HandleFunc("GET /v1/history", s.handleHistory)
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/keydir", s.handleReplKeydir)
	s.mux.HandleFunc("GET /v1/segments/{name}", s.handleReplSegment)
	go s.runCommitter()
	return s
}

// Handler returns the server's HTTP handler, rooted at /v1/.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops admitting new submissions, waits for the committer to
// drain the queue (every already-admitted add still gets its durable
// commit and response), and closes the store. In-flight HTTP requests
// are the caller's http.Server's business — shut that down first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.submitCh)
	}
	s.closeMu.Unlock()
	select {
	case <-s.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.replMu.Lock()
	v := s.replView
	s.replView = nil
	s.replMu.Unlock()
	if v != nil {
		v.Close()
	}
	return s.store.Close()
}

// Metrics returns a snapshot of the server counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		AddsAccepted:   s.addsAccepted.Load(),
		AddsCommitted:  s.addsCommitted.Load(),
		AddsRejected:   s.addsRejected.Load(),
		AddsFailed:     s.addsFailed.Load(),
		Batches:        s.batches.Load(),
		BatchedDocs:    s.batchedDocs.Load(),
		LargestBatch:   s.largestBatch.Load(),
		Queries:        s.queries.Load(),
		QueueLen:       len(s.submitCh),
		QueueCap:       cap(s.submitCh),
		ReadOnlyDenied: s.readOnlyDenied.Load(),
	}
}

// degraded returns the store's poisoned-writer error, if any.
func (s *Server) degraded() error {
	if d, ok := s.store.(degrader); ok {
		if err := d.Degraded(); err != nil && !errors.Is(err, xarch.ErrClosed) {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Handlers

// jsonError answers one request with a JSON error body.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleAdd admits one document into the ingest queue and waits for its
// group commit. The response reports the exact version the document
// landed in, after that version is durable on disk.
func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	if err := s.degraded(); err != nil {
		s.readOnlyDenied.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "archive degraded, server is read-only: %v", err)
		return
	}
	doc, err := xarch.ParseXML(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			jsonError(w, http.StatusRequestEntityTooLarge, "document exceeds %d bytes", s.opts.MaxBodyBytes)
			return
		}
		jsonError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	sub := &submission{doc: doc, done: make(chan addOutcome, 1)}
	switch err := s.submit(sub); {
	case errors.Is(err, errQueueFull):
		s.addsRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(s.opts.RetryAfter.Seconds()+0.5)))
		jsonError(w, http.StatusTooManyRequests, "ingest queue full (%d pending); retry", cap(s.submitCh))
		return
	case errors.Is(err, errClosing):
		jsonError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.addsAccepted.Add(1)
	timer := time.NewTimer(s.opts.AddTimeout)
	defer timer.Stop()
	select {
	case out := <-sub.done:
		if out.err != nil {
			s.addsFailed.Add(1)
			switch {
			case errors.Is(out.err, xarch.ErrDegraded):
				jsonError(w, http.StatusServiceUnavailable, "commit failed, archive degraded: %v", out.err)
			case isDocumentError(out.err):
				jsonError(w, http.StatusUnprocessableEntity, "document rejected: %v", out.err)
			default:
				jsonError(w, http.StatusInternalServerError, "add: %v", out.err)
			}
			return
		}
		s.addsCommitted.Add(1)
		writeJSON(w, map[string]int{"version": out.version})
	case <-r.Context().Done():
		// The client is gone; the committer still commits the document
		// (sub.done is buffered, so nothing blocks).
	case <-timer.C:
		jsonError(w, http.StatusServiceUnavailable,
			"timed out waiting for the group commit; the add may still land")
	}
}

// isDocumentError reports whether err is the submitter's own fault — a
// key violation or malformed content — rather than a server failure.
func isDocumentError(err error) bool {
	var kv *xarch.KeyViolationError
	return errors.As(err, &kv)
}

// handleVersion streams the indented XML of one version.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad version number %q", r.PathValue("n"))
		return
	}
	// Versions only grow, so the bounds check cannot race stale: a
	// version visible once is visible forever.
	if max := s.store.Versions(); n < 1 || n > max {
		jsonError(w, http.StatusNotFound, "version %d does not exist (archive has %d)", n, max)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	if err := s.store.WriteVersion(n, w); err != nil {
		// Headers are gone; the broken stream is the best signal left.
		s.logf("version %d: %v", n, err)
	}
}

// handleHistory answers the §7.2 temporal queries for one selector.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	selector := r.URL.Query().Get("selector")
	if selector == "" {
		jsonError(w, http.StatusBadRequest, "missing ?selector=")
		return
	}
	h, err := s.store.History(selector)
	if err != nil {
		switch {
		case errors.Is(err, xarch.ErrNoSuchElement):
			jsonError(w, http.StatusNotFound, "no archived element matches %s", selector)
		case errors.Is(err, xarch.ErrAmbiguousSelector):
			jsonError(w, http.StatusBadRequest, "selector %s is ambiguous; add key predicates", selector)
		case errors.Is(err, xarch.ErrBadSelector):
			jsonError(w, http.StatusBadRequest, "bad selector: %v", err)
		default:
			jsonError(w, http.StatusInternalServerError, "history: %v", err)
		}
		return
	}
	resp := map[string]any{"selector": selector, "versions": h.Versions()}
	if r.URL.Query().Get("changes") != "" {
		ch, err := s.store.ContentHistory(selector)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, "content history: %v", err)
			return
		}
		if ch == nil {
			ch = []int{}
		}
		resp["changes"] = ch
	}
	writeJSON(w, resp)
}

// handleQuery evaluates a boolean Select expression (?q=) and returns
// the matching records with the versions at which the expression holds.
// An empty result is a 200 with an empty array; a malformed expression
// is the caller's fault (400).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	expr := r.URL.Query().Get("q")
	if expr == "" {
		jsonError(w, http.StatusBadRequest, "missing ?q=")
		return
	}
	results, err := s.store.Select(expr)
	if err != nil {
		switch {
		case errors.Is(err, xarch.ErrBadQuery):
			jsonError(w, http.StatusBadRequest, "bad query: %v", err)
		default:
			jsonError(w, http.StatusInternalServerError, "query: %v", err)
		}
		return
	}
	if results == nil {
		results = []xarch.SelectResult{}
	}
	writeJSON(w, map[string]any{"query": expr, "results": results})
}

// handleSnapshot streams the archive itself in the paper's XML form.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	w.Header().Set("Content-Type", "application/xml")
	if err := s.store.Snapshot(w); err != nil {
		s.logf("snapshot: %v", err)
	}
}

// handleStats reports archive structure stats plus the server counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	st, err := s.store.Stats()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "stats: %v", err)
		return
	}
	resp := map[string]any{
		"versions": s.store.Versions(),
		"archive":  st,
		"server":   s.Metrics(),
	}
	if sr, ok := s.store.(storageReporter); ok {
		if ss, err := sr.StorageStats(); err == nil {
			resp["storage"] = ss
		}
	}
	if cc, ok := s.store.(commitCounter); ok {
		resp["commits"] = cc.CommitCount()
	}
	writeJSON(w, resp)
}

// handleHealthz reports liveness and the degraded/read-only state: 200
// while writable, 503 once the writer is poisoned (reads still serve).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{"status": "ok", "versions": s.store.Versions()}
	status := http.StatusOK
	if err := s.degraded(); err != nil {
		resp["status"] = "degraded"
		resp["read_only"] = true
		resp["error"] = err.Error()
		status = http.StatusServiceUnavailable
	}
	if cr, ok := s.store.(compactionReporter); ok {
		if err := cr.CompactionErr(); err != nil {
			resp["compaction_error"] = err.Error()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

// handleReplKeydir serves the committed state bundle for a pull. It
// opens a fresh pinned view of the current generation and caches it —
// the pinning keeps every segment file of that generation on disk, so
// the pull's subsequent /v1/segments/{name} fetches see exactly the
// manifest they were promised even while concurrent adds commit newer
// generations and compaction rewrites segments.
func (s *Server) handleReplKeydir(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	rs, ok := s.store.(replicaSource)
	if !ok {
		jsonError(w, http.StatusNotFound, "this store does not serve replication (external engine required)")
		return
	}
	v, err := rs.OpenReplicaView()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "replication view: %v", err)
		return
	}
	s.replMu.Lock()
	old := s.replView
	s.replView = v
	s.replMu.Unlock()
	if old != nil {
		old.Close()
	}
	// The bundle bytes and manifest stay valid even if a concurrent
	// request swaps the cached view out from under us: Close only
	// releases the generation pin, it does not reclaim the copies.
	kd, dict, meta := v.Bundle()
	man := v.Manifest()
	writeJSON(w, segstore.WireBundle{
		Generation: man.Generation, Versions: man.Versions,
		Keydir: kd, Dict: dict, Meta: meta,
	})
}

// handleReplSegment streams one segment blob out of the cached pinned
// view. Only names the pinned manifest lists are served — the live
// store writes new segments under their final names, and those must
// never leak to a puller mid-commit. A name the current generation does
// not list is 404, which a puller takes for the source moving on; a
// listed segment that cannot be opened is the primary's own fault, 500.
func (s *Server) handleReplSegment(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	rs, ok := s.store.(replicaSource)
	if !ok {
		jsonError(w, http.StatusNotFound, "this store does not serve replication (external engine required)")
		return
	}
	name := r.PathValue("name")
	if !segstore.ValidBlobName(name) {
		jsonError(w, http.StatusBadRequest, "invalid blob name %q", name)
		return
	}
	rc, size, err := s.openPinnedSegment(rs, name)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errNotListed) {
			status = http.StatusNotFound
		}
		jsonError(w, status, "segment %s: %v", name, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	if _, err := io.Copy(w, rc); err != nil {
		s.logf("stream %s: %v", name, err)
	}
}

// errNotListed: the current generation does not list the name, even after
// a refresh.
var errNotListed = errors.New("not in the current generation")

// openPinnedSegment opens name from the cached view, refreshing the
// view once if it is missing or stale (a pull hitting segments before
// /v1/keydir, or after the primary moved on). The open happens under
// replMu so a concurrent refresh cannot release the generation between
// the manifest check and the open; the returned fd then outlives any
// sweep of the file.
func (s *Server) openPinnedSegment(rs replicaSource, name string) (io.ReadCloser, int64, error) {
	s.replMu.Lock()
	if s.replView == nil || !s.replView.HasSegment(name) {
		v, err := rs.OpenReplicaView()
		if err != nil {
			s.replMu.Unlock()
			return nil, 0, err
		}
		old := s.replView
		s.replView = v
		if old != nil {
			defer old.Close()
		}
	}
	if !s.replView.HasSegment(name) {
		s.replMu.Unlock()
		return nil, 0, errNotListed
	}
	rc, size, err := s.replView.OpenSegment(name)
	s.replMu.Unlock()
	return rc, size, err
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}
