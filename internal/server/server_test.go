package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xarch"
	"xarch/internal/fsio"
)

// ---------------------------------------------------------------------------
// fakeStore: a gated Store for deterministic committer tests. AddBatch
// signals entry and then blocks until the test releases the gate, so
// tests control exactly which submissions pile up into the next batch.

type fakeStore struct {
	mu       sync.Mutex
	versions int
	batches  [][]*xarch.Document // every AddBatch call's documents
	entered  chan struct{}       // one signal per AddBatch entry
	gate     chan struct{}       // AddBatch blocks here until released
	degraded atomic.Pointer[error]
	closed   atomic.Bool
}

func newFakeStore() *fakeStore {
	return &fakeStore{entered: make(chan struct{}, 64), gate: make(chan struct{}, 64)}
}

func (f *fakeStore) AddBatch(docs []*xarch.Document) ([]xarch.AddResult, error) {
	f.entered <- struct{}{}
	<-f.gate
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := make([]*xarch.Document, len(docs))
	copy(cp, docs)
	f.batches = append(f.batches, cp)
	out := make([]xarch.AddResult, len(docs))
	for k := range docs {
		f.versions++
		out[k].Version = f.versions
	}
	return out, nil
}

func (f *fakeStore) Add(doc *xarch.Document) error {
	res, err := f.AddBatch([]*xarch.Document{doc})
	if err != nil {
		return err
	}
	return res[0].Err
}

func (f *fakeStore) AddReader(r io.Reader) error {
	doc, err := xarch.ParseXML(r)
	if err != nil {
		return err
	}
	return f.Add(doc)
}

func (f *fakeStore) Versions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.versions
}

func (f *fakeStore) Version(n int) (*xarch.Document, error)    { return nil, xarch.ErrNoSuchVersion }
func (f *fakeStore) WriteVersion(n int, w io.Writer) error     { return nil }
func (f *fakeStore) History(string) (*xarch.VersionSet, error) { return nil, xarch.ErrNoSuchElement }
func (f *fakeStore) ContentHistory(string) ([]int, error)      { return nil, nil }
func (f *fakeStore) Stats() (xarch.Stats, error)               { return xarch.Stats{}, nil }
func (f *fakeStore) Select(string) ([]xarch.SelectResult, error) {
	return nil, nil
}
func (f *fakeStore) CompressedSize() (int, error) { return 0, nil }
func (f *fakeStore) Snapshot(w io.Writer) error   { return nil }
func (f *fakeStore) Close() error                 { f.closed.Store(true); return nil }

func (f *fakeStore) Degraded() error {
	if p := f.degraded.Load(); p != nil {
		return *p
	}
	return nil
}

func (f *fakeStore) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	sizes := make([]int, len(f.batches))
	for i, b := range f.batches {
		sizes[i] = len(b)
	}
	return sizes
}

// ---------------------------------------------------------------------------
// Helpers

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func postDoc(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/add", "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/add: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode add response: %v", err)
	}
	return resp.StatusCode, out
}

const recSpec = `
(/, (db, {}))
(/db, (rec, {id}))
(/db/rec, (v, {}))
`

func recDoc(id string, v int) string {
	return fmt.Sprintf("<db><rec><id>%s</id><v>%d</v></rec></db>", id, v)
}

// ---------------------------------------------------------------------------
// Committer behavior (deterministic, gated fake store)

func TestCommitterGroupsQueuedSubmissions(t *testing.T) {
	fake := newFakeStore()
	srv := New(fake, Options{QueueDepth: 16, MaxBatch: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		status, out := postDoc(t, ts.URL, "<db><x>1</x></db>")
		if status != http.StatusOK {
			t.Errorf("add: status %d (%v)", status, out)
		}
	}
	// First submission enters AddBatch and blocks on the gate.
	wg.Add(1)
	go post()
	<-fake.entered
	// Four more pile up in the queue while the first commit is "in
	// flight" — exactly the group-commit situation under load.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go post()
	}
	waitFor(t, "4 queued submissions", func() bool { return srv.Metrics().QueueLen == 4 })
	fake.gate <- struct{}{} // finish batch 1
	<-fake.entered          // batch 2 (the 4 queued docs) enters
	fake.gate <- struct{}{}
	wg.Wait()

	sizes := fake.batchSizes()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 4 {
		t.Fatalf("batch sizes = %v, want [1 4]", sizes)
	}
	m := srv.Metrics()
	if m.AddsCommitted != 5 || m.Batches != 2 || m.LargestBatch != 4 {
		t.Fatalf("metrics = %+v, want 5 committed in 2 batches, largest 4", m)
	}
}

func TestAdmissionControlRejectsWhenQueueFull(t *testing.T) {
	fake := newFakeStore()
	srv := New(fake, Options{QueueDepth: 2, MaxBatch: 1, RetryAfter: 7 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		status, _ := postDoc(t, ts.URL, "<db><x>1</x></db>")
		if status != http.StatusOK {
			t.Errorf("admitted add finished with status %d", status)
		}
	}
	wg.Add(1)
	go post()
	<-fake.entered // committer busy
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go post()
	}
	waitFor(t, "full queue", func() bool { return srv.Metrics().QueueLen == 2 })

	// Queue full: the next add must be rejected with backpressure.
	resp, err := http.Post(ts.URL+"/v1/add", "application/xml", strings.NewReader("<db><x>1</x></db>"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want %q", ra, "7")
	}
	// Drain: every admitted submission still commits (MaxBatch 1 → one
	// gate release per document).
	for i := 0; i < 2; i++ {
		fake.gate <- struct{}{}
		<-fake.entered
	}
	fake.gate <- struct{}{}
	wg.Wait()
	if m := srv.Metrics(); m.AddsRejected != 1 || m.AddsCommitted != 3 {
		t.Fatalf("metrics = %+v, want 1 rejected, 3 committed", m)
	}
}

func TestShutdownDrainsAdmittedSubmissions(t *testing.T) {
	fake := newFakeStore()
	srv := New(fake, Options{QueueDepth: 8, MaxBatch: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	results := make(chan int, 2)
	post := func() {
		status, _ := postDoc(t, ts.URL, "<db><x>1</x></db>")
		results <- status
	}
	go post()
	<-fake.entered
	go post()
	waitFor(t, "1 queued submission", func() bool { return srv.Metrics().QueueLen == 1 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	// Admitted submissions drain: both commits complete during shutdown.
	fake.gate <- struct{}{}
	<-fake.entered
	fake.gate <- struct{}{}
	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Fatalf("drained add finished with status %d, want 200", status)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !fake.closed.Load() {
		t.Fatal("store not closed after Shutdown")
	}
	// New adds are refused once the server is down.
	status, _ := postDoc(t, ts.URL, "<db><x>1</x></db>")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown add: status %d, want 503", status)
	}
}

func TestDegradedStoreFlipsReadOnly(t *testing.T) {
	fake := newFakeStore()
	srv := New(fake, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	degraded := fmt.Errorf("fsync keydir.idx.tmp: %w", xarch.ErrDegraded)
	fake.degraded.Store(&degraded)

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status = %d, want 503", resp.StatusCode)
	}
	if health["status"] != "degraded" || health["read_only"] != true {
		t.Fatalf("healthz body = %v, want degraded/read-only", health)
	}
	status, out := postDoc(t, ts.URL, "<db><x>1</x></db>")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("add on degraded store: status %d (%v), want 503", status, out)
	}
	if m := srv.Metrics(); m.ReadOnlyDenied != 1 {
		t.Fatalf("ReadOnlyDenied = %d, want 1", m.ReadOnlyDenied)
	}
}

func TestMaxBodyBytes(t *testing.T) {
	fake := newFakeStore()
	srv := New(fake, Options{MaxBodyBytes: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	big := "<db><x>" + strings.Repeat("y", 200) + "</x></db>"
	resp, err := http.Post(ts.URL+"/v1/add", "application/xml", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// ---------------------------------------------------------------------------
// Endpoints over a real in-memory store

func TestEndpoints(t *testing.T) {
	spec, err := xarch.ParseKeySpec(recSpec)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(xarch.NewStore(spec), Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for i := 1; i <= 2; i++ {
		status, out := postDoc(t, ts.URL, recDoc("a", i))
		if status != http.StatusOK {
			t.Fatalf("add %d: status %d (%v)", i, status, out)
		}
		if v := out["version"]; v != float64(i) {
			t.Fatalf("add %d: version = %v", i, v)
		}
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		io.Copy(&b, resp.Body)
		return resp.StatusCode, b.String()
	}

	if status, body := get("/v1/version/2"); status != http.StatusOK ||
		!strings.Contains(body, "<id>a</id>") || !strings.Contains(body, "<v>2</v>") {
		t.Fatalf("version/2: status %d body %q", status, body)
	}
	if status, _ := get("/v1/version/9"); status != http.StatusNotFound {
		t.Fatalf("version/9: status %d, want 404", status)
	}
	if status, _ := get("/v1/version/abc"); status != http.StatusBadRequest {
		t.Fatalf("version/abc: status %d, want 400", status)
	}
	if status, body := get("/v1/history?selector=/db/rec[id=a]/v&changes=1"); status != http.StatusOK {
		t.Fatalf("history: status %d body %q", status, body)
	} else {
		var h struct {
			Versions []int `json:"versions"`
			Changes  []int `json:"changes"`
		}
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatal(err)
		}
		if len(h.Versions) != 2 || h.Versions[0] != 1 || h.Versions[1] != 2 {
			t.Fatalf("history versions = %v, want [1 2]", h.Versions)
		}
		if len(h.Changes) != 2 {
			t.Fatalf("history changes = %v, want 2 change versions", h.Changes)
		}
	}
	if status, _ := get("/v1/history?selector=/db/rec[id=zzz]"); status != http.StatusNotFound {
		t.Fatalf("history of missing element: want 404")
	}
	if status, _ := get("/v1/history"); status != http.StatusBadRequest {
		t.Fatalf("history without selector: want 400")
	}
	if status, body := get("/v1/query?q=" + url.QueryEscape("/db/rec[id=a] AND changed")); status != http.StatusOK {
		t.Fatalf("query: status %d body %q", status, body)
	} else {
		var q struct {
			Results []xarch.SelectResult `json:"results"`
		}
		if err := json.Unmarshal([]byte(body), &q); err != nil {
			t.Fatal(err)
		}
		if len(q.Results) != 1 || q.Results[0].Path != "/db/rec{id=a}" || q.Results[0].Versions != "1-2" {
			t.Fatalf("query results = %+v, want one /db/rec{id=a} at 1-2", q.Results)
		}
	}
	if status, body := get("/v1/query?q=" + url.QueryEscape("@nosuch")); status != http.StatusOK || !strings.Contains(body, `"results":[]`) {
		t.Fatalf("empty query: status %d body %q, want 200 with empty results", status, body)
	}
	if status, _ := get("/v1/query?q=" + url.QueryEscape("((")); status != http.StatusBadRequest {
		t.Fatalf("malformed query: want 400")
	}
	if status, _ := get("/v1/query"); status != http.StatusBadRequest {
		t.Fatalf("query without expression: want 400")
	}
	if status, body := get("/v1/snapshot"); status != http.StatusOK || !strings.Contains(body, "<db") {
		t.Fatalf("snapshot: status %d body %q", status, body)
	}
	if status, body := get("/v1/stats"); status != http.StatusOK || !strings.Contains(body, "\"versions\":2") {
		t.Fatalf("stats: status %d body %.200s", status, body)
	}
	if status, body := get("/v1/healthz"); status != http.StatusOK || !strings.Contains(body, "\"status\":\"ok\"") {
		t.Fatalf("healthz: status %d body %q", status, body)
	}

	// A key violation is the submitter's fault: 422, not 500.
	status, out := postDoc(t, ts.URL, "<db><rec><id>dup</id></rec><rec><id>dup</id></rec></db>")
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("key violation: status %d (%v), want 422", status, out)
	}

	// Malformed XML is the client's error too, and the answer says where.
	status, out = postDoc(t, ts.URL, "<db>\n  <rec><id>a</id></rec>\n  <rec><id>b</id></db>")
	if msg, _ := out["error"].(string); status != http.StatusBadRequest ||
		!strings.Contains(msg, "line 3, col 18: element <rec> closed by </db>") {
		t.Fatalf("malformed add: status %d (%v), want 400 naming line 3, col 18", status, out)
	}
}

// TestReadsAnswerDuringHeldCommit: a commit (or a compaction) of any
// length costs readers and probes nothing. With the add's commit parked at
// the keydir.idx rename, the liveness probe, the stats and every read
// endpoint answer 200 from the generation committed before it — all
// before POST /v1/add gets its answer.
func TestReadsAnswerDuringHeldCommit(t *testing.T) {
	spec, err := xarch.ParseKeySpec(recSpec)
	if err != nil {
		t.Fatal(err)
	}
	ffs := fsio.NewFaultFS(nil)
	store, err := xarch.OpenStore(t.TempDir(), spec, xarch.WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	if status, out := postDoc(t, ts.URL, recDoc("a", 1)); status != http.StatusOK {
		t.Fatalf("add 1: status %d (%v)", status, out)
	}

	release := make(chan struct{})
	ffs.SetFault("keydir.rename", fsio.Fault{Hold: release, Count: 1})
	answered := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/add", "application/xml", strings.NewReader(recDoc("a", 2)))
		if err != nil {
			t.Errorf("POST /v1/add: %v", err)
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	waitFor(t, "the commit to reach keydir.rename", func() bool { return ffs.Held() > 0 })

	for path, want := range map[string]string{
		"/v1/healthz":   `"versions":1`,
		"/v1/stats":     `"versions":1`,
		"/v1/version/1": "<v>1</v>",
		"/v1/history?selector=" + url.QueryEscape("/db/rec[id=a]"): `"versions":[1]`,
		"/v1/query?q=" + url.QueryEscape("/db/rec[id=a]"):          `"versions":"1"`,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s beside the held commit: status %d, body %.300s; want 200 with %s", path, resp.StatusCode, body, want)
		}
	}
	select {
	case status := <-answered:
		t.Fatalf("POST /v1/add answered %d while its commit was held", status)
	default:
	}
	close(release)
	if status := <-answered; status != http.StatusOK {
		t.Fatalf("POST /v1/add after release: status %d", status)
	}
	if resp, err := http.Get(ts.URL + "/v1/version/2"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("version/2 after the add answered: %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// ---------------------------------------------------------------------------
// End-to-end group commit over the real external engine: concurrent
// HTTP submitters share keydir commits (commit count < submitter
// count) while concurrent readers stream byte-identical versions.

func TestServeGroupCommitEndToEnd(t *testing.T) {
	spec, err := xarch.ParseKeySpec(recSpec)
	if err != nil {
		t.Fatal(err)
	}
	store, err := xarch.OpenStore(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c0 := store.CommitCount()
	// A generous linger window makes the batching deterministic: all
	// submitters fire together, so the committer collects them into few
	// batches no matter how the scheduler interleaves the POSTs.
	srv := New(store, Options{QueueDepth: 32, MaxBatch: 16, Linger: 300 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const submitters = 6
	type committed struct {
		version int
		want    string // exact indented XML the server must stream back
	}
	var (
		mu        sync.Mutex
		landed    []committed
		wg        sync.WaitGroup
		readersWG sync.WaitGroup
	)
	stopReaders := make(chan struct{})

	// Concurrent readers stream committed versions throughout the burst
	// and demand byte-identical output every time.
	for r := 0; r < 4; r++ {
		readersWG.Add(1)
		go func(seed int64) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				mu.Lock()
				var pick committed
				if len(landed) > 0 {
					pick = landed[rng.Intn(len(landed))]
				}
				mu.Unlock()
				if pick.version == 0 {
					continue
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/version/%d", ts.URL, pick.version))
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				var b bytes.Buffer
				io.Copy(&b, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader: version %d: status %d", pick.version, resp.StatusCode)
					return
				}
				if b.String() != pick.want {
					t.Errorf("reader: version %d drifted:\ngot  %q\nwant %q", pick.version, b.String(), pick.want)
					return
				}
			}
		}(int64(r))
	}

	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := recDoc(fmt.Sprintf("w%d", w), w)
			status, out := postDoc(t, ts.URL, body)
			if status != http.StatusOK {
				t.Errorf("submitter %d: status %d (%v)", w, status, out)
				return
			}
			version := int(out["version"].(float64))
			doc, err := xarch.ParseXMLString(body)
			if err != nil {
				t.Errorf("submitter %d: %v", w, err)
				return
			}
			mu.Lock()
			landed = append(landed, committed{version: version, want: doc.IndentedXML()})
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	close(stopReaders)
	readersWG.Wait()

	commits := store.CommitCount() - c0
	if commits >= submitters {
		t.Errorf("group commit did not batch: %d commits for %d submitters", commits, submitters)
	}
	if commits < 1 {
		t.Errorf("no commit recorded")
	}
	t.Logf("%d submitters -> %d keydir commits (largest batch %d)",
		submitters, commits, srv.Metrics().LargestBatch)

	// Every submitter landed in a distinct consecutive version.
	seen := map[int]bool{}
	for _, c := range landed {
		if c.version < 1 || c.version > submitters || seen[c.version] {
			t.Fatalf("bad version assignment: %v", landed)
		}
		seen[c.version] = true
	}
	if len(seen) != submitters {
		t.Fatalf("expected %d distinct versions, got %d", submitters, len(seen))
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// ---------------------------------------------------------------------------
// /v1/stats behind a decorator: the "storage" and "commits" fields are
// found through the facets the store offers, not its concrete type.

// countingStore decorates an ExtStore the way the benchmark's tracing
// store does: by embedding it and overriding what it wants to see.
type countingStore struct {
	*xarch.ExtStore
	adds atomic.Int64
}

func (c *countingStore) AddBatch(docs []*xarch.Document) ([]xarch.AddResult, error) {
	c.adds.Add(int64(len(docs)))
	return c.ExtStore.AddBatch(docs)
}

func TestStatsThroughDecoratorStore(t *testing.T) {
	spec, err := xarch.ParseKeySpec(recSpec)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := xarch.OpenStore(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{ExtStore: ext}
	srv := New(store, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	if status, out := postDoc(t, ts.URL, recDoc("a", 1)); status != http.StatusOK {
		t.Fatalf("add: status %d (%v)", status, out)
	}
	if store.adds.Load() != 1 {
		t.Fatalf("the add bypassed the decorator")
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Commits *int64 `json:"commits"`
		Storage *struct {
			Segments int
		} `json:"storage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Commits == nil || *stats.Commits != ext.CommitCount() {
		t.Errorf("commits = %v, want %d", stats.Commits, ext.CommitCount())
	}
	if stats.Storage == nil || stats.Storage.Segments != 1 {
		t.Errorf("storage = %+v, want one segment", stats.Storage)
	}

	// A store with neither facet reports neither field.
	fake := newFakeStore()
	fsrv := New(fake, Options{})
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()
	defer fsrv.Shutdown(context.Background())
	fresp, err := http.Get(fts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(fresp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["commits"]; ok || raw["storage"] != nil {
		t.Errorf("facet-less store reported %v", raw)
	}
}
