package segstore

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrNetCrashed is returned by every request of a FaultTransport that
// has hit its crash point: from then on the network behaves as if the
// process had been killed or the link partitioned — nothing further
// gets through.
var ErrNetCrashed = errors.New("segstore: simulated network kill")

// ErrNetInjected is the default error of a triggered network failpoint
// (a connection reset, from the client's point of view).
var ErrNetInjected = errors.New("segstore: injected network fault")

// NetFault configures one network failpoint, mirroring fsio.Fault for
// the transport leg. The zero value injects ErrNetInjected (a reset)
// on the first hit and every hit after.
type NetFault struct {
	// Err fails the request with this error instead of sending it.
	// Defaults to ErrNetInjected when nothing else is set.
	Err error
	// Status, when non-zero, answers the request with this status
	// (5xx bursts, 429 backpressure) without reaching the server.
	Status int
	// RetryAfter attaches a Retry-After header to a Status answer.
	RetryAfter time.Duration
	// Torn truncates the stream mid-body — the request body of an
	// upload (the server sees a partial blob), the response body of a
	// download (the client stages a partial blob) — and then fails.
	Torn bool
	// Crash switches the whole transport into the crashed state when
	// the point triggers: this and every later request fails
	// ErrNetCrashed.
	Crash bool
	// Delay is injected latency before the request proceeds. With
	// nothing else set the request then succeeds normally.
	Delay time.Duration
	// After skips the first After hits of the point before triggering.
	After int
	// Count caps how many times the point triggers; 0 = every hit once
	// triggering starts.
	Count int
}

// NetOp is one recorded transport operation.
type NetOp struct {
	Index  int    // position in the trace, 0-based
	Point  string // failpoint name, e.g. "segment.put", "keydir.get"
	Method string
	Path   string
}

// FaultTransport wraps an http.RoundTripper with a failpoint registry,
// a crash-after-op-k switch, and a trace of every request — the network
// mirror of fsio.FaultFS, for the replication fault matrix. It is safe
// for concurrent use.
//
// Failpoints are named "<class>.<method>": the class comes from the URL
// path ("/v1/keydir" → "keydir", "/v1/segments" → "segments",
// "/v1/segments/{name}" → "segment"), the method is lowercased. A fault
// registered under a bare lowercase method (e.g. "get") matches that
// method on every class.
type FaultTransport struct {
	inner http.RoundTripper

	mu         sync.Mutex
	faults     map[string]*netFaultState
	trace      []NetOp
	ops        int
	crashAfter int // crash once this many requests performed; -1 = off
	crashTorn  bool
	crashed    bool
}

type netFaultState struct {
	f    NetFault
	hits int
	done int
}

// NewFaultTransport wraps inner (http.DefaultTransport when nil).
func NewFaultTransport(inner http.RoundTripper) *FaultTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &FaultTransport{
		inner:      inner,
		faults:     map[string]*netFaultState{},
		crashAfter: -1,
	}
}

// classifyPath maps a request path to its failpoint class.
func classifyPath(path string) string {
	path = strings.TrimSuffix(path, "/")
	switch {
	case strings.HasSuffix(path, "/v1/keydir"):
		return "keydir"
	case strings.HasSuffix(path, "/v1/segments"):
		return "segments"
	case strings.Contains(path, "/v1/segments/"):
		return "segment"
	}
	return "other"
}

// SetFault registers (or replaces) the fault at a point.
func (t *FaultTransport) SetFault(point string, f NetFault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.faults[point] = &netFaultState{f: f}
}

// ClearFaults removes every registered fault (crash state persists).
func (t *FaultTransport) ClearFaults() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.faults = map[string]*netFaultState{}
}

// CrashAfter arms the crash switch: the first k requests go through,
// the k-th (0-based) and everything after fail with ErrNetCrashed.
// With torn set, the request at the crash point goes out with its
// stream cut mid-body first — a partial transfer followed by the kill.
func (t *FaultTransport) CrashAfter(k int, torn bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.crashAfter = k
	t.crashTorn = torn
	t.crashed = false
}

// Crashed reports whether the crash point has been hit.
func (t *FaultTransport) Crashed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.crashed
}

// Ops returns a copy of the request trace so far.
func (t *FaultTransport) Ops() []NetOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]NetOp(nil), t.trace...)
}

// OpCount returns the number of requests performed so far.
func (t *FaultTransport) OpCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops
}

// Tears reports whether a torn crash at request i would cut a transfer
// short: an upload or a download; a HEAD or DELETE moves no body.
func (t *FaultTransport) Tears(i int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.trace) {
		return false
	}
	m := t.trace[i].Method
	return m == http.MethodGet || m == http.MethodPut
}

// ResetTrace clears the trace and counter (faults and crash arming are
// untouched).
func (t *FaultTransport) ResetTrace() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace = nil
	t.ops = 0
}

// netDecision is the fate of one request.
type netDecision struct {
	err    error
	status int
	hint   time.Duration
	torn   bool
	delay  time.Duration
}

func (t *FaultTransport) gate(method, path string) netDecision {
	point := classifyPath(path) + "." + strings.ToLower(method)
	t.mu.Lock()
	d := netDecision{}
	if t.crashed {
		t.mu.Unlock()
		return netDecision{err: ErrNetCrashed}
	}
	st := t.faults[point]
	if st == nil {
		st = t.faults[strings.ToLower(method)]
	}
	if st != nil {
		st.hits++
		if st.hits > st.f.After && (st.f.Count == 0 || st.done < st.f.Count) {
			st.done++
			d.delay = st.f.Delay
			switch {
			case st.f.Crash:
				t.crashed = true
				d.err = ErrNetCrashed
				d.torn = st.f.Torn
			case st.f.Status != 0:
				d.status = st.f.Status
				d.hint = st.f.RetryAfter
			case st.f.Torn:
				d.err = ErrNetInjected
				d.torn = true
			case st.f.Err != nil:
				d.err = st.f.Err
			case st.f.Delay == 0:
				d.err = ErrNetInjected
			}
		}
	}
	if d.err == nil && d.status == 0 {
		if t.crashAfter >= 0 && t.ops >= t.crashAfter {
			t.crashed = true
			d.err = ErrNetCrashed
			d.torn = t.crashTorn
		} else {
			t.trace = append(t.trace, NetOp{Index: t.ops, Point: point, Method: method, Path: path})
			t.ops++
		}
	}
	t.mu.Unlock()
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	return d
}

// RoundTrip applies the gate, then the real request. A torn failure
// still moves a truncated stream — the request body of an upload goes
// out cut in half (the server observes a partial transfer), and a torn
// download delivers half the response body before erroring — so the
// matrix covers partially-applied transport ops exactly like FaultFS's
// torn writes.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.gate(req.Method, req.URL.Path)
	switch {
	case d.err != nil && d.torn && req.Body != nil && req.ContentLength > 0:
		// Partial upload, then the failure: the server sees the bytes
		// that "made it onto the wire" before the kill.
		creq := req.Clone(req.Context())
		creq.Body = &tornReader{rc: req.Body, n: req.ContentLength / 2, err: d.err}
		if resp, rerr := t.inner.RoundTrip(creq); rerr == nil {
			drain(resp)
		}
		return nil, d.err
	case d.err != nil && d.torn && req.Method == http.MethodGet:
		// Torn download at the kill point: the response streams half
		// its body before the connection dies.
		resp, rerr := t.inner.RoundTrip(req)
		if rerr != nil {
			return nil, d.err
		}
		if resp.ContentLength > 0 {
			resp.Body = &tornReader{rc: resp.Body, n: resp.ContentLength / 2, err: d.err}
		}
		return resp, nil
	case d.err != nil:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, d.err
	case d.status != 0:
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		h := http.Header{"Content-Type": []string{"text/plain"}}
		if d.hint > 0 {
			h.Set("Retry-After", strconv.Itoa(int(d.hint/time.Second)))
		}
		body := fmt.Sprintf("injected status %d", d.status)
		return &http.Response{
			StatusCode:    d.status,
			Status:        fmt.Sprintf("%d %s", d.status, http.StatusText(d.status)),
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        h,
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	resp, err := t.inner.RoundTrip(req)
	if err == nil && d.torn && resp.Body != nil && resp.ContentLength > 0 {
		// Torn download: half the body, then the injected failure.
		resp.Body = &tornReader{rc: resp.Body, n: resp.ContentLength / 2, err: ErrNetInjected}
	}
	return resp, err
}

// tornReader delivers the first n bytes of rc, then fails with err.
type tornReader struct {
	rc  io.ReadCloser
	n   int64
	err error
}

func (r *tornReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, r.err
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	n, err := r.rc.Read(p)
	r.n -= int64(n)
	if err == io.EOF && r.n <= 0 {
		err = r.err
	}
	return n, err
}

func (r *tornReader) Close() error { return r.rc.Close() }
