package segstore

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"xarch/internal/fsio"
)

// FaultTransport wraps an http.RoundTripper with the failpoint registry
// fsio.FaultFS embeds too — the same fsio.Fault, firing rule, crash
// switch and trace, with every request a counted operation — for the
// replication fault matrix. What is the network's own is decided here:
// which point a URL names, the injected statuses with their Retry-After,
// and the torn bodies. It is safe for concurrent use.
//
// Failpoints are named "<class>.<method>": the class comes from the URL
// path ("/v1/keydir" → "keydir", "/v1/segments" → "segments",
// "/v1/segments/{name}" → "segment"), the method is lowercased. A fault
// registered under a bare lowercase method (e.g. "get") matches that
// method on every class. A crashed transport fails every request with
// fsio.ErrCrashed, a triggered fault with fsio.ErrInjected (a reset, to
// the client) unless it names its own Err.
type FaultTransport struct {
	fsio.Failpoints
	inner http.RoundTripper
}

// NewFaultTransport wraps inner (http.DefaultTransport when nil).
func NewFaultTransport(inner http.RoundTripper) *FaultTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &FaultTransport{inner: inner}
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

// RoundTrip applies the gate, then the real request. A torn failure
// still moves a truncated stream — the request body of an upload goes
// out cut in half (the server observes a partial transfer), and a torn
// download delivers half the response body before erroring — so the
// matrix covers partially-applied transport ops exactly like FaultFS's
// torn writes.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	method := strings.ToLower(req.Method)
	op := fsio.Op{Point: classifyPath(req.URL.Path) + "." + method, Path: req.URL.Path}
	switch {
	case req.Method == http.MethodGet:
		op.Bytes = -1
	case req.Body != nil && req.ContentLength > 0:
		op.Bytes = int(req.ContentLength)
	}
	d := t.Gate(method, op, true)
	switch {
	case d.Torn && op.Bytes > 0:
		// Partial upload, then the failure: the server sees the bytes
		// that "made it onto the wire" before the kill.
		creq := req.Clone(req.Context())
		creq.Body = &tornReader{rc: req.Body, n: req.ContentLength / 2, err: d.Err}
		if resp, rerr := t.inner.RoundTrip(creq); rerr == nil {
			drain(resp)
		}
		return nil, d.Err
	case d.Torn:
		// Torn download: the response streams half its body before the
		// connection dies.
		resp, rerr := t.inner.RoundTrip(req)
		if rerr != nil {
			return nil, d.Err
		}
		if resp.ContentLength > 0 {
			resp.Body = &tornReader{rc: resp.Body, n: resp.ContentLength / 2, err: d.Err}
		}
		return resp, nil
	case d.Err != nil:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, d.Err
	case d.Status != 0:
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		h := http.Header{"Content-Type": []string{"text/plain"}}
		if d.RetryAfter > 0 {
			h.Set("Retry-After", strconv.Itoa(int(d.RetryAfter/time.Second)))
		}
		body := fmt.Sprintf("injected status %d", d.Status)
		return &http.Response{
			StatusCode:    d.Status,
			Status:        fmt.Sprintf("%d %s", d.Status, http.StatusText(d.Status)),
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        h,
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	return t.inner.RoundTrip(req)
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
