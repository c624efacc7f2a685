package segstore_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"xarch/internal/datagen"
	"xarch/internal/extmem"
	"xarch/internal/fsio"
	"xarch/internal/segstore"
	"xarch/internal/server"
)

var ctx = context.Background()

// buildArchive populates dir with a small committed external archive
// and returns its segment store view.
func buildArchive(t *testing.T, dir string, versions int) *segstore.Local {
	t.Helper()
	ar, err := extmem.Open(dir, datagen.OMIMSpec(), extmem.Config{Budget: 4096, SegmentTarget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 7, Records: 10, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.2})
	for i := 0; i < versions; i++ {
		if items, err := ar.AddVersionBatch([]extmem.Source{{Reader: strings.NewReader(g.Next().IndentedXML())}}); err != nil || items[0].Err != nil {
			t.Fatal(err, items)
		}
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := segstore.NewLocal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// manifestOf decodes the store's committed manifest.
func manifestOf(t *testing.T, st segstore.Store) (*segstore.Bundle, *extmem.Manifest) {
	t.Helper()
	b, err := st.Keydir(ctx)
	if err != nil {
		t.Fatal(err)
	}
	man, err := extmem.DecodeManifest(b.Keydir)
	if err != nil {
		t.Fatal(err)
	}
	return b, man
}

// fastRetry runs the schedule without sleeping, recording the delays.
func fastRetry(attempts int, delays *[]time.Duration) segstore.RetryPolicy {
	return segstore.RetryPolicy{
		MaxAttempts: attempts,
		Sleep: func(_ context.Context, d time.Duration) error {
			if delays != nil {
				*delays = append(*delays, d)
			}
			return nil
		},
	}
}

// replicaServer serves dir through the replica blob API.
func replicaServer(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	st, err := segstore.NewLocal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewReplicaHandler(st, nil))
	t.Cleanup(ts.Close)
	return ts
}

// TestHTTPRoundtrip pushes a real archive blob by blob through the HTTP
// store into a replica handler and reads everything back.
func TestHTTPRoundtrip(t *testing.T) {
	src := buildArchive(t, t.TempDir(), 3)
	bundle, man := manifestOf(t, src)
	if len(man.Segments) < 2 {
		t.Fatalf("fixture has %d segments; want at least 2", len(man.Segments))
	}

	ts := replicaServer(t, t.TempDir())
	h := segstore.NewHTTP(ts.URL, nil, fastRetry(3, nil))

	if _, err := h.Keydir(ctx); !errors.Is(err, segstore.ErrNoKeydir) {
		t.Fatalf("fresh replica Keydir = %v, want ErrNoKeydir", err)
	}
	// Committing before the blobs exist must fail permanently (409), not
	// burn retries.
	if err := h.CommitKeydir(ctx, bundle); err == nil || errors.Is(err, segstore.ErrRetriesExhausted) {
		t.Fatalf("commit without blobs = %v; want an immediate permanent error", err)
	}

	var wantNames []string
	for _, seg := range man.Segments {
		seg := seg
		c := segstore.Check{Size: seg.Size, DataOff: seg.DataOff, Payload: seg.Payload, CRC: seg.CRC}
		if has, err := h.Has(ctx, seg.Name, c); err != nil || has {
			t.Fatalf("Has(%s) before put = %v, %v", seg.Name, has, err)
		}
		err := h.Put(ctx, seg.Name, c, func() (io.ReadCloser, error) {
			rc, _, err := src.Get(ctx, seg.Name)
			return rc, err
		})
		if err != nil {
			t.Fatalf("put %s: %v", seg.Name, err)
		}
		if has, err := h.Has(ctx, seg.Name, c); err != nil || !has {
			t.Fatalf("Has(%s) after put = %v, %v; want true", seg.Name, has, err)
		}
		wantNames = append(wantNames, seg.Name)
	}
	names, err := h.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	sort.Strings(wantNames)
	if strings.Join(names, ",") != strings.Join(wantNames, ",") {
		t.Fatalf("List = %v, want %v", names, wantNames)
	}

	// Byte-for-byte download of one segment.
	seg := man.Segments[0]
	srcRC, _, err := src.Get(ctx, seg.Name)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(srcRC)
	srcRC.Close()
	rc, size, err := h.Get(ctx, seg.Name)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if size != seg.Size || !bytes.Equal(got, want) {
		t.Fatalf("downloaded %d bytes differing from the source", len(got))
	}

	if err := h.CommitKeydir(ctx, bundle); err != nil {
		t.Fatalf("commit: %v", err)
	}
	back, err := h.Keydir(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Keydir, bundle.Keydir) || !bytes.Equal(back.Dict, bundle.Dict) || !bytes.Equal(back.Meta, bundle.Meta) {
		t.Fatal("fetched bundle differs from the committed one")
	}

	if err := h.Delete(ctx, seg.Name); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Get(ctx, seg.Name); !errors.Is(err, segstore.ErrNotExist) {
		t.Fatalf("Get after delete = %v, want ErrNotExist", err)
	}
}

// TestHTTPRetriesTransientStatuses: bounded 5xx bursts and 429
// backpressure are ridden out by the retry policy; the Retry-After hint
// raises the backoff floor.
func TestHTTPRetriesTransientStatuses(t *testing.T) {
	src := buildArchive(t, t.TempDir(), 2)
	bundle, man := manifestOf(t, src)
	ts := replicaServer(t, t.TempDir())

	ft := segstore.NewFaultTransport(nil)
	var delays []time.Duration
	h := segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(5, &delays))

	seg := man.Segments[0]
	c := segstore.Check{Size: seg.Size, DataOff: seg.DataOff, Payload: seg.Payload, CRC: seg.CRC}
	openSeg := func() (io.ReadCloser, error) {
		rc, _, err := src.Get(ctx, seg.Name)
		return rc, err
	}

	// Two 500s, then through.
	ft.SetFault("segment.put", fsio.Fault{Status: 500, Count: 2})
	if err := h.Put(ctx, seg.Name, c, openSeg); err != nil {
		t.Fatalf("put through a 5xx burst: %v", err)
	}
	if len(delays) != 2 {
		t.Fatalf("put slept %d times, want 2", len(delays))
	}

	// 429 with Retry-After: the hint must floor the recorded backoff.
	ft.ClearFaults()
	delays = nil
	hint := 2 * time.Second
	ft.SetFault("keydir.get", fsio.Fault{Status: 429, RetryAfter: hint, Count: 1})
	if _, err := h.Keydir(ctx); !errors.Is(err, segstore.ErrNoKeydir) {
		t.Fatalf("keydir through 429 = %v, want ErrNoKeydir (fresh replica)", err)
	}
	if len(delays) != 1 || delays[0] < hint {
		t.Fatalf("429 backoff = %v, want one sleep of at least %v", delays, hint)
	}

	// An unbounded fault exhausts the policy, Is-ably.
	ft.ClearFaults()
	ft.SetFault("keydir.put", fsio.Fault{Err: fsio.ErrInjected})
	err := h.CommitKeydir(ctx, bundle)
	if !errors.Is(err, segstore.ErrRetriesExhausted) {
		t.Fatalf("commit against a dead endpoint = %v, want ErrRetriesExhausted", err)
	}
}

// TestHTTPTornDownload: a response body cut mid-stream surfaces as a
// read error on the returned stream, not a silent short read.
func TestHTTPTornDownload(t *testing.T) {
	srcDir := t.TempDir()
	src := buildArchive(t, srcDir, 2)
	_, man := manifestOf(t, src)
	ts := replicaServer(t, srcDir)

	ft := segstore.NewFaultTransport(nil)
	h := segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(2, nil))
	ft.SetFault("segment.get", fsio.Fault{Torn: true, Count: 1})

	seg := man.Segments[0]
	rc, _, err := h.Get(ctx, seg.Name)
	if err != nil {
		t.Fatalf("establishing the torn get: %v", err)
	}
	defer rc.Close()
	n, err := io.Copy(io.Discard, rc)
	if err == nil {
		t.Fatalf("torn download delivered %d bytes with no error", n)
	}
	if n >= seg.Size {
		t.Fatalf("torn download delivered the full %d bytes", n)
	}
}

// TestHTTPCrashedTransport: once the transport hits its kill point,
// every operation fails and the retry policy reports exhaustion with
// the crash as the root cause.
func TestHTTPCrashedTransport(t *testing.T) {
	ts := replicaServer(t, t.TempDir())
	ft := segstore.NewFaultTransport(nil)
	h := segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(3, nil))

	ft.CrashAfter(0, false)
	_, err := h.Keydir(ctx)
	if !errors.Is(err, segstore.ErrRetriesExhausted) || !errors.Is(err, fsio.ErrCrashed) {
		t.Fatalf("err = %v; want ErrRetriesExhausted wrapping ErrCrashed", err)
	}
	if !ft.Crashed() {
		t.Fatal("transport never recorded the crash")
	}
	if _, err := h.List(ctx); !errors.Is(err, fsio.ErrCrashed) {
		t.Fatalf("list after crash = %v, want ErrCrashed", err)
	}
}

// TestImpossibleCheckRejected: a Check no blob can pass — a negative size,
// offset or payload, or a payload range past the blob's end — is refused
// as it is parsed, so the server answers 400 without staging the body and
// the client gives up at once instead of re-streaming into a 422 forever.
func TestImpossibleCheckRejected(t *testing.T) {
	for _, c := range []segstore.Check{
		{Size: 10, DataOff: 2, Payload: 8},
		{Size: 10, DataOff: 10, Payload: 0},
		{},
	} {
		h := http.Header{}
		segstore.CheckHeaders(h, c)
		if got, err := segstore.ParseCheckHeaders(h); err != nil || got != c {
			t.Errorf("possible check %+v parsed as %+v, %v", c, got, err)
		}
	}
	impossible := []segstore.Check{
		{Size: -1},
		{Size: 10, DataOff: -1, Payload: 4},
		{Size: 10, DataOff: 2, Payload: -1},
		{Size: 10, DataOff: 11},
		{Size: 10, DataOff: 2, Payload: 9},
		{Size: 1 << 62, DataOff: 1 << 62, Payload: 1 << 62}, // the sum overflows
	}
	for _, c := range impossible {
		h := http.Header{}
		segstore.CheckHeaders(h, c)
		if _, err := segstore.ParseCheckHeaders(h); err == nil {
			t.Errorf("impossible check %+v parsed", c)
		}
	}

	dir := t.TempDir()
	ts := replicaServer(t, dir)
	var delays []time.Duration
	h := segstore.NewHTTP(ts.URL, nil, fastRetry(5, &delays))
	const body = "0123456789"
	for _, c := range impossible {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/segments/seg-00000001.tok", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		segstore.CheckHeaders(req.Header, c)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT with %+v: status %d, want 400", c, resp.StatusCode)
		}
		delays = nil
		err = h.Put(ctx, "seg-00000001.tok", c, func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(body)), nil })
		if err == nil || len(delays) != 0 {
			t.Errorf("client put with %+v: %v after %d retries, want an error and none", c, err, len(delays))
		}
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Errorf("the replica directory holds %d files (%v), want none", len(files), err)
	}
}
