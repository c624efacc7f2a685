package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"xarch"
	"xarch/internal/extmem"
	"xarch/internal/fsio"
	"xarch/internal/repl"
	"xarch/internal/segstore"
)

func fastPolicy() segstore.RetryPolicy {
	return segstore.RetryPolicy{
		MaxAttempts: 3,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
}

// TestReplicationEndpointsLivePull pulls from a live server while
// writers keep committing: every pull that lands observes one pinned,
// committed generation, and the final replica answers version reads
// byte-identically to the primary.
func TestReplicationEndpointsLivePull(t *testing.T) {
	spec, err := xarch.ParseKeySpec(recSpec)
	if err != nil {
		t.Fatal(err)
	}
	store, err := xarch.OpenStore(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{QueueDepth: 8, MaxBatch: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	replicaDir := filepath.Join(t.TempDir(), "replica")
	pull := func() *repl.Stats {
		t.Helper()
		src := segstore.NewHTTP(ts.URL, nil, fastPolicy())
		dst, err := segstore.NewLocal(nil, replicaDir)
		if err != nil {
			t.Fatal(err)
		}
		st, err := repl.Sync(context.Background(), src, dst, repl.Options{Retry: fastPolicy()})
		if err != nil {
			t.Fatalf("pull: %v", err)
		}
		return st
	}

	// Interleave pulls with commits: each pull races the writer, and
	// each must land on some committed generation — fsck-clean, never a
	// half-installed mix.
	const versions = 6
	for i := 1; i <= versions; i++ {
		status, out := postDoc(t, ts.URL, recDoc("a", i))
		if status != http.StatusOK {
			t.Fatalf("add %d: status %d (%v)", i, status, out)
		}
		pull()
		check := filepath.Join(t.TempDir(), fmt.Sprintf("check%d", i))
		copyTree(t, replicaDir, check)
		report, err := extmem.CheckArchive(nil, check)
		if err != nil {
			t.Fatal(err)
		}
		if !report.Clean {
			t.Fatalf("pull %d: replica not fsck-clean: %+v", i, report.Problems())
		}
	}

	// Quiesced: one more pull, then the replica must serve every version
	// byte-for-byte like the primary.
	st := pull()
	if st.Versions != versions {
		t.Fatalf("final pull sees %d versions, want %d", st.Versions, versions)
	}
	rep, err := xarch.OpenStore(replicaDir, spec)
	if err != nil {
		t.Fatalf("open pulled replica: %v", err)
	}
	defer rep.Close()
	for v := 1; v <= versions; v++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/version/%d", ts.URL, v))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("primary version %d: status %d", v, resp.StatusCode)
		}
		var got bytes.Buffer
		if err := rep.WriteVersion(v, &got); err != nil {
			t.Fatalf("replica version %d: %v", v, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("replica version %d differs from the primary", v)
		}
	}
}

// TestReplicationSegmentNameRestriction: the live server hands out only
// blobs its pinned manifest references — no path tricks, no state
// files, no uncommitted segments mid-write.
func TestReplicationSegmentNameRestriction(t *testing.T) {
	spec, err := xarch.ParseKeySpec(recSpec)
	if err != nil {
		t.Fatal(err)
	}
	store, err := xarch.OpenStore(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	if status, _ := postDoc(t, ts.URL, recDoc("a", 1)); status != http.StatusOK {
		t.Fatal("seed add failed")
	}

	get := func(name string) int {
		resp, err := http.Get(ts.URL + "/v1/segments/" + name)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := get("keydir.idx"); s != http.StatusBadRequest {
		t.Errorf("state file via segment endpoint: status %d, want 400", s)
	}
	if s := get("seg-00000001.tok.part"); s != http.StatusBadRequest {
		t.Errorf("staging suffix: status %d, want 400", s)
	}
	if s := get("seg-99999999.tok"); s != http.StatusNotFound {
		t.Errorf("unreferenced segment: status %d, want 404", s)
	}
	resp, err := http.Get(ts.URL + "/v1/segments/..%2fkeydir.idx")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("path traversal answered 200")
	}
}

// TestReplicationSegmentFaultIsNotARace: a segment the current generation
// lists that the primary's disk cannot open is the primary's fault,
// answered 500 with its cause, not a name that vanished (404): a pull
// fails without repl.ErrSourceChanged, so it is not restarted as if the
// source had moved on.
func TestReplicationSegmentFaultIsNotARace(t *testing.T) {
	spec, err := xarch.ParseKeySpec(recSpec)
	if err != nil {
		t.Fatal(err)
	}
	dir, ffs := t.TempDir(), fsio.NewFaultFS(nil)
	store, err := xarch.OpenStore(dir, spec, xarch.WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	if status, _ := postDoc(t, ts.URL, recDoc("a", 1)); status != http.StatusOK {
		t.Fatal("seed add failed")
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.tok"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment to serve: %v", err)
	}
	ffs.SetFault("segment.open", fsio.Fault{Err: syscall.EIO})

	src := segstore.NewHTTP(ts.URL, nil, fastPolicy())
	dst, err := segstore.NewLocal(nil, filepath.Join(t.TempDir(), "replica"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repl.Sync(context.Background(), src, dst, repl.Options{Retry: fastPolicy()}); err == nil || errors.Is(err, repl.ErrSourceChanged) {
		t.Errorf("pull beside a failing segment open: %v, want a failure that is not ErrSourceChanged", err)
	}
	resp, err := http.Get(ts.URL + "/v1/segments/" + filepath.Base(segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte(syscall.EIO.Error())) {
		t.Errorf("GET of a listed segment that fails to open: %d %s, want 500 naming the cause", resp.StatusCode, body)
	}
}

// TestReplicationKeydirNeedsExternalStore: an in-memory store has no
// segment blobs to replicate; the endpoints say so instead of guessing.
func TestReplicationKeydirNeedsExternalStore(t *testing.T) {
	fake := newFakeStore()
	srv := New(fake, Options{QueueDepth: 4, MaxBatch: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for _, path := range []string{"/v1/keydir", "/v1/segments/seg-00000001.tok"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s on a memory store: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// copyTree copies the regular files of src into a fresh dst directory.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
