package repl

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
	"strings"
	"testing"
	"time"

	"xarch/internal/datagen"
	"xarch/internal/extmem"
	"xarch/internal/fsio"
	"xarch/internal/segstore"
	"xarch/internal/server"
)

// The replication fault matrix, in the style of the engine's crash
// matrix (extmem/crash_test.go): trace one clean sync to count its
// transport (or filesystem) operations, then replay it from the same
// starting snapshot with a simulated kill after op k — for every k,
// with the op at the kill point applied in full and torn — and assert
// on the replica:
//
//   - it reopens, fsck-clean, with zero stranded *.part files;
//   - its archive stream is byte-identical to a committed source
//     generation — the previous one or the pushed one, never a hybrid;
//   - re-running the sync on the un-reopened crashed directory
//     converges to a replica whose files are byte-identical to the
//     source's, resuming from (not re-transferring) staged blobs.

var ctx = context.Background()

var srcCfg = extmem.Config{Budget: 4096, SegmentTarget: 2048}

func gen(seed int64) *datagen.OMIM {
	return datagen.NewOMIM(datagen.OMIMConfig{Seed: seed, Records: 10, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.2})
}

// addVersions appends n generated versions to the archive in dir
// (creating it if fresh) and returns its archive stream afterwards.
func addVersions(t *testing.T, dir string, g *datagen.OMIM, n int) []byte {
	t.Helper()
	ar, err := extmem.Open(dir, datagen.OMIMSpec(), srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if items, err := ar.AddVersionBatch([]extmem.Source{{Reader: strings.NewReader(g.Next().IndentedXML())}}); err != nil || items[0].Err != nil {
			t.Fatal(err, items)
		}
	}
	var buf bytes.Buffer
	if err := ar.WriteArchiveXML(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func copyDir(t *testing.T, src, dst string) {
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

// dirFiles maps every regular file in dir to its bytes.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// assertDirsEqual demands the replica holds byte-identical copies of
// exactly the source's files — the raw bar a completed, un-reopened
// sync must clear.
func assertDirsEqual(t *testing.T, label, srcDir, dstDir string) {
	t.Helper()
	src, dst := dirFiles(t, srcDir), dirFiles(t, dstDir)
	for name, want := range src {
		got, ok := dst[name]
		if !ok {
			t.Errorf("%s: replica is missing %s", label, name)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: replica %s differs from the source", label, name)
		}
	}
	for name := range dst {
		if _, ok := src[name]; !ok {
			t.Errorf("%s: replica holds stray file %s", label, name)
		}
	}
}

// transientFiles lists staging/scratch leftovers in dir.
func transientFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		n := e.Name()
		if strings.HasSuffix(n, ".part") || strings.HasSuffix(n, ".tmp") || strings.HasPrefix(n, "tmp-") {
			out = append(out, n)
		}
	}
	return out
}

// assertRecovered reopens a crashed replica directory (a copy of it —
// the caller's resume path needs the original un-swept) and checks the
// recovery invariants: opens clean, stream equals one of the two
// committed generations, no transients survive, fsck is clean.
// Returns the version count it recovered to.
func assertRecovered(t *testing.T, label, dir string, preV, postV int, wantPre, wantPost []byte) int {
	t.Helper()
	reopen := filepath.Join(t.TempDir(), "reopen")
	copyDir(t, dir, reopen)
	ar, err := extmem.Open(reopen, datagen.OMIMSpec(), srcCfg)
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", label, err)
	}
	var buf bytes.Buffer
	if err := ar.WriteArchiveXML(&buf); err != nil {
		t.Fatalf("%s: stream: %v", label, err)
	}
	v := ar.Versions()
	switch v {
	case preV:
		if !bytes.Equal(buf.Bytes(), wantPre) {
			t.Errorf("%s: recovered to %d versions but the stream differs from the pre-sync generation", label, v)
		}
	case postV:
		if !bytes.Equal(buf.Bytes(), wantPost) {
			t.Errorf("%s: recovered to %d versions but the stream differs from the synced generation", label, v)
		}
	default:
		t.Errorf("%s: recovered to %d versions, want %d or %d", label, v, preV, postV)
	}
	if err := ar.Close(); err != nil {
		t.Fatalf("%s: close: %v", label, err)
	}
	if tr := transientFiles(t, reopen); len(tr) != 0 {
		t.Errorf("%s: stranded staging files survived reopen: %v", label, tr)
	}
	report, err := extmem.CheckArchive(nil, reopen)
	if err != nil {
		t.Fatalf("%s: fsck: %v", label, err)
	}
	if !report.Clean {
		t.Errorf("%s: fsck not clean after recovery: %+v", label, report.Problems())
	}
	return v
}

// fastRetry is a no-wall-clock retry policy for matrix runs.
func fastRetry(attempts int) segstore.RetryPolicy {
	return segstore.RetryPolicy{
		MaxAttempts: attempts,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
}

// replicaServer serves dir through the replica blob API, optionally
// through a fault transport on the client side.
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

func localStore(t *testing.T, dir string, fs fsio.FS) *segstore.Local {
	t.Helper()
	st, err := segstore.NewLocal(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSyncLocalFreshAndUpToDate: the sync engine's basic contract,
// store-to-store with no transport in between.
func TestSyncLocalFreshAndUpToDate(t *testing.T) {
	srcDir, dstDir := t.TempDir(), filepath.Join(t.TempDir(), "replica")
	addVersions(t, srcDir, gen(21), 3)
	src, dst := localStore(t, srcDir, nil), localStore(t, dstDir, nil)

	st, err := Sync(ctx, src, dst, Options{Retry: fastRetry(2)})
	if err != nil {
		t.Fatalf("fresh sync: %v", err)
	}
	if st.Copied != st.Segments || st.Copied == 0 || !st.Committed || st.UpToDate {
		t.Fatalf("fresh sync stats off: %+v", st)
	}
	assertDirsEqual(t, "fresh sync", srcDir, dstDir)

	// Replica fsck: a freshly pulled replica is a clean archive.
	report, err := extmem.CheckArchive(nil, dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean {
		t.Fatalf("pulled replica not fsck-clean: %+v", report.Problems())
	}

	st, err = Sync(ctx, src, dst, Options{Retry: fastRetry(2)})
	if err != nil {
		t.Fatalf("re-sync: %v", err)
	}
	if !st.UpToDate || st.Copied != 0 || st.Committed {
		t.Fatalf("up-to-date sync stats off: %+v", st)
	}
}

// TestSyncLocalIncremental: a second generation moves only the changed
// segments and sweeps the superseded ones.
func TestSyncLocalIncremental(t *testing.T) {
	srcDir, dstDir := t.TempDir(), filepath.Join(t.TempDir(), "replica")
	g := gen(22)
	addVersions(t, srcDir, g, 2)
	src, dst := localStore(t, srcDir, nil), localStore(t, dstDir, nil)
	st0, err := Sync(ctx, src, dst, Options{Retry: fastRetry(2)})
	if err != nil {
		t.Fatal(err)
	}

	addVersions(t, srcDir, g, 1)
	st, err := Sync(ctx, src, dst, Options{Retry: fastRetry(2)})
	if err != nil {
		t.Fatalf("incremental sync: %v", err)
	}
	// Distinct keydirs must yield distinct generation ids (hashing the
	// self-checksummed file whole would pin every id to the CRC residue).
	if st.Generation == st0.Generation {
		t.Errorf("generation id did not change across generations: %s", st.Generation)
	}
	if st.Skipped == 0 {
		t.Errorf("incremental sync re-copied everything: %+v", st)
	}
	if st.Copied == 0 || !st.Committed {
		t.Errorf("incremental sync moved nothing: %+v", st)
	}
	assertDirsEqual(t, "incremental sync", srcDir, dstDir)
}

// TestPushFaultMatrix kills the network after every transport op of an
// incremental push (torn and untorn), asserting the replica recovers to
// a committed generation and a resumed push converges byte-identically.
func TestPushFaultMatrix(t *testing.T) {
	srcDir := t.TempDir()
	g := gen(23)
	wantPre := addVersions(t, srcDir, g, 2)
	replicaBase := filepath.Join(t.TempDir(), "replica")
	copyDir(t, srcDir, replicaBase) // replica already synced at generation A
	wantPost := addVersions(t, srcDir, g, 1)
	src := localStore(t, srcDir, nil)

	// Plant a stray blob the new generation never referenced, so every
	// matrix run provably covers the sweep path: the archive itself is
	// append-only and may supersede nothing between two generations.
	strayFrom := dirFiles(t, replicaBase)
	for name, data := range strayFrom {
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".tok") {
			if err := os.WriteFile(filepath.Join(replicaBase, "seg-99990000.tok"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	// Clean traced run on a scratch replica: how many transport ops is
	// one push, and does the fixture exercise skip, copy and sweep?
	traceDir := filepath.Join(t.TempDir(), "trace")
	copyDir(t, replicaBase, traceDir)
	ts := replicaServer(t, traceDir)
	ft := segstore.NewFaultTransport(nil)
	dst := segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(2))
	st, err := Sync(ctx, src, dst, Options{Retry: fastRetry(2)})
	if err != nil {
		t.Fatalf("clean push: %v", err)
	}
	if st.Copied == 0 || st.Skipped == 0 || st.Deleted == 0 {
		t.Fatalf("fixture too small — want copies, skips and sweeps in one push: %+v", st)
	}
	assertDirsEqual(t, "clean push", srcDir, traceDir)
	n := ft.OpCount()
	t.Logf("push trace: %d transport ops (%d copied, %d skipped, %d swept)", n, st.Copied, st.Skipped, st.Deleted)

	recoveredPost, resumed := 0, 0
	for _, torn := range []bool{false, true} {
		for k := 0; k < n; k++ {
			label := fmt.Sprintf("k=%d torn=%v", k, torn)
			dir := filepath.Join(t.TempDir(), "replica")
			copyDir(t, replicaBase, dir)
			ts := replicaServer(t, dir)
			ft := segstore.NewFaultTransport(nil)
			ft.CrashAfter(k, torn)
			dst := segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(2))
			if _, err := Sync(ctx, src, dst, Options{Retry: fastRetry(2)}); err == nil {
				t.Fatalf("%s: push succeeded through a network kill", label)
			}
			if !ft.Crashed() {
				t.Fatalf("%s: kill point never hit; matrix does not cover the push", label)
			}
			// Quiesce the replica before looking at its directory: the
			// handler of the killed PUT may still be aborting, removing
			// its staged .part. Close returns once every handler has.
			ts.Close()
			if v := assertRecovered(t, label, dir, 2, 3, wantPre, wantPost); v == 3 {
				recoveredPost++
			}

			// Resume on the original, un-reopened directory: a fresh
			// connection, same replica state.
			rts := replicaServer(t, dir)
			rdst := segstore.NewHTTP(rts.URL, nil, fastRetry(2))
			rst, err := Sync(ctx, src, rdst, Options{Retry: fastRetry(2)})
			if err != nil {
				t.Fatalf("%s: resumed push: %v", label, err)
			}
			if rst.Resumed > 0 {
				resumed++
			}
			assertDirsEqual(t, label+" resumed", srcDir, dir)
		}
	}
	if recoveredPost == 0 {
		t.Error("no kill point recovered to the pushed generation; matrix never reached the commit tail")
	}
	if resumed == 0 {
		t.Error("no resumed push found staged blobs to skip; the resume path was never exercised")
	}
}

// TestPullFaultMatrix kills the network after every transport op of a
// fresh pull (torn and untorn — torn cuts the segment download
// mid-body), asserting the replica directory recovers empty or complete
// and a resumed pull converges.
func TestPullFaultMatrix(t *testing.T) {
	srcDir := t.TempDir()
	wantPost := addVersions(t, srcDir, gen(24), 3)
	emptyDir := t.TempDir()
	wantPre := addVersions(t, emptyDir, gen(99), 0) // the empty archive's stream
	ts := replicaServer(t, srcDir)                  // a committed dir serves as a pull source

	traceDst := filepath.Join(t.TempDir(), "replica")
	ft := segstore.NewFaultTransport(nil)
	src := segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(2))
	st, err := Sync(ctx, src, localStore(t, traceDst, nil), Options{Retry: fastRetry(2)})
	if err != nil {
		t.Fatalf("clean pull: %v", err)
	}
	if st.Copied < 2 {
		t.Fatalf("fixture too small (%d segments copied)", st.Copied)
	}
	assertDirsEqual(t, "clean pull", srcDir, traceDst)
	n := ft.OpCount()
	t.Logf("pull trace: %d transport ops (%d copied)", n, st.Copied)

	resumed := 0
	for _, torn := range []bool{false, true} {
		for k := 0; k < n; k++ {
			label := fmt.Sprintf("k=%d torn=%v", k, torn)
			dir := filepath.Join(t.TempDir(), "replica")
			ft := segstore.NewFaultTransport(nil)
			ft.CrashAfter(k, torn)
			src := segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(2))
			if _, err := Sync(ctx, src, localStore(t, dir, nil), Options{Retry: fastRetry(2)}); err == nil {
				t.Fatalf("%s: pull succeeded through a network kill", label)
			}
			if !ft.Crashed() {
				t.Fatalf("%s: kill point never hit", label)
			}
			assertRecovered(t, label, dir, 0, 3, wantPre, wantPost)

			rsrc := segstore.NewHTTP(ts.URL, nil, fastRetry(2))
			rst, err := Sync(ctx, rsrc, localStore(t, dir, nil), Options{Retry: fastRetry(2)})
			if err != nil {
				t.Fatalf("%s: resumed pull: %v", label, err)
			}
			if rst.Resumed > 0 {
				resumed++
			}
			assertDirsEqual(t, label+" resumed", srcDir, dir)
		}
	}
	if resumed == 0 {
		t.Error("no resumed pull found staged blobs to skip")
	}
}

// TestPullLocalCrashMatrix kills the replica's own filesystem after
// every mutating op of a pull — the staging writes, fsyncs, renames and
// the keydir commit — covering stranded *.part files and the local half
// of the protocol. The engine's open-time sweep must clean what the
// resumed sync does not consume.
func TestPullLocalCrashMatrix(t *testing.T) {
	srcDir := t.TempDir()
	wantPost := addVersions(t, srcDir, gen(25), 3)
	emptyDir := t.TempDir()
	wantPre := addVersions(t, emptyDir, gen(98), 0)
	src := localStore(t, srcDir, nil)

	traceDst := filepath.Join(t.TempDir(), "replica")
	ffs := fsio.NewFaultFS(nil)
	dst := localStore(t, traceDst, ffs)
	ffs.ResetTrace()
	if _, err := Sync(ctx, src, dst, Options{Retry: fastRetry(2)}); err != nil {
		t.Fatalf("clean pull: %v", err)
	}
	n := ffs.OpCount()
	if n < 10 {
		t.Fatalf("suspiciously short pull trace (%d ops); fsio seam not routing?", n)
	}
	t.Logf("local pull trace: %d mutating fs ops", n)

	sawPart := false
	for _, torn := range []bool{false, true} {
		for k := 0; k < n; k++ {
			label := fmt.Sprintf("k=%d torn=%v", k, torn)
			dir := filepath.Join(t.TempDir(), "replica")
			ffs := fsio.NewFaultFS(nil)
			dst := localStore(t, dir, ffs) // NewLocal's MkdirAll is traced; offset past it
			ffs.CrashAfter(ffs.OpCount()+k, torn)
			if _, err := Sync(ctx, src, dst, Options{Retry: fastRetry(2)}); err == nil {
				t.Fatalf("%s: pull succeeded through a filesystem crash", label)
			}
			if !ffs.Crashed() {
				t.Fatalf("%s: crash point never hit", label)
			}
			if len(transientFiles(t, dir)) > 0 {
				sawPart = true
			}
			assertRecovered(t, label, dir, 0, 3, wantPre, wantPost)

			// Resume with a healthy filesystem, no reopen in between.
			rst, err := Sync(ctx, src, localStore(t, dir, nil), Options{Retry: fastRetry(2)})
			if err != nil {
				t.Fatalf("%s: resumed pull: %v", label, err)
			}
			_ = rst
			assertDirsEqual(t, label+" resumed", srcDir, dir)
			if tr := transientFiles(t, dir); len(tr) != 0 {
				t.Errorf("%s: resumed sync left staging files: %v", label, tr)
			}
		}
	}
	if !sawPart {
		t.Error("no crash point stranded a staging file; the *.part recovery path was never exercised")
	}
}

// TestSyncResumeSkipsTransferred: an interrupted pull's staged segments
// are verified in place on the next run, not re-downloaded.
func TestSyncResumeSkipsTransferred(t *testing.T) {
	srcDir := t.TempDir()
	addVersions(t, srcDir, gen(26), 3)
	ts := replicaServer(t, srcDir)
	dir := filepath.Join(t.TempDir(), "replica")

	// Count segment downloads of a clean pull.
	ft := segstore.NewFaultTransport(nil)
	src := segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(2))
	if _, err := Sync(ctx, src, localStore(t, filepath.Join(t.TempDir(), "full"), nil), Options{Retry: fastRetry(2)}); err != nil {
		t.Fatal(err)
	}
	gets := 0
	for _, op := range ft.Ops() {
		if op.Point == "segment.get" {
			gets++
		}
	}
	if gets < 3 {
		t.Fatalf("fixture too small: %d segment downloads", gets)
	}

	// Interrupt a pull roughly halfway through its downloads.
	ft = segstore.NewFaultTransport(nil)
	ft.CrashAfter(1+gets/2, false)
	src = segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(2))
	if _, err := Sync(ctx, src, localStore(t, dir, nil), Options{Retry: fastRetry(2)}); err == nil {
		t.Fatal("interrupted pull succeeded")
	}

	// The resume must download strictly fewer segments than a fresh pull.
	ft = segstore.NewFaultTransport(nil)
	src = segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(2))
	st, err := Sync(ctx, src, localStore(t, dir, nil), Options{Retry: fastRetry(2)})
	if err != nil {
		t.Fatalf("resumed pull: %v", err)
	}
	regets := 0
	for _, op := range ft.Ops() {
		if op.Point == "segment.get" {
			regets++
		}
	}
	if st.Resumed == 0 {
		t.Errorf("resume verified no staged segments: %+v", st)
	}
	if regets >= gets {
		t.Errorf("resume re-downloaded everything: %d gets, fresh pull needed %d", regets, gets)
	}
	assertDirsEqual(t, "resume", srcDir, dir)
}

// TestSyncVerifyAllRepairsBitflip: fsck spots a corrupted replica
// segment, and a VerifyAll sync re-fetches exactly that segment.
func TestSyncVerifyAllRepairsBitflip(t *testing.T) {
	srcDir := t.TempDir()
	addVersions(t, srcDir, gen(27), 3)
	dir := filepath.Join(t.TempDir(), "replica")
	src := localStore(t, srcDir, nil)
	if _, err := Sync(ctx, src, localStore(t, dir, nil), Options{Retry: fastRetry(2)}); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of one replica segment.
	b, err := localStore(t, dir, nil).Keydir(ctx)
	if err != nil {
		t.Fatal(err)
	}
	man, err := extmem.DecodeManifest(b.Keydir)
	if err != nil {
		t.Fatal(err)
	}
	seg := man.Segments[len(man.Segments)/2]
	path := filepath.Join(dir, seg.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[seg.DataOff+seg.Payload/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	report, err := extmem.CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean {
		t.Fatal("fsck did not flag the bitflipped replica segment")
	}

	// A plain sync trusts the committed keydir and fixes nothing...
	st, err := Sync(ctx, src, localStore(t, dir, nil), Options{Retry: fastRetry(2)})
	if err != nil || st.Repaired != 0 {
		t.Fatalf("plain sync on corrupt replica: %+v, %v", st, err)
	}
	// ...VerifyAll re-checks every blob and re-fetches the rotten one.
	st, err = Sync(ctx, src, localStore(t, dir, nil), Options{Retry: fastRetry(2), VerifyAll: true})
	if err != nil {
		t.Fatalf("verify-all sync: %v", err)
	}
	if st.Repaired != 1 {
		t.Fatalf("verify-all repaired %d segments, want 1 (%+v)", st.Repaired, st)
	}
	report, err = extmem.CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean {
		t.Fatalf("replica not clean after repair: %+v", report.Problems())
	}
	assertDirsEqual(t, "repaired", srcDir, dir)
}

// missingSegStore hides one blob from Get — a source that swept a
// segment after handing out its manifest.
type missingSegStore struct {
	segstore.Store
	name string
}

func (m *missingSegStore) Get(ctx context.Context, name string) (io.ReadCloser, int64, error) {
	if name == m.name {
		return nil, 0, fmt.Errorf("%w: %s", segstore.ErrNotExist, name)
	}
	return m.Store.Get(ctx, name)
}

func TestSyncSourceChanged(t *testing.T) {
	srcDir := t.TempDir()
	addVersions(t, srcDir, gen(28), 2)
	src := localStore(t, srcDir, nil)
	_, man := func() (*segstore.Bundle, *extmem.Manifest) {
		b, err := src.Keydir(ctx)
		if err != nil {
			t.Fatal(err)
		}
		m, err := extmem.DecodeManifest(b.Keydir)
		if err != nil {
			t.Fatal(err)
		}
		return b, m
	}()
	hidden := &missingSegStore{Store: src, name: man.Segments[0].Name}
	_, err := Sync(ctx, hidden, localStore(t, filepath.Join(t.TempDir(), "r"), nil), Options{Retry: fastRetry(2)})
	if !errors.Is(err, ErrSourceChanged) {
		t.Fatalf("sync against a moved-on source = %v, want ErrSourceChanged", err)
	}
}

// TestSyncRidesOutInjectedFaults: bounded 5xx bursts, connection
// resets and torn downloads on every endpoint class are absorbed by
// the retry policy without corrupting the replica.
func TestSyncRidesOutInjectedFaults(t *testing.T) {
	srcDir := t.TempDir()
	addVersions(t, srcDir, gen(29), 3)
	ts := replicaServer(t, srcDir)
	dir := filepath.Join(t.TempDir(), "replica")

	ft := segstore.NewFaultTransport(nil)
	ft.SetFault("keydir.get", segstore.NetFault{Status: 503, Count: 2})
	ft.SetFault("segment.get", segstore.NetFault{Err: segstore.ErrNetInjected, After: 1, Count: 2})
	src := segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(5))
	st, err := Sync(ctx, src, localStore(t, dir, nil), Options{Retry: fastRetry(5)})
	if err != nil {
		t.Fatalf("sync through bounded faults: %v", err)
	}
	if st.Copied == 0 || !st.Committed {
		t.Fatalf("faulty sync moved nothing: %+v", st)
	}
	assertDirsEqual(t, "faulty sync", srcDir, dir)

	// Torn downloads: the staging verify rejects the short blob and the
	// retry re-streams it.
	dir2 := filepath.Join(t.TempDir(), "replica2")
	ft2 := segstore.NewFaultTransport(nil)
	ft2.SetFault("segment.get", segstore.NetFault{Torn: true, Count: 2})
	src2 := segstore.NewHTTP(ts.URL, &http.Client{Transport: ft2}, fastRetry(5))
	st2, err := Sync(ctx, src2, localStore(t, dir2, nil), Options{Retry: fastRetry(5)})
	if err != nil {
		t.Fatalf("sync through torn downloads: %v", err)
	}
	if st2.Copied == 0 {
		t.Fatalf("torn-download sync moved nothing: %+v", st2)
	}
	assertDirsEqual(t, "torn-download sync", srcDir, dir2)
}
