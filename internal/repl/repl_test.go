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
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"xarch/internal/datagen"
	"xarch/internal/extmem"
	"xarch/internal/faulttest"
	"xarch/internal/fsio"
	"xarch/internal/keys"
	"xarch/internal/qlang"
	"xarch/internal/segstore"
	"xarch/internal/server"
)

// The replication fault matrices replay a sync through faulttest.Matrix:
// killed after every transport (or replica filesystem) op k, torn where
// the op moves bytes. Every directory the kill — and, for the replica's
// own filesystem, every power-loss mode — leaves must:
//
//   - reopen fsck-clean, with zero stranded *.part files;
//   - hold an archive stream byte-identical to a committed source
//     generation — the previous one or the synced one, never a hybrid;
//   - converge, when the sync is re-run on it un-reopened, to a replica
//     whose files are byte-identical to the source's, resuming from (not
//     re-transferring) staged blobs.

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
	stream := archiveStream(t, ar)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	return stream
}

// archiveStream returns the archive form of ar's current generation.
func archiveStream(t *testing.T, ar *extmem.Archiver) []byte {
	t.Helper()
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var buf bytes.Buffer
	if err := q.WriteArchiveXML(&buf); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return buf.Bytes()
}

// assertDirsEqual demands the replica holds byte-identical copies of
// exactly the source's files — the raw bar a completed, un-reopened
// sync must clear.
func assertDirsEqual(t *testing.T, label, srcDir, dstDir string) {
	t.Helper()
	src, dst := faulttest.Files(t, srcDir), faulttest.Files(t, dstDir)
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

// assertRecovered reopens a crashed replica directory (a copy of it —
// the caller's resume path needs the original un-swept) and checks the
// recovery invariants: opens clean, stream equals one of the two
// committed generations, no transients survive, fsck is clean.
// Returns the version count it recovered to.
func assertRecovered(t *testing.T, label, dir string, preV, postV int, wantPre, wantPost []byte) int {
	t.Helper()
	reopen := filepath.Join(t.TempDir(), "reopen")
	faulttest.CopyDir(t, dir, reopen)
	ar, err := extmem.Open(reopen, datagen.OMIMSpec(), srcCfg)
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", label, err)
	}
	stream := archiveStream(t, ar)
	v := ar.Versions()
	switch v {
	case preV:
		if !bytes.Equal(stream, wantPre) {
			t.Errorf("%s: recovered to %d versions but the stream differs from the pre-sync generation", label, v)
		}
	case postV:
		if !bytes.Equal(stream, wantPost) {
			t.Errorf("%s: recovered to %d versions but the stream differs from the synced generation", label, v)
		}
	default:
		t.Errorf("%s: recovered to %d versions, want %d or %d", label, v, preV, postV)
	}
	if err := ar.Close(); err != nil {
		t.Fatalf("%s: close: %v", label, err)
	}
	if tr := faulttest.Transient(t, reopen); len(tr) != 0 {
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

// replicaServer serves dir, through fs (the real filesystem when nil),
// with the replica blob API.
func replicaServer(t *testing.T, dir string, fs fsio.FS) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.NewReplicaHandler(localStore(t, dir, fs), nil))
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

// TestPulledReplicaSelectsFromPostings: a replica pulled through two Locals
// answers an attribute Select from the postings its segments carry,
// reading no segment byte. The source holds no attr.idx: a build that kept
// the postings in that sidecar wrote it after the commit, so a crash in
// between left exactly this source, and its replicas could only scan.
func TestPulledReplicaSelectsFromPostings(t *testing.T) {
	spec := keys.MustParseSpec("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (grade, {.}))\n(/db/rec, (v, {}))\n")
	srcDir, dstDir := t.TempDir(), filepath.Join(t.TempDir(), "replica")
	ar, err := extmem.Open(srcDir, spec, srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 3; v++ {
		var b strings.Builder
		b.WriteString("<db>")
		for id := 0; id < 40; id++ {
			fmt.Fprintf(&b, `<rec grade="g%d"><id>r%02d</id><v>%d</v></rec>`, id%4, id, v*(id%3))
		}
		b.WriteString("</db>")
		if items, err := ar.AddVersionBatch([]extmem.Source{{Reader: strings.NewReader(b.String())}}); err != nil || items[0].Err != nil {
			t.Fatal(err, items)
		}
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(srcDir, "attr.idx"))
	if _, err := Sync(ctx, localStore(t, srcDir, nil), localStore(t, dstDir, nil), Options{Retry: fastRetry(2)}); err != nil {
		t.Fatal(err)
	}
	sel := func(dir string) ([]qlang.Result, int64) {
		t.Helper()
		ar, err := extmem.Open(dir, spec, srcCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ar.Close()
		q, err := ar.OpenQuery()
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		e, err := qlang.Parse("@grade=g2 AND changed 2..")
		if err != nil {
			t.Fatal(err)
		}
		// The first Select loads the sections it needs; the second reads
		// only what it reads past them.
		if _, err := q.Select(e); err != nil {
			t.Fatal(err)
		}
		before := ar.BytesRead()
		res, err := q.Select(e)
		if err != nil {
			t.Fatal(err)
		}
		return res, ar.BytesRead() - before
	}
	want, _ := sel(srcDir)
	got, n := sel(dstDir)
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replica Select = %v, source %v", got, want)
	}
	if n != 0 {
		t.Fatalf("replica Select read %d segment bytes, want 0: it scanned instead of using the postings", n)
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

// replicaDir creates an empty replica directory and returns it with a
// FaultFS tracking it.
func replicaDir(t *testing.T) (string, *fsio.FaultFS) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "replica")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir, faulttest.Tracked(t, dir)
}

// syncCheck is the Check of a sync's matrix. It holds each outage's
// directory to the source generations before (preV versions, stream
// wantPre) and after the sync, then re-runs the sync on the directory
// through resume and requires it to converge on srcDir. It counts the
// resumes that found staged blobs in *resumed.
func syncCheck(srcDir string, preV, postV int, wantPre, wantPost []byte, resumed *int,
	resume func(t *testing.T, dir string) (*Stats, error)) func(*testing.T, faulttest.Point, string) bool {
	return func(t *testing.T, p faulttest.Point, dir string) bool {
		if p.K >= 0 && p.Err == nil {
			t.Fatalf("%v: sync succeeded through a crash", p)
		}
		post := assertRecovered(t, p.String(), dir, preV, postV, wantPre, wantPost) == postV
		rst, err := resume(t, dir)
		if err != nil {
			t.Fatalf("%v: resumed sync: %v", p, err)
		}
		if rst.Resumed > 0 {
			*resumed++
		}
		assertDirsEqual(t, p.String()+" resumed", srcDir, dir)
		if tr := faulttest.Transient(t, dir); len(tr) != 0 {
			t.Errorf("%v: resumed sync left staging files: %v", p, tr)
		}
		return post
	}
}

// TestPushFaultMatrix kills the network after every transport op of an
// incremental push, asserting the replica recovers to a committed
// generation and a resumed push converges byte-identically.
func TestPushFaultMatrix(t *testing.T) {
	srcDir := t.TempDir()
	g := gen(23)
	wantPre := addVersions(t, srcDir, g, 2)
	replicaBase := filepath.Join(t.TempDir(), "replica")
	faulttest.CopyDir(t, srcDir, replicaBase) // replica already synced at generation A
	wantPost := addVersions(t, srcDir, g, 1)
	src := localStore(t, srcDir, nil)

	// Plant a stray blob the new generation never referenced, so every
	// matrix run provably covers the sweep path: the archive itself is
	// append-only and may supersede nothing between two generations.
	for name, data := range faulttest.Files(t, replicaBase) {
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".tok") {
			if err := os.WriteFile(filepath.Join(replicaBase, "seg-99990000.tok"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	var last *Stats
	resumed := 0
	check := syncCheck(srcDir, 2, 3, wantPre, wantPost, &resumed, func(t *testing.T, dir string) (*Stats, error) {
		rts := replicaServer(t, dir, nil)
		return Sync(ctx, src, segstore.NewHTTP(rts.URL, nil, fastRetry(2)), Options{Retry: fastRetry(2)})
	})
	res := faulttest.Matrix{
		Setup: func(t *testing.T) faulttest.Run {
			dir := filepath.Join(t.TempDir(), "replica")
			faulttest.CopyDir(t, replicaBase, dir)
			disk := faulttest.Tracked(t, dir)
			ts := replicaServer(t, dir, disk)
			ft := segstore.NewFaultTransport(nil)
			dst := segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(2))
			return faulttest.Run{Faults: &ft.Failpoints, Disk: disk, Op: func() (err error) {
				last, err = Sync(ctx, src, dst, Options{Retry: fastRetry(2)})
				// Quiesce the replica before its directory is looked at:
				// the handler of a killed PUT may still be aborting,
				// removing its staged .part. Close returns once every
				// handler has.
				ts.Close()
				return err
			}}
		},
		Modes: faulttest.Kill,
		Check: func(t *testing.T, p faulttest.Point, dir string) bool {
			if p.K < 0 && (last.Copied == 0 || last.Skipped == 0 || last.Deleted == 0) {
				t.Fatalf("fixture too small — want copies, skips and sweeps in one push: %+v", last)
			}
			return check(t, p, dir)
		},
		MinOps: 5,
	}.Run(t)
	if res.Post < 2 {
		t.Error("no kill point recovered to the pushed generation; matrix never reached the commit tail")
	}
	if resumed == 0 {
		t.Error("no resumed push found staged blobs to skip; the resume path was never exercised")
	}
}

// TestPullFaultMatrix kills the network after every transport op of a
// fresh pull (torn cuts a download mid-body), asserting the replica
// directory recovers empty or complete and a resumed pull converges.
func TestPullFaultMatrix(t *testing.T) {
	srcDir := t.TempDir()
	wantPost := addVersions(t, srcDir, gen(24), 3)
	wantPre := addVersions(t, t.TempDir(), gen(99), 0) // the empty archive's stream
	ts := replicaServer(t, srcDir, nil)                // a committed dir serves as a pull source

	var last *Stats
	resumed := 0
	check := syncCheck(srcDir, 0, 3, wantPre, wantPost, &resumed, func(t *testing.T, dir string) (*Stats, error) {
		return Sync(ctx, segstore.NewHTTP(ts.URL, nil, fastRetry(2)), localStore(t, dir, nil), Options{Retry: fastRetry(2)})
	})
	faulttest.Matrix{
		Setup: func(t *testing.T) faulttest.Run {
			dir, disk := replicaDir(t)
			ft := segstore.NewFaultTransport(nil)
			src := segstore.NewHTTP(ts.URL, &http.Client{Transport: ft}, fastRetry(2))
			dst := localStore(t, dir, disk)
			return faulttest.Run{Faults: &ft.Failpoints, Disk: disk, Op: func() (err error) {
				last, err = Sync(ctx, src, dst, Options{Retry: fastRetry(2)})
				return err
			}}
		},
		Modes: faulttest.Kill,
		Check: func(t *testing.T, p faulttest.Point, dir string) bool {
			if p.K < 0 && last.Copied < 2 {
				t.Fatalf("fixture too small (%d segments copied)", last.Copied)
			}
			return check(t, p, dir)
		},
		MinOps: 5,
	}.Run(t)
	if resumed == 0 {
		t.Error("no resumed pull found staged blobs to skip")
	}
}

// TestPullLocalCrashMatrix kills the replica's own filesystem after every
// mutating op of a pull — the staging writes, fsyncs, renames and the
// commit — and checks what a kill and each power-loss mode leave:
// stranded *.part files, the local half of the protocol, and the
// replica's commit, which is the primary's. The engine's open-time sweep
// must clean what the resumed sync does not consume.
func TestPullLocalCrashMatrix(t *testing.T) {
	srcDir := t.TempDir()
	wantPost := addVersions(t, srcDir, gen(25), 3)
	wantPre := addVersions(t, t.TempDir(), gen(98), 0)
	src := localStore(t, srcDir, nil)

	resumed := 0
	check := syncCheck(srcDir, 0, 3, wantPre, wantPost, &resumed, func(t *testing.T, dir string) (*Stats, error) {
		return Sync(ctx, src, localStore(t, dir, nil), Options{Retry: fastRetry(2)})
	})
	sawPart := false
	res := faulttest.Matrix{
		Setup: func(t *testing.T) faulttest.Run {
			dir, disk := replicaDir(t)
			dst := localStore(t, dir, disk)
			return faulttest.Run{Faults: &disk.Failpoints, Disk: disk, Op: func() error {
				_, err := Sync(ctx, src, dst, Options{Retry: fastRetry(2)})
				return err
			}}
		},
		Modes: faulttest.AllModes,
		Check: func(t *testing.T, p faulttest.Point, dir string) bool {
			sawPart = sawPart || len(faulttest.Transient(t, dir)) > 0
			return check(t, p, dir)
		},
		MinOps: 10,
	}.Run(t)
	t.Logf("%d runs: %d recoveries to the old generation, %d to the new", res.Runs, res.Pre, res.Post)
	if !sawPart {
		t.Error("no crash point stranded a staging file; the *.part recovery path was never exercised")
	}
}

// TestPullSyncsTheDirectoryTwice: a pull's blob names are made durable by
// the commit's barrier directory fsync, as a primary's segment names are —
// not by one directory fsync per blob — so its trace holds the commit's
// two directory fsyncs and no other.
func TestPullSyncsTheDirectoryTwice(t *testing.T) {
	srcDir := t.TempDir()
	addVersions(t, srcDir, gen(25), 3)
	ffs := fsio.NewFaultFS(nil)
	dst := localStore(t, filepath.Join(t.TempDir(), "replica"), ffs)
	if st, err := Sync(ctx, localStore(t, srcDir, nil), dst, Options{Retry: fastRetry(2)}); err != nil || st.Copied < 2 {
		t.Fatalf("pull: %+v, %v", st, err)
	}
	var points []string
	for _, op := range ffs.Ops() {
		if op.Point == "dir.sync" || op.Point == "keydir.rename" {
			points = append(points, op.Point)
		}
	}
	if want := []string{"dir.sync", "keydir.rename", "dir.sync"}; !slices.Equal(points, want) {
		t.Errorf("directory fsyncs around the commit point: %v, want %v", points, want)
	}
}

// TestSyncResumeSkipsTransferred: an interrupted pull's staged segments
// are verified in place on the next run, not re-downloaded.
func TestSyncResumeSkipsTransferred(t *testing.T) {
	srcDir := t.TempDir()
	addVersions(t, srcDir, gen(26), 3)
	ts := replicaServer(t, srcDir, nil)
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
	ts := replicaServer(t, srcDir, nil)
	dir := filepath.Join(t.TempDir(), "replica")

	ft := segstore.NewFaultTransport(nil)
	ft.SetFault("keydir.get", fsio.Fault{Status: 503, Count: 2})
	ft.SetFault("segment.get", fsio.Fault{Err: fsio.ErrInjected, After: 1, Count: 2})
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
	ft2.SetFault("segment.get", fsio.Fault{Torn: true, Count: 2})
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
