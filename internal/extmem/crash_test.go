package extmem

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/faulttest"
	"xarch/internal/fsio"
	"xarch/internal/qlang"
	"xarch/internal/xmltree"
)

// The outage matrix: one archive operation replayed through
// faulttest.Matrix, killed after every op k of its I/O trace (and torn at
// every write), with the directory each run leaves checked under outage
// modes:
//
//   - process kill (TestCrashMatrix*): the directory as the kernel held
//     it, synced or not. It proves the ordering of the protocol and the
//     sweep, and would pass with no fsync at all;
//   - the three power-loss modes (TestPowerLossMatrix*): strict (names as
//     of the last SyncDir, bytes as of each file's last Sync — catches a
//     commit that relies on something it never forced out, and an
//     acknowledgement given before the ack SyncDir), names-ahead (every
//     name change made it, only synced bytes did — catches a rename that
//     exposes a file whose data was never fsynced) and last-name-only
//     (strict plus the one most recent name change — catches a keydir.idx
//     rename not fenced by the barrier SyncDir from the names it depends
//     on).
//
// In every mode the directory must open as exactly the pre- or the
// post-operation generation (assertRecovered), and once the operation has
// returned nil as the post-operation one: an acknowledged commit is
// durable.

// outageMatrix runs op against copies of base, whose archive holds preV
// versions and the stream wantPre, and checks every outage under modes.
// inspect, when set, sees each outage's directory before the reopen sweeps
// it. It returns the post-operation stream.
func outageMatrix(t *testing.T, cfg Config, base string, preV int, wantPre []byte, modes []fsio.PowerLossMode,
	op func(*Archiver) error, inspect func(faulttest.Point, string)) []byte {
	t.Helper()
	open := func(t *testing.T) (*Archiver, *fsio.FaultFS) {
		dir := t.TempDir()
		faulttest.CopyDir(t, base, dir)
		ffs := faulttest.Tracked(t, dir)
		c := cfg
		c.FS = ffs
		ar, err := Open(dir, datagen.OMIMSpec(), c)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return ar, ffs
	}

	// The post-operation generation, from a run of its own.
	ar, _ := open(t)
	if err := op(ar); err != nil {
		t.Fatal(err)
	}
	postV, wantPost, postFiles := ar.Versions(), archiveStreamBytes(t, ar), segmentFiles(t, ar)

	res := faulttest.Matrix{
		Setup: func(t *testing.T) faulttest.Run {
			ar, ffs := open(t)
			return faulttest.Run{Faults: &ffs.Failpoints, Disk: ffs, Op: func() error { return op(ar) }}
		},
		Modes: modes,
		Check: func(t *testing.T, p faulttest.Point, dir string) bool {
			if inspect != nil {
				inspect(p, dir)
			}
			v, files := assertRecovered(t, dir, cfg, p.String(), preV, postV, wantPre, wantPost)
			return v == postV && slices.Equal(files, postFiles)
		},
		MinOps: 5,
	}.Run(t)
	// Besides the clean run, some crash lands after the commit, in the
	// cleanup whose errors are ignored by design.
	if res.Acked < 2 {
		t.Errorf("only %d runs were acknowledged; the matrix does not reach the post-commit tail", res.Acked)
	}
	if res.Pre == 0 || res.Post == 0 {
		t.Errorf("recovered %d times to the old generation and %d times to the new; want both", res.Pre, res.Post)
	}
	t.Logf("%d runs: %d recoveries to the old generation, %d to the new", res.Runs, res.Pre, res.Post)
	return wantPost
}

// assertRecovered reopens a crashed directory with a clean filesystem
// and checks every recovery invariant:
//
//   - the store opens;
//   - the archive stream is byte-identical to either the pre-commit or
//     the post-commit generation (never a hybrid);
//   - transient files and orphan segments are swept;
//   - Select through the postings agrees with the scan, and fsck is clean.
//
// It returns the version count and segment files recovered to.
func assertRecovered(t *testing.T, dir string, cfg Config, label string,
	preV, postV int, wantPre, wantPost []byte) (versions int, files []string) {
	t.Helper()
	cfg.FS = nil
	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", label, err)
	}
	versions, files = ar.Versions(), segmentFiles(t, ar)
	assertPostingsAgreeWithScan(t, ar, label)
	got := archiveStreamBytes(t, ar)
	switch v := ar.Versions(); v {
	case preV:
		if !bytes.Equal(got, wantPre) {
			t.Errorf("%s: recovered to %d versions but stream differs from pre-commit generation", label, v)
		}
	case postV:
		if !bytes.Equal(got, wantPost) {
			t.Errorf("%s: recovered to %d versions but stream differs from post-commit generation", label, v)
		}
	default:
		t.Errorf("%s: recovered to %d versions, want %d or %d", label, v, preV, postV)
	}
	if tr := faulttest.Transient(t, dir); len(tr) != 0 {
		t.Errorf("%s: transient files survived reopen: %v", label, tr)
	}
	live := ar.current().d.files()
	for _, p := range globSegments(ar.fs, ar.dir) {
		if !live[filepath.Base(p)] {
			t.Errorf("%s: orphan segment %s survived reopen", label, filepath.Base(p))
		}
	}
	if err := ar.Close(); err != nil {
		t.Fatalf("%s: close recovered archive: %v", label, err)
	}
	report, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatalf("%s: fsck: %v", label, err)
	}
	if !report.Clean {
		t.Errorf("%s: fsck not clean after recovery: %+v", label, report.Problems())
	}
	return versions, files
}

// assertPostingsAgreeWithScan: Select through the postings of the
// recovered segments answers what the exact scan (NoAttrIndex) answers.
func assertPostingsAgreeWithScan(t *testing.T, ar *Archiver, label string) {
	t.Helper()
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer q.Close()
	defer func() { ar.cfg.NoAttrIndex = false }()
	for _, expr := range []string{"changed 2..", "in ..2 AND NOT at 3", "/ROOT/Record"} {
		e, err := qlang.Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		ar.cfg.NoAttrIndex = false
		indexed, err := q.Select(e)
		if err != nil {
			t.Fatalf("%s: Select(%q): %v", label, expr, err)
		}
		ar.cfg.NoAttrIndex = true
		scanned, err := q.Select(e)
		if err != nil {
			t.Fatalf("%s: scan Select(%q): %v", label, expr, err)
		}
		if !slices.Equal(indexed, scanned) {
			t.Errorf("%s: Select(%q) through the recovered postings differs from the scan", label, expr)
		}
	}
}

func addTree(docs ...*xmltree.Node) func(*Archiver) error {
	return func(ar *Archiver) error {
		srcs := make([]Source, len(docs))
		for i, d := range docs {
			srcs[i] = Source{Doc: d}
		}
		items, err := ar.AddVersionBatch(srcs)
		if err != nil {
			return err
		}
		for _, it := range items {
			if it.Err != nil {
				return it.Err
			}
		}
		return nil
	}
}

func addStream(doc *xmltree.Node) func(*Archiver) error {
	return func(ar *Archiver) error {
		return addVersion(ar, strings.NewReader(doc.IndentedXML()))
	}
}

func compact(ar *Archiver) error {
	_, err := ar.Compact()
	return err
}

// omimBase archives docs into a fresh directory and returns it with the
// archive's version count and stream.
func omimBase(t *testing.T, cfg Config, docs ...*xmltree.Node) (dir string, versions int, stream []byte) {
	t.Helper()
	dir = t.TempDir()
	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		if err := addTree(doc)(ar); err != nil {
			t.Fatal(err)
		}
	}
	versions, stream = ar.Versions(), archiveStreamBytes(t, ar)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, versions, stream
}

// fragmentedBase is omimBase for compaction: an archive whose layout has
// something to compact.
func fragmentedBase(t *testing.T, cfg Config, adds int) (dir string, versions int, stream []byte) {
	t.Helper()
	dir = t.TempDir()
	ar := fragmentedArchive(t, dir, cfg, adds)
	versions, stream = ar.Versions(), archiveStreamBytes(t, ar)
	if len(ar.CompactionPlan()) == 0 {
		t.Fatal("nothing planned; fixture too small")
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, versions, stream
}

// addDocs are the add matrices' versions: two in the base, one or two
// added under the matrix.
func addDocs(seed int64, n int) []*xmltree.Node {
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: seed, Records: 12, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.1})
	docs := make([]*xmltree.Node, n)
	for i := range docs {
		docs[i] = g.Next()
	}
	return docs
}

// TestCrashMatrixAdd kills an add after every op k of its I/O trace:
// recovery must land on exactly the 2-version or the 3-version archive.
// It runs once per source kind: a parsed tree (sorted in memory: its only
// transient files are the commit's staged ones) and streamed XML, which a
// small budget makes form several run files, so the matrix covers the
// scratch-file phase: runs and the sorted version left for the sweep.
func TestCrashMatrixAdd(t *testing.T) {
	docs := addDocs(91, 3)
	cfg := Config{Budget: 512, SegmentTarget: 1024}
	base, preV, wantPre := omimBase(t, cfg, docs[:2]...)
	for _, tc := range []struct {
		name     string
		op       func(*Archiver) error
		wantRuns bool
	}{
		{"tree", addTree(docs[2]), false},
		{"stream", addStream(docs[2]), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sawTransient, sawRuns := false, false
			outageMatrix(t, cfg, base, preV, wantPre, faulttest.Kill, tc.op, func(p faulttest.Point, dir string) {
				for _, name := range faulttest.Transient(t, dir) {
					sawTransient = true
					sawRuns = sawRuns || strings.HasPrefix(name, "tmp-run0001")
					if strings.HasPrefix(name, "tmp-w") {
						t.Errorf("%v: per-worker run file %s; run forming is sequential", p, name)
					}
				}
			})
			if !sawTransient {
				t.Error("no crash point left transient files behind; the sweep path was never exercised")
			}
			if sawRuns != tc.wantRuns {
				t.Errorf("crash points left a second run behind: %v, want %v", sawRuns, tc.wantRuns)
			}
		})
	}
}

// TestCrashMatrixCompact kills a compaction pass after every op k:
// compaction preserves the archive stream byte for byte, so recovery
// must always read back the same stream, whichever layout committed.
func TestCrashMatrixCompact(t *testing.T) {
	rawSegments(t, func(t *testing.T, cfg Config) {
		base, versions, want := fragmentedBase(t, cfg, 12)
		if post := outageMatrix(t, cfg, base, versions, want, faulttest.Kill, compact, nil); !bytes.Equal(post, want) {
			t.Error("compaction changed the archive stream; fixture broken")
		}
	})
}

func TestPowerLossMatrixAdd(t *testing.T) {
	docs := addDocs(91, 3)
	cfg := Config{Budget: 512, SegmentTarget: 1024}
	base, preV, wantPre := omimBase(t, cfg, docs[:2]...)
	t.Run("tree", func(t *testing.T) {
		outageMatrix(t, cfg, base, preV, wantPre, faulttest.PowerLoss, addTree(docs[2]), nil)
	})
	t.Run("stream", func(t *testing.T) {
		outageMatrix(t, cfg, base, preV, wantPre, faulttest.PowerLoss, addStream(docs[2]), nil)
	})
}

// A batch writes segments for every member and commits once: segments of
// early members that later members supersede exist on disk, synced, when
// the crash comes, and must never be taken for committed ones.
func TestPowerLossMatrixBatch(t *testing.T) {
	docs := addDocs(92, 4)
	cfg := Config{SegmentTarget: 1024}
	base, preV, wantPre := omimBase(t, cfg, docs[:2]...)
	outageMatrix(t, cfg, base, preV, wantPre, faulttest.PowerLoss, addTree(docs[2], docs[3]), nil)
}

// Compaction keeps the archive stream and the version count: the two
// generations differ only in their segment files.
func TestPowerLossMatrixCompact(t *testing.T) {
	cfg := Config{Budget: 1 << 16, SegmentTarget: fragTarget}
	base, versions, want := fragmentedBase(t, cfg, 8)
	outageMatrix(t, cfg, base, versions, want, faulttest.PowerLoss, compact, nil)
}

// The very first commit, Open's of an empty directory, under every outage:
// a last-name-only outage can keep meta.txt alone, a commit that never
// reached its commit point, and the directory must open as a fresh archive
// all the same.
func TestPowerLossMatrixOpen(t *testing.T) {
	faulttest.Matrix{
		Setup: func(t *testing.T) faulttest.Run {
			dir := t.TempDir()
			ffs := faulttest.Tracked(t, dir)
			return faulttest.Run{Faults: &ffs.Failpoints, Disk: ffs, Op: func() error {
				_, err := Open(dir, datagen.OMIMSpec(), Config{FS: ffs})
				return err
			}}
		},
		Modes: faulttest.AllModes,
		Check: func(t *testing.T, p faulttest.Point, dir string) bool {
			_, committed := faulttest.Files(t, dir)[keydirFile]
			assertRecovered(t, dir, Config{}, p.String(), 0, 0, nil, nil)
			return committed
		},
		MinOps: 5,
	}.Run(t)
}
