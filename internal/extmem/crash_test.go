package extmem

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/fsio"
	"xarch/internal/qlang"
	"xarch/internal/xmltree"
)

// The crash matrix: record the I/O trace of one archive operation on a
// fault-injecting filesystem, then replay the operation from the same
// starting snapshot with a simulated crash after op k — for every k —
// and assert the recovery invariants on reopen:
//
//   - the store opens;
//   - the archive stream is byte-identical to either the pre-commit or
//     the post-commit generation (never a hybrid);
//   - the key directory checksum is valid (or the directory was rebuilt
//     and re-persisted);
//   - transient files and orphan segments are swept.
//
// Each matrix runs twice, with the crashing write applied in full and
// torn (half its bytes), covering partial final writes.
//
// An add runs on one goroutine, so the replay repeats the traced run op
// for op up to the crash; the traced run's length sizes the matrix so the
// whole operation — through the commit renames and the post-commit
// cleanup — is covered.

// copyDir snapshots the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
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

// assertRecovered reopens a crashed directory with a clean filesystem
// and checks every recovery invariant. wantPre/wantPost are the archive
// streams of the two committed generations the crash may resolve to
// (identical for stream-preserving operations like compaction). It
// returns the version count and segment files recovered to.
func assertRecovered(t *testing.T, dir string, cfg Config, label string,
	preV, postV int, wantPre, wantPost []byte) (versions int, files []string) {
	t.Helper()
	cfg.FS = nil
	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", label, err)
	}
	versions, files = ar.Versions(), segmentFiles(t, ar)
	assertSidecarAgreesWithScan(t, ar, label)
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
	if tr := listTransient(fsio.OS, dir); len(tr) != 0 {
		t.Errorf("%s: transient files survived reopen: %v", label, tr)
	}
	live := ar.current().d.files()
	for _, p := range globSegments(ar.fs, ar.dir) {
		if !live[filepath.Base(p)] {
			t.Errorf("%s: orphan segment %s survived reopen", label, filepath.Base(p))
		}
	}
	dirCRC := ar.current().d.crc
	if err := ar.Close(); err != nil {
		t.Fatalf("%s: close recovered archive: %v", label, err)
	}
	// The advisory attr.idx sidecar must never survive a crash in a
	// state a reader could misuse: after the writable reopen it is
	// either absent (dropped, to be rebuilt by the next commit) or
	// decodes cleanly and is bound to the recovered key directory.
	if data, err := os.ReadFile(filepath.Join(dir, attrIdxFile)); err == nil {
		x, derr := decodeAttrIndex(data)
		if derr != nil {
			t.Errorf("%s: attr.idx corrupt after recovery: %v", label, derr)
		} else if x.keydirCRC != dirCRC {
			t.Errorf("%s: stale attr.idx survived the writable reopen", label)
		}
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

// assertSidecarAgreesWithScan: whatever attr.idx the reopen kept — it is
// written without any fsync, so a crash may leave it whole, stale, torn
// or empty — Select through it answers what the exact scan answers.
func assertSidecarAgreesWithScan(t *testing.T, ar *Archiver, label string) {
	t.Helper()
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer q.Close()
	kept := q.aidx
	for _, expr := range []string{"changed 2..", "in ..2 AND NOT at 3", "/ROOT/Record"} {
		e, err := qlang.Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		q.aidx = kept
		indexed, err := q.Select(e)
		if err != nil {
			t.Fatalf("%s: Select(%q): %v", label, expr, err)
		}
		q.aidx = nil
		scanned, err := q.Select(e)
		if err != nil {
			t.Fatalf("%s: scan Select(%q): %v", label, expr, err)
		}
		if !slices.Equal(indexed, scanned) {
			t.Errorf("%s: Select(%q) through the recovered sidecar differs from the scan", label, expr)
		}
	}
}

// TestCrashMatrixAdd crashes an add after every op k of its I/O trace:
// recovery must land on exactly the 2-version or the 3-version archive.
// It runs once per source kind: a parsed tree (whose only scratch file is
// the sorted version) and streamed XML (which also leaves the token file,
// the tmp-keys-* key files and the runs for the sweep).
func TestCrashMatrixAdd(t *testing.T) {
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 91, Records: 12, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.1})
	docs := []*xmltree.Node{g.Next(), g.Next(), g.Next()}
	t.Run("tree", func(t *testing.T) {
		crashMatrixAdd(t, docs, false, func(ar *Archiver, doc *xmltree.Node) error {
			items, err := ar.AddVersionBatch([]Source{{Doc: doc}})
			if err != nil {
				return err
			}
			return items[0].Err
		})
	})
	t.Run("stream", func(t *testing.T) {
		crashMatrixAdd(t, docs, true, func(ar *Archiver, doc *xmltree.Node) error {
			return addVersion(ar, strings.NewReader(doc.IndentedXML()))
		})
	})
}

func crashMatrixAdd(t *testing.T, docs []*xmltree.Node, wantKeyFiles bool, add func(*Archiver, *xmltree.Node) error) {
	// A small budget makes the streamed add form several run files, so the
	// matrix covers the scratch-file phase.
	cfg := Config{Budget: 512, SegmentTarget: 1024}

	base := t.TempDir()
	ar, err := Open(base, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[:2] {
		if err := add(ar, doc); err != nil {
			t.Fatal(err)
		}
	}
	wantPre := archiveStreamBytes(t, ar)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean traced run: how many mutating ops is one Add, and what does
	// the post-commit generation look like?
	traceDir := t.TempDir()
	copyDir(t, base, traceDir)
	ffs := fsio.NewFaultFS(nil)
	tcfg := cfg
	tcfg.FS = ffs
	tar, err := Open(traceDir, datagen.OMIMSpec(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	ffs.ResetTrace()
	if err := add(tar, docs[2]); err != nil {
		t.Fatal(err)
	}
	n := ffs.OpCount()
	wantPost := archiveStreamBytes(t, tar)
	tar.Close()
	if n < 10 {
		t.Fatalf("suspiciously short Add trace (%d ops); seam not routing I/O?", n)
	}
	t.Logf("Add trace: %d mutating ops", n)

	sawTransient, sawKeyFile := false, false
	committedLate := 0
	for _, torn := range []bool{false, true} {
		for k := 0; k < n; k++ {
			label := fmt.Sprintf("k=%d torn=%v", k, torn)
			dir := t.TempDir()
			copyDir(t, base, dir)
			cfs := fsio.NewFaultFS(nil)
			ccfg := cfg
			ccfg.FS = cfs
			car, err := Open(dir, datagen.OMIMSpec(), ccfg)
			if err != nil {
				t.Fatalf("%s: open: %v", label, err)
			}
			// Offset by the ops Open itself consumed so k indexes into
			// the Add. A nil return is legal for late k: the crash then
			// landed in post-commit cleanup, whose errors are ignored by
			// design — the version is already durable.
			cfs.CrashAfter(cfs.OpCount()+k, torn)
			if err := add(car, docs[2]); err == nil {
				committedLate++
			}
			if !cfs.Crashed() {
				t.Fatalf("%s: crash point never hit; matrix does not cover the operation", label)
			}
			for _, name := range listTransient(fsio.OS, dir) {
				sawTransient = true
				if strings.HasPrefix(name, "tmp-keys-") {
					sawKeyFile = true
				}
				if strings.HasPrefix(name, "tmp-w") {
					t.Errorf("%s: per-worker run file %s; run forming is sequential", label, name)
				}
			}
			assertRecovered(t, dir, cfg, label, 2, 3, wantPre, wantPost)
		}
	}
	if !sawTransient {
		t.Error("no crash point left transient files behind; the sweep path was never exercised")
	}
	if sawKeyFile != wantKeyFiles {
		t.Errorf("crash points left key files behind: %v, want %v", sawKeyFile, wantKeyFiles)
	}
	if committedLate == 0 {
		t.Error("no crash point landed after the commit; matrix does not reach the cleanup tail")
	}
}

// TestCrashMatrixCompact crashes a compaction pass after every op k:
// compaction preserves the archive stream byte for byte, so recovery
// must always read back the same stream, whichever layout committed.
func TestCrashMatrixCompact(t *testing.T) {
	rawSegments(t, func(t *testing.T, cfg Config) {
		base := t.TempDir()
		ar := fragmentedArchive(t, base, cfg, 12)
		want := archiveStreamBytes(t, ar)
		versions := ar.Versions()
		if len(ar.CompactionPlan()) == 0 {
			t.Fatal("nothing planned; fixture too small")
		}
		if err := ar.Close(); err != nil {
			t.Fatal(err)
		}

		traceDir := t.TempDir()
		copyDir(t, base, traceDir)
		ffs := fsio.NewFaultFS(nil)
		tcfg := cfg
		tcfg.FS = ffs
		tar, err := Open(traceDir, datagen.OMIMSpec(), tcfg)
		if err != nil {
			t.Fatal(err)
		}
		ffs.ResetTrace()
		if _, err := tar.Compact(); err != nil {
			t.Fatal(err)
		}
		n := ffs.OpCount()
		if got := archiveStreamBytes(t, tar); !bytes.Equal(got, want) {
			t.Fatal("compaction changed the archive stream; fixture broken")
		}
		tar.Close()
		if n < 5 {
			t.Fatalf("suspiciously short Compact trace (%d ops)", n)
		}
		t.Logf("Compact trace: %d mutating ops", n)

		for _, torn := range []bool{false, true} {
			for k := 0; k < n; k++ {
				label := fmt.Sprintf("k=%d torn=%v", k, torn)
				dir := t.TempDir()
				copyDir(t, base, dir)
				cfs := fsio.NewFaultFS(nil)
				ccfg := cfg
				ccfg.FS = cfs
				car, err := Open(dir, datagen.OMIMSpec(), ccfg)
				if err != nil {
					t.Fatalf("%s: open: %v", label, err)
				}
				// As in the Add matrix: offset k past Open's own ops, and
				// accept a nil return when the crash lands in the ignored
				// post-commit removal of superseded segments.
				cfs.CrashAfter(cfs.OpCount()+k, torn)
				car.Compact()
				if !cfs.Crashed() {
					t.Fatalf("%s: crash point never hit; matrix does not cover the operation", label)
				}
				assertRecovered(t, dir, cfg, label, versions, versions, want, want)
			}
		}
	})
}
