package extmem

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/fsio"
	"xarch/internal/xmltree"
)

// The power-loss matrix. The crash matrix (crash_test.go) kills the
// process after op k and reopens the directory as the operating system's
// cache held it — synced or not — so it would pass with no fsync at all.
// This matrix replays the same crash points on a FaultFS that tracks
// durability, and reopens what a power failure would leave instead, under
// each of the model's modes:
//
//   - strict: names as of the last SyncDir, bytes as of each file's last
//     Sync — catches a commit that relies on something it never forced
//     out, and an acknowledgement given before the ack SyncDir;
//   - names-ahead: every name change made it, but only synced bytes did —
//     catches a rename that exposes a file whose data was never fsynced;
//   - last-name-only: strict plus the one most recent name change —
//     catches a keydir.idx rename not fenced by the barrier SyncDir from
//     the segment, dict.txt and meta.txt names it depends on.
//
// At every k, in every mode, the directory must open as exactly the pre-
// or the post-operation generation (assertRecovered), and once the
// operation has returned nil every mode must give the post-operation
// generation: an acknowledged commit is durable. A crashing write is
// replayed in full and torn; the model drops unsynced bytes either way,
// and the torn replay checks that it does.

// powerLossMatrix runs op against a copy of base for every crash point k
// (and once with no crash) and asserts the invariants above. preV and
// wantPre describe the archive in base.
func powerLossMatrix(t *testing.T, cfg Config, base string, preV int, wantPre []byte, op func(*Archiver) error) {
	t.Helper()
	open := func(dir string) (*Archiver, *fsio.FaultFS) {
		ffs := fsio.NewFaultFS(nil)
		if err := ffs.TrackDurability(dir); err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.FS = ffs
		ar, err := Open(dir, datagen.OMIMSpec(), c)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return ar, ffs
	}

	// Clean traced run: the trace to replay and the generation to expect.
	traceDir := t.TempDir()
	copyDir(t, base, traceDir)
	tar, tfs := open(traceDir)
	tfs.ResetTrace()
	if err := op(tar); err != nil {
		t.Fatal(err)
	}
	trace := tfs.Ops()
	postV, wantPost, postFiles := tar.Versions(), archiveStreamBytes(t, tar), segmentFiles(t, tar)
	if len(trace) < 10 {
		t.Fatalf("suspiciously short trace (%d ops); seam not routing I/O?", len(trace))
	}
	t.Logf("trace: %d mutating ops", len(trace))

	type point struct {
		k    int // len(trace) = no crash
		torn bool
	}
	points := []point{{k: len(trace)}}
	for k, o := range trace {
		points = append(points, point{k: k})
		if strings.HasSuffix(o.Point, ".write") {
			points = append(points, point{k: k, torn: true})
		}
	}
	acked, recoveredPre, recoveredPost := 0, 0, 0
	for _, p := range points {
		dir := t.TempDir()
		copyDir(t, base, dir)
		car, cfs := open(dir)
		if p.k < len(trace) {
			cfs.CrashAfter(cfs.OpCount()+p.k, p.torn)
		}
		opErr := op(car)
		if (p.k < len(trace)) != cfs.Crashed() {
			t.Fatalf("k=%d: crashed=%v; matrix does not cover the operation", p.k, cfs.Crashed())
		}
		if opErr == nil {
			acked++
		}
		for _, mode := range []fsio.PowerLossMode{fsio.PowerLossStrict, fsio.PowerLossNamesAhead, fsio.PowerLossLastNameOnly} {
			label := fmt.Sprintf("k=%d torn=%v %v", p.k, p.torn, mode)
			out := t.TempDir()
			if err := cfs.PowerLoss(out, mode); err != nil {
				t.Fatal(err)
			}
			v, files := assertRecovered(t, out, cfg, label, preV, postV, wantPre, wantPost)
			isPost := v == postV && slices.Equal(files, postFiles)
			if isPost {
				recoveredPost++
			} else {
				recoveredPre++
			}
			if opErr == nil && !isPost {
				t.Errorf("%s: the operation returned nil but the outage lost it (recovered %d versions, segments %v; want %d, %v)",
					label, v, files, postV, postFiles)
			}
		}
	}
	if acked < 2 {
		t.Errorf("only %d runs were acknowledged; the matrix does not reach the post-commit tail", acked)
	}
	if recoveredPre == 0 || recoveredPost == 0 {
		t.Errorf("recovered %d times to the old generation and %d times to the new; want both", recoveredPre, recoveredPost)
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

func TestPowerLossMatrixAdd(t *testing.T) {
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 91, Records: 12, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.1})
	docs := []*xmltree.Node{g.Next(), g.Next(), g.Next()}
	cfg := Config{Budget: 512, SegmentTarget: 1024}
	base, preV, wantPre := omimBase(t, cfg, docs[:2]...)
	t.Run("tree", func(t *testing.T) {
		powerLossMatrix(t, cfg, base, preV, wantPre, addTree(docs[2]))
	})
	t.Run("stream", func(t *testing.T) {
		powerLossMatrix(t, cfg, base, preV, wantPre, func(ar *Archiver) error {
			return addVersion(ar, strings.NewReader(docs[2].IndentedXML()))
		})
	})
}

// A batch writes segments for every member and commits once: segments of
// early members that later members supersede exist on disk, synced, when
// the crash comes, and must never be taken for committed ones.
func TestPowerLossMatrixBatch(t *testing.T) {
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 92, Records: 12, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.1})
	docs := []*xmltree.Node{g.Next(), g.Next(), g.Next(), g.Next()}
	cfg := Config{SegmentTarget: 1024}
	base, preV, wantPre := omimBase(t, cfg, docs[:2]...)
	powerLossMatrix(t, cfg, base, preV, wantPre, addTree(docs[2], docs[3]))
}

// Compaction keeps the archive stream and the version count: the two
// generations differ only in their segment files.
func TestPowerLossMatrixCompact(t *testing.T) {
	cfg := Config{Budget: 1 << 16, SegmentTarget: fragTarget}
	base := t.TempDir()
	ar := fragmentedArchive(t, base, cfg, 8)
	versions, want := ar.Versions(), archiveStreamBytes(t, ar)
	if len(ar.CompactionPlan()) == 0 {
		t.Fatal("nothing planned; fixture too small")
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	powerLossMatrix(t, cfg, base, versions, want, func(ar *Archiver) error {
		_, err := ar.Compact()
		return err
	})
}
