package xarch

import (
	"bytes"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"xarch/internal/datagen"
	"xarch/internal/fsio"
)

// TestSoakRandomFaults hammers one store directory for several seconds
// with Adds, Compacts and concurrent snapshot readers while random
// failpoints inject I/O errors and whole-process crashes. The invariant
// under all of it: no committed version is ever lost — after every
// simulated crash/restart the store reopens with at least the committed
// version count, and the snapshot for a given version count never
// changes. The test is seeded, so a failure reproduces.
func TestSoakRandomFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	dir := t.TempDir()
	spec := datagen.OMIMSpec()
	gen := datagen.NewOMIM(datagen.OMIMConfig{Seed: 5, Records: 8, DeleteFrac: 0.05, InsertFrac: 0.15, ModifyFrac: 0.2})
	rng := rand.New(rand.NewSource(5))
	var wg sync.WaitGroup
	defer wg.Wait()

	// Every point is on the path of some add below: a tree add stages and
	// commits (dict.* only when it brings a new name) and touches no
	// scratch file, a streamed add also sorts through scratch files.
	points := []string{
		"keydir.sync", "keydir.rename", "meta.sync", "meta.rename", "dict.sync",
		"segment.sync", "segment.write", "segment.close",
		"scratch.create", "scratch.write", "dir.sync",
	}

	committed := 0
	snaps := map[int]string{}

	openFresh := func() (*ExtStore, *fsio.FaultFS) {
		ffs := fsio.NewFaultFS(nil)
		// Validation off, so that AddReader streams through the external
		// sort instead of parsing first; Add takes the tree path.
		s, err := OpenStore(dir, spec, WithFS(ffs), WithValidation(false),
			WithMemoryBudget(4096), WithSegmentTargetSize(2048))
		if err != nil {
			t.Fatalf("reopen after %d committed versions: %v", committed, err)
		}
		return s, ffs
	}
	// record checks the model against a live, healthy store: the version
	// count may only have grown by the one possibly-in-flight Add, and a
	// version count seen before must snapshot to the same bytes.
	record := func(s *ExtStore) {
		v := s.Versions()
		if v < committed || v > committed+1 {
			t.Fatalf("restart lost committed versions: have %d, committed %d", v, committed)
		}
		if v > 0 {
			var b bytes.Buffer
			if err := s.Snapshot(&b); err != nil {
				t.Fatalf("snapshot at %d versions: %v", v, err)
			}
			if prev, ok := snaps[v]; ok && prev != b.String() {
				t.Fatalf("snapshot for %d versions changed across a restart", v)
			}
			snaps[v] = b.String()
		}
		committed = v
	}

	// The nightly workflow stretches the default 8-second run via
	// XARCH_SOAK_SECS; per-push CI leaves it unset.
	secs := 8
	if env := os.Getenv("XARCH_SOAK_SECS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad XARCH_SOAK_SECS=%q", env)
		}
		secs = n
	}
	s, ffs := openFresh()
	deadline := time.Now().Add(time.Duration(secs) * time.Second)
	adds, crashes, faults := 0, 0, 0
	for time.Now().Before(deadline) {
		switch mode := rng.Intn(10); {
		case mode < 5:
			ffs.SetFault(points[rng.Intn(len(points))],
				fsio.Fault{Err: syscall.EIO, After: rng.Intn(3), Count: 1})
			faults++
		case mode < 7:
			ffs.CrashAfter(ffs.OpCount()+rng.Intn(120), rng.Intn(2) == 0)
		}
		// Concurrent reader against the current store handle; errors are
		// expected once the filesystem has crashed under it.
		if rng.Intn(3) == 0 {
			wg.Add(1)
			cur := s
			go func() {
				defer wg.Done()
				var b bytes.Buffer
				_ = cur.Snapshot(&b)
			}()
		}
		var opErr error
		if committed > 0 && rng.Intn(4) == 0 {
			_, opErr = s.Compact()
		} else {
			if doc := gen.Next(); rng.Intn(2) == 0 {
				opErr = s.Add(doc)
			} else {
				opErr = s.AddReader(strings.NewReader(doc.IndentedXML()))
			}
			if opErr == nil {
				adds++
			}
		}
		ffs.ClearFaults()
		if ffs.Crashed() || s.Degraded() != nil {
			// The "process" dies: abandon the handle without Close and
			// come back up on a fresh filesystem.
			crashes++
			s, ffs = openFresh()
			record(s)
			continue
		}
		if opErr == nil {
			record(s)
		} else if got := s.Versions(); got != committed {
			t.Fatalf("failed op changed the version count: %d -> %d", committed, got)
		}
	}
	t.Logf("soak: %d adds, %d faults injected, %d crash-restarts, %d committed versions",
		adds, faults, crashes, committed)
	if crashes == 0 || adds == 0 {
		t.Fatalf("soak exercised nothing (adds=%d crashes=%d); loosen the schedule", adds, crashes)
	}

	// Park the directory in a verified-clean state.
	_ = s.Close()
	if _, err := RepairStore(dir, spec); err != nil {
		t.Fatalf("final repair: %v", err)
	}
	r, err := CheckStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean {
		t.Fatalf("directory not clean after soak + repair: %+v", r.Problems())
	}
}
