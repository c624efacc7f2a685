package xarch

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"xarch/internal/extmem"
	"xarch/internal/fsio"
)

// readsAnswerAs requires every read of ext to answer exactly as mem, which
// holds n versions: the version count, each version's bytes, History,
// Select through the index and below the records, and the metadata reads
// that used to queue behind the store lock.
func readsAnswerAs(t *testing.T, ext *ExtStore, mem Store, n int) {
	t.Helper()
	if got := ext.Versions(); got != n {
		t.Errorf("Versions() = %d, want %d", got, n)
	}
	for v := 1; v <= n; v++ {
		var got, want bytes.Buffer
		if err := ext.WriteVersion(v, &got); err != nil {
			t.Errorf("WriteVersion(%d): %v", v, err)
		}
		if err := mem.WriteVersion(v, &want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("version %d differs from the in-memory store's", v)
		}
	}
	if err := ext.WriteVersion(n+1, &bytes.Buffer{}); !errors.Is(err, ErrNoSuchVersion) {
		t.Errorf("WriteVersion(%d) = %v, want ErrNoSuchVersion", n+1, err)
	}
	for _, sel := range []string{"/db/dept[name=d1]", "/db/dept[name=d2]/emp[fn=F1,ln=L1]", "/db/dept[name=d4]"} {
		got, gerr := ext.History(sel)
		want, werr := mem.History(sel)
		if (gerr == nil) != (werr == nil) || (gerr == nil && got.String() != want.String()) {
			t.Errorf("History(%s) = %v, %v; the in-memory store says %v, %v", sel, got, gerr, want, werr)
		}
	}
	for _, expr := range slices.Concat(selectLeaves, selectDepth3) {
		if got, want := mustSelect(t, ext, expr), mustSelect(t, mem, expr); got != want {
			t.Errorf("Select(%q):\n%s\nthe in-memory store says:\n%s", expr, got, want)
		}
	}
	if ss, err := ext.StorageStats(); err != nil || ss.Segments == 0 {
		t.Errorf("StorageStats() = %+v, %v", ss, err)
	}
	if size, err := ext.CompressedSize(); err != nil || size <= 0 {
		t.Errorf("CompressedSize() = %d, %v", size, err)
	}
	if _, err := ext.CompactionPlan(); err != nil {
		t.Errorf("CompactionPlan(): %v", err)
	}
	if st, err := ext.Stats(); err != nil || st.Versions != n {
		t.Errorf("Stats() = %+v, %v; want %d versions", st, err, n)
	}
	if err := ext.Degraded(); err != nil {
		t.Errorf("Degraded() = %v", err)
	}
	if err := ext.CompactionErr(); err != nil {
		t.Errorf("CompactionErr() = %v", err)
	}
	ext.SortRuns()
}

// heldAt runs write with its first op at point parked, calls beside while
// it is, requires that write has not returned by then — order, not
// duration — and then lets it finish.
func heldAt(t *testing.T, ffs *fsio.FaultFS, point, name string, write func() error, beside func()) {
	t.Helper()
	release := make(chan struct{})
	ffs.SetFault(point, fsio.Fault{Hold: release, Count: 1})
	defer ffs.ClearFault(point)
	done := make(chan error, 1)
	go func() { done <- write() }()
	for ffs.Held() == 0 {
		select {
		case err := <-done:
			t.Fatalf("%s returned (%v) without reaching %s", name, err, point)
		default:
			runtime.Gosched()
		}
	}
	beside()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) while %s was held", name, err, point)
	default:
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestReadersThroughHeldCommit: with an add parked at the commit point
// (the keydir.idx rename) every read returns, and returns the generation
// committed before it — the answers of an in-memory store at n versions —
// before AddBatch does; once it has, every read answers at n+1. The same
// for a Compact, whose commit changes the layout and no answer.
func TestReadersThroughHeldCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	spec := mustSelectSpec(t)
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(nil)
	// A segment target smaller than any department: one file per record,
	// which the default target below sees as one coalesce run.
	ext, err := OpenStore(dir, spec, WithFS(ffs), WithSegmentTargetSize(64))
	if err != nil {
		t.Fatal(err)
	}
	mem := NewStore(spec)
	defer mem.Close()
	const n = 3
	for v := 0; v < n; v++ {
		src := selectVersion(rng)
		addString(t, ext, src)
		addString(t, mem, src)
	}
	next := selectVersion(rng)
	heldAt(t, ffs, "keydir.rename", "AddBatch",
		func() error { return ext.AddReader(strings.NewReader(next)) },
		func() { readsAnswerAs(t, ext, mem, n) })
	addString(t, mem, next)
	readsAnswerAs(t, ext, mem, n+1)

	if err := ext.Close(); err != nil {
		t.Fatal(err)
	}
	if ext, err = OpenStore(dir, spec, WithFS(ffs)); err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	before, _ := ext.StorageStats()
	heldAt(t, ffs, "keydir.rename", "Compact",
		func() error {
			st, err := ext.Compact()
			if err == nil && st.Executed == 0 {
				err = errors.New("nothing to compact")
			}
			return err
		},
		func() {
			readsAnswerAs(t, ext, mem, n+1)
			if ss, _ := ext.StorageStats(); ss.Segments != before.Segments || ss.Generation != before.Generation {
				t.Errorf("layout beside the held compaction: %+v, was %+v", ss, before)
			}
		})
	readsAnswerAs(t, ext, mem, n+1)
	if ss, _ := ext.StorageStats(); ss.Segments >= before.Segments || ss.Generation != before.Generation+1 || ss.PinnedGenerations != 0 {
		t.Errorf("after the compaction: %+v, was %+v", ss, before)
	}
}

// TestSegmentsBesideAdd: Segments checksums the whole archive, so it must
// neither hold up an Add nor lose its files to the Add's sweep. With the
// walk parked at its second segment file an Add that rewrites the layout
// completes, and the walk still finds every file of the generation it
// started on, checksums intact.
func TestSegmentsBesideAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ffs := fsio.NewFaultFS(nil)
	s, err := OpenStore(t.TempDir(), mustSelectSpec(t), WithFS(ffs), WithSegmentTargetSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addString(t, s, selectVersion(rng))
	addString(t, s, selectVersion(rng))
	before, _ := s.StorageStats()
	if before.Segments < 2 {
		t.Fatalf("layout has %d segments; the walk needs a second one to park at", before.Segments)
	}

	release := make(chan struct{})
	ffs.SetFault("segment.open", fsio.Fault{Hold: release, After: 1, Count: 1})
	walked := make(chan []extmem.SegmentInfo, 1)
	go func() {
		infos, err := s.Segments()
		if err != nil {
			t.Errorf("Segments(): %v", err)
		}
		walked <- infos
	}()
	for ffs.Held() == 0 {
		runtime.Gosched()
	}
	addString(t, s, selectVersion(rng))
	if after, _ := s.StorageStats(); after.Generation != before.Generation+1 || after.PinnedGenerations != 1 {
		t.Errorf("beside the held walk: %+v, was %+v; want one more generation and the walk's pinned", after, before)
	}
	select {
	case <-walked:
		t.Fatal("Segments returned while its open was held")
	default:
	}
	close(release)
	infos := <-walked
	if len(infos) != before.Segments {
		t.Errorf("walk listed %d segments, the generation it started on has %d", len(infos), before.Segments)
	}
	for _, in := range infos {
		if !in.CRCOK {
			t.Errorf("segment %s: checksum not verified (swept under the walk?)", in.File)
		}
	}
	if after, _ := s.StorageStats(); after.PinnedGenerations != 0 {
		t.Errorf("%d generations still pinned after the walk", after.PinnedGenerations)
	}
}
