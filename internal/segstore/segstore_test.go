package segstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xarch/internal/extmem"
	"xarch/internal/faulttest"
	"xarch/internal/fsio"
)

var ctx = context.Background()

// testBlob fabricates a segment-shaped blob: dataOff header bytes
// followed by the payload, with the Check the key directory would
// record for it.
func testBlob(dataOff int, payload []byte) ([]byte, Check) {
	blob := append(bytes.Repeat([]byte{0xAA}, dataOff), payload...)
	return blob, Check{
		Size:    int64(len(blob)),
		DataOff: int64(dataOff),
		Payload: int64(len(payload)),
		CRC:     crc32.ChecksumIEEE(payload),
	}
}

func openFrom(data []byte) func() (io.ReadCloser, error) {
	return func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(data)), nil
	}
}

func TestLocalRoundtrip(t *testing.T) {
	l, err := NewLocal(nil, filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Keydir(ctx); !errors.Is(err, ErrNoKeydir) {
		t.Fatalf("fresh store Keydir = %v, want ErrNoKeydir", err)
	}
	blob, c := testBlob(16, []byte("the payload bytes"))
	if err := l.Put(ctx, "seg-00000001.tok", c, openFrom(blob)); err != nil {
		t.Fatalf("put: %v", err)
	}
	rc, size, err := l.Get(ctx, "seg-00000001.tok")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if size != c.Size || !bytes.Equal(got, blob) {
		t.Fatalf("get returned %d bytes, want the %d put", len(got), len(blob))
	}
	if has, err := l.Has(ctx, "seg-00000001.tok", c); err != nil || !has {
		t.Fatalf("Has = %v, %v; want true", has, err)
	}
	// A reborn segment id with different content must NOT verify.
	_, c2 := testBlob(16, []byte("different payload"))
	if has, err := l.Has(ctx, "seg-00000001.tok", c2); err != nil || has {
		t.Fatalf("Has with foreign check = %v, %v; want false", has, err)
	}
	names, err := l.List(ctx)
	if err != nil || len(names) != 1 || names[0] != "seg-00000001.tok" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if _, _, err := l.Get(ctx, "seg-00000099.tok"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get absent = %v, want ErrNotExist", err)
	}
	if err := l.Delete(ctx, "seg-00000001.tok"); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(ctx, "seg-00000001.tok"); err != nil {
		t.Fatalf("deleting an absent blob: %v", err)
	}
}

func TestLocalPutVerifyFailure(t *testing.T) {
	dir := t.TempDir()
	l, err := NewLocal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, c := testBlob(8, []byte("payload"))
	c.CRC++ // corrupt the expectation
	err = l.Put(ctx, "seg-00000001.tok", c, openFrom(blob))
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("put with wrong CRC = %v, want ErrVerify", err)
	}
	if _, transient := IsTransient(err); !transient {
		t.Fatalf("verify failure must be transient (retry re-streams): %v", err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		t.Errorf("failed put left %s behind", e.Name())
	}
}

func TestLocalPutSourceError(t *testing.T) {
	dir := t.TempDir()
	l, err := NewLocal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, c := testBlob(8, bytes.Repeat([]byte("x"), 4096))
	boom := errors.New("stream died")
	err = l.Put(ctx, "seg-00000001.tok", c, func() (io.ReadCloser, error) {
		return io.NopCloser(io.MultiReader(
			bytes.NewReader(blob[:len(blob)/2]),
			&errReader{err: boom},
		)), nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("put with dying source = %v, want the source error", err)
	}
	if _, transient := IsTransient(err); !transient {
		t.Fatalf("source failure must be transient: %v", err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		t.Errorf("failed put left %s behind", e.Name())
	}
}

type errReader struct{ err error }

func (r *errReader) Read([]byte) (int, error) { return 0, r.err }

// TestLocalCommitOrdering asserts the replica commit protocol on the
// filesystem trace: dict and meta land before the keydir, and the
// keydir's rename is the final mutating operation — the commit point.
func TestLocalCommitOrdering(t *testing.T) {
	ffs := fsio.NewFaultFS(nil)
	l, err := NewLocal(ffs, filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	b := &Bundle{Keydir: []byte("KD"), Dict: []byte("DICT"), Meta: []byte("META")}
	ffs.ResetTrace()
	if err := l.CommitKeydir(ctx, b); err != nil {
		t.Fatal(err)
	}
	var renames []string
	for _, op := range ffs.Ops() {
		if strings.HasSuffix(op.Point, ".rename") {
			renames = append(renames, op.Point)
		}
	}
	want := []string{"dict.rename", "meta.rename", "keydir.rename"}
	if fmt.Sprint(renames) != fmt.Sprint(want) {
		t.Fatalf("commit renames = %v, want %v", renames, want)
	}
	// The engine's staged commit: a barrier directory fsync before the
	// keydir rename, the ack after it, and no other.
	var tail []string
	for _, op := range ffs.Ops() {
		if op.Point == "dir.sync" || op.Point == "keydir.rename" {
			tail = append(tail, op.Point)
		}
	}
	if want := []string{"dir.sync", "keydir.rename", "dir.sync"}; fmt.Sprint(tail) != fmt.Sprint(want) {
		t.Fatalf("directory fsyncs around the commit point = %v, want %v", tail, want)
	}
	if ops := ffs.Ops(); ops[len(ops)-1].Point != "dir.sync" {
		t.Fatalf("the ack directory fsync is not the last op: %v", ops[len(ops)-1])
	}
}

// TestLocalCommitCrashMatrix crashes CommitKeydir after every mutating
// op and checks the directory under every outage mode: the keydir must
// hold exactly the old or the new bytes — never a torn hybrid — and a new
// keydir only beside the dict and meta it was committed with.
func TestLocalCommitCrashMatrix(t *testing.T) {
	oldB := &Bundle{Keydir: []byte("OLD-KEYDIR"), Dict: []byte("OLD-DICT"), Meta: []byte("OLD-META")}
	newB := &Bundle{Keydir: []byte("NEW-KEYDIR-LONGER"), Dict: []byte("NEW-DICT"), Meta: []byte("NEW-META")}
	faulttest.Matrix{
		Setup: func(t *testing.T) faulttest.Run {
			dir := filepath.Join(t.TempDir(), "s")
			l, err := NewLocal(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.CommitKeydir(ctx, oldB); err != nil {
				t.Fatal(err)
			}
			ffs := faulttest.Tracked(t, dir)
			l = &Local{fs: ffs, dir: dir}
			return faulttest.Run{Faults: &ffs.Failpoints, Disk: ffs, Op: func() error { return l.CommitKeydir(ctx, newB) }}
		},
		Modes: faulttest.AllModes,
		Check: func(t *testing.T, p faulttest.Point, dir string) bool {
			if p.K >= 0 && p.Err == nil {
				t.Errorf("%v: commit succeeded through a crash", p)
			}
			files := faulttest.Files(t, dir)
			switch kd := files[extmem.KeydirFileName]; {
			case bytes.Equal(kd, oldB.Keydir):
				return false
			case !bytes.Equal(kd, newB.Keydir):
				t.Errorf("%v: keydir is neither the old nor the new bytes: %q", p, kd)
			case !bytes.Equal(files[extmem.DictFileName], newB.Dict) || !bytes.Equal(files[extmem.MetaFileName], newB.Meta):
				t.Errorf("%v: the new keydir committed beside dict %q and meta %q", p, files[extmem.DictFileName], files[extmem.MetaFileName])
			}
			return true
		},
		MinOps: 10,
	}.Run(t)
}

func TestValidBlobName(t *testing.T) {
	valid := []string{"seg-00000001.tok", "blob", "a.b"}
	invalid := []string{"", ".", "..", "a/b", `a\b`, "seg-1.tok.part", "x.tmp",
		"keydir.idx", "dict.txt", "meta.txt"}
	for _, n := range valid {
		if !ValidBlobName(n) {
			t.Errorf("ValidBlobName(%q) = false, want true", n)
		}
	}
	for _, n := range invalid {
		if ValidBlobName(n) {
			t.Errorf("ValidBlobName(%q) = true, want false", n)
		}
	}
}

// noSleep is a retry policy that runs the schedule without wall-clock
// delay, recording every computed backoff.
func noSleep(p RetryPolicy, delays *[]time.Duration) RetryPolicy {
	p.Sleep = func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
	return p
}

func TestRetryScheduleGrowthAndCap(t *testing.T) {
	var delays []time.Duration
	p := noSleep(RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    1 * time.Second,
		Rand:        func() float64 { return 0 }, // jitter floor: delay = d/2
	}, &delays)
	err := p.Do(ctx, "op", func(context.Context) error {
		return MarkTransient(errors.New("flaky"), 0)
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	// Raw schedule 100, 200, 400, 800, 1000(cap); equal-jitter with
	// Rand=0 halves each.
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 400 * time.Millisecond, 500 * time.Millisecond}
	if fmt.Sprint(delays) != fmt.Sprint(want) {
		t.Fatalf("delays = %v, want %v", delays, want)
	}
}

func TestRetryJitterBounds(t *testing.T) {
	for _, r := range []float64{0, 0.25, 0.5, 0.999} {
		p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second,
			Rand: func() float64 { return r }}.withDefaults()
		d := p.delay(1, 0)
		if d < 50*time.Millisecond || d >= 100*time.Millisecond {
			t.Errorf("delay(1) with rand=%v = %v, want in [50ms, 100ms)", r, d)
		}
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	var delays []time.Duration
	p := noSleep(RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Rand:        func() float64 { return 0.5 },
	}, &delays)
	hint := 2 * time.Second
	p.Do(ctx, "op", func(context.Context) error {
		return MarkTransient(errors.New("backpressure"), hint)
	})
	if len(delays) != 1 {
		t.Fatalf("got %d sleeps, want 1", len(delays))
	}
	// The hint overrides the (much smaller) computed backoff as a floor,
	// jittered upward: hint + 0.5*hint/2.
	if want := hint + hint/4; delays[0] != want {
		t.Fatalf("delay = %v, want %v (hint floor + upward jitter)", delays[0], want)
	}
	if delays[0] < hint {
		t.Fatalf("delay %v undercuts the server's Retry-After %v", delays[0], hint)
	}
}

func TestRetryPermanentErrorFailsFast(t *testing.T) {
	var delays []time.Duration
	calls := 0
	p := noSleep(RetryPolicy{MaxAttempts: 5}, &delays)
	boom := errors.New("permanent")
	err := p.Do(ctx, "op", func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 || len(delays) != 0 {
		t.Fatalf("permanent error: err=%v calls=%d sleeps=%d; want the error after exactly 1 call", err, calls, len(delays))
	}
}

// TestRetryNoNesting asserts layered policies do not multiply attempts:
// an error already wrapped as retries-exhausted by an inner Do is final
// for the outer one, even though its root cause is transient.
func TestRetryNoNesting(t *testing.T) {
	var delays []time.Duration
	inner := noSleep(RetryPolicy{MaxAttempts: 3}, &delays)
	outer := noSleep(RetryPolicy{MaxAttempts: 3}, &delays)
	innerCalls := 0
	err := outer.Do(ctx, "outer", func(context.Context) error {
		return inner.Do(ctx, "inner", func(context.Context) error {
			innerCalls++
			return MarkTransient(errors.New("flaky"), 0)
		})
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if innerCalls != 3 {
		t.Fatalf("inner op ran %d times, want 3 (no attempt multiplication)", innerCalls)
	}
}

func TestRetryExhaustedKeepsRootCause(t *testing.T) {
	var delays []time.Duration
	p := noSleep(RetryPolicy{MaxAttempts: 2}, &delays)
	err := p.Do(ctx, "op", func(context.Context) error {
		return MarkTransient(fmt.Errorf("wrapping: %w", ErrVerify), 0)
	})
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrVerify) {
		t.Fatalf("err = %v; want both ErrRetriesExhausted and the root cause Is-able", err)
	}
}

func TestRetrySleepCancellation(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{
		MaxAttempts: 5,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			cancel()
			<-ctx.Done()
			return ctx.Err()
		},
	}
	err := p.Do(cctx, "op", func(context.Context) error {
		return MarkTransient(errors.New("flaky"), 0)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
