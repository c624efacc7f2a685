package fsio

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
)

func TestClassifyArchivePath(t *testing.T) {
	cases := map[string]string{
		"/a/b/keydir.idx":       "keydir",
		"/a/b/keydir.idx.tmp":   "keydir",
		"meta.txt":              "meta",
		"meta.txt.tmp":          "meta",
		"dict.txt":              "dict",
		"/x/seg-000042.tok":     "segment",
		"/x/seg-000042.tok.tmp": "segment",
		"/x/tmp-sort-run-3":     "scratch",
		"/x/other.dat":          "other",
		"/x/README":             "README",
	}
	for path, want := range cases {
		if got := ClassifyArchivePath(path); got != want {
			t.Errorf("ClassifyArchivePath(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestFailpointTrigger(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	boom := errors.New("boom")
	ffs.SetFault("keydir.rename", Fault{Err: boom})

	src := filepath.Join(dir, "keydir.idx.tmp")
	if err := ffs.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := ffs.Rename(src, filepath.Join(dir, "keydir.idx"))
	if !errors.Is(err, boom) {
		t.Fatalf("keydir rename: got %v, want boom", err)
	}
	// Other classes are unaffected.
	other := filepath.Join(dir, "meta.txt.tmp")
	if err := ffs.WriteFile(other, []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Rename(other, filepath.Join(dir, "meta.txt")); err != nil {
		t.Fatalf("meta rename should pass: %v", err)
	}
	// Clearing the fault restores the point.
	ffs.ClearFault("keydir.rename")
	if err := ffs.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Rename(src, filepath.Join(dir, "keydir.idx")); err != nil {
		t.Fatalf("after ClearFault: %v", err)
	}
}

func TestFailpointDefaultAndENOSPC(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.SetFault("segment.create", Fault{})
	_, err := ffs.Create(filepath.Join(dir, "seg-000001.tok"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("zero-value fault: got %v, want ErrInjected", err)
	}
	ffs.ClearFaults()
	ffs.SetFault("segment.write", Fault{Err: syscall.ENOSPC})
	f, err := ffs.Create(filepath.Join(dir, "seg-000002.tok"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("data")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("got %v, want ENOSPC", err)
	}
}

func TestFailpointBareKindMatchesAllClasses(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.SetFault("sync", Fault{})

	f, err := ffs.Create(filepath.Join(dir, "seg-000001.tok"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("file sync: got %v, want ErrInjected", err)
	}
	f.Close()
	if err := ffs.SyncDir(dir); !errors.Is(err, ErrInjected) {
		t.Fatalf("dir sync: got %v, want ErrInjected", err)
	}
}

func TestFailpointAfterAndCount(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	// Skip the first hit, then trigger exactly twice.
	ffs.SetFault("scratch.create", Fault{After: 1, Count: 2})
	var errs []error
	for i := 0; i < 4; i++ {
		f, err := ffs.Create(filepath.Join(dir, "tmp-run"))
		if f != nil {
			f.Close()
		}
		errs = append(errs, err)
	}
	want := []bool{false, true, true, false}
	for i, e := range errs {
		if (e != nil) != want[i] {
			t.Errorf("hit %d: err=%v, want fired=%v", i, e, want[i])
		}
	}
}

func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.SetFault("segment.write", Fault{Torn: true})
	f, err := ffs.Create(filepath.Join(dir, "seg-000001.tok"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: got err %v", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write applied %d bytes, want %d", n, len(payload)/2)
	}
	f.Close()
	got, _ := os.ReadFile(filepath.Join(dir, "seg-000001.tok"))
	if string(got) != "01234" {
		t.Fatalf("on disk %q, want the half prefix", got)
	}
}

func TestCrashFault(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.SetFault("keydir.rename", Fault{Crash: true})
	if err := ffs.WriteFile(filepath.Join(dir, "a"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := ffs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "keydir.idx"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash point: got %v, want ErrCrashed", err)
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() = false after crash point")
	}
	// Everything fails from here on, reads and cleanup removes included.
	if _, err := ffs.ReadFile(filepath.Join(dir, "a")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash: got %v, want ErrCrashed", err)
	}
	if err := ffs.Remove(filepath.Join(dir, "a")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("remove after crash: got %v, want ErrCrashed", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a")); err != nil {
		t.Fatal("cleanup remove went through despite the crash")
	}
}

func TestCrashAfterK(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.CrashAfter(3, false)
	var err error
	applied := 0
	for i := 0; i < 5; i++ {
		err = ffs.WriteFile(filepath.Join(dir, "f"), []byte{byte(i)}, 0o644)
		if err != nil {
			break
		}
		applied++
	}
	if applied != 3 {
		t.Fatalf("%d ops applied before crash, want 3", applied)
	}
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("op 3: got %v, want ErrCrashed", err)
	}
	if got := ffs.OpCount(); got != 3 {
		t.Fatalf("OpCount() = %d, want 3 (the crashed op is not applied)", got)
	}
	ops := ffs.Ops()
	if len(ops) != 3 {
		t.Fatalf("trace has %d ops, want 3", len(ops))
	}
	for i, op := range ops {
		if op.Index != i || op.Point != "f.writefile" || op.Bytes != 1 {
			t.Fatalf("op %d = %+v", i, op)
		}
	}
}

func TestCrashAfterTorn(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.CrashAfter(0, true)
	f := filepath.Join(dir, "seg-000001.tok")
	if err := ffs.WriteFile(f, []byte("0123456789"), 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("got %v, want ErrCrashed", err)
	}
	got, _ := os.ReadFile(f)
	if string(got) != "01234" {
		t.Fatalf("crash-torn write left %q, want the half prefix", got)
	}
}

func TestTraceRecordsMutationsOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	p := filepath.Join(dir, "seg-000001.tok")
	if err := ffs.WriteFile(p, []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ffs.ReadFile(p); err != nil {
		t.Fatal(err)
	}
	if _, err := ffs.Stat(p); err != nil {
		t.Fatal(err)
	}
	if _, err := ffs.ReadDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Remove(p); err != nil {
		t.Fatal(err)
	}
	ops := ffs.Ops()
	if len(ops) != 2 {
		t.Fatalf("trace %v: want exactly the writefile and the remove", ops)
	}
	if ops[0].Point != "segment.writefile" || ops[1].Point != "segment.remove" {
		t.Fatalf("trace points %q, %q", ops[0].Point, ops[1].Point)
	}
	ffs.ResetTrace()
	if ffs.OpCount() != 0 || len(ffs.Ops()) != 0 {
		t.Fatal("ResetTrace left state behind")
	}
}

func TestDelayOnlyFaultProceeds(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.SetFault("meta.writefile", Fault{Delay: 1}) // 1ns: just exercise the path
	p := filepath.Join(dir, "meta.txt")
	if err := ffs.WriteFile(p, []byte("m"), 0o644); err != nil {
		t.Fatalf("delay-only fault must not fail the op: %v", err)
	}
	if got, _ := os.ReadFile(p); string(got) != "m" {
		t.Fatal("delayed write not applied")
	}
}

// A Hold parks the operation, visibly, until the channel closes; then the
// operation applies as if nothing had been injected.
func TestHoldParksUntilReleased(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	release := make(chan struct{})
	ffs.SetFault("meta.writefile", Fault{Hold: release, Count: 1})
	p := filepath.Join(dir, "meta.txt")
	done := make(chan error, 1)
	go func() { done <- ffs.WriteFile(p, []byte("m"), 0o644) }()
	for ffs.Held() == 0 {
		runtime.Gosched()
	}
	if _, err := os.Stat(p); err == nil {
		t.Fatal("held write already applied")
	}
	select {
	case err := <-done:
		t.Fatalf("held write returned before release: %v", err)
	default:
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("hold-only fault must not fail the op: %v", err)
	}
	if got, _ := os.ReadFile(p); string(got) != "m" || ffs.Held() != 0 {
		t.Fatalf("after release: file %q, held %d", got, ffs.Held())
	}
}

// replaceFile is the atomic-replace idiom with each durability step
// optional, so the power-loss tests can leave exactly one of them out.
func replaceFile(t *testing.T, ffs *FaultFS, dir, name, content string, syncFile, syncDir bool) {
	t.Helper()
	tmp := filepath.Join(dir, name+".tmp")
	f, err := ffs.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if syncFile {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Rename(tmp, filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
	if syncDir {
		if err := ffs.SyncDir(dir); err != nil {
			t.Fatal(err)
		}
	}
}

// powerLoss returns the files a power failure leaves, by name.
func powerLoss(t *testing.T, ffs *FaultFS, mode PowerLossMode) map[string]string {
	t.Helper()
	dst := t.TempDir()
	if err := ffs.PowerLoss(dst, mode); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dst)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

func trackedDir(t *testing.T, files map[string]string) (*FaultFS, string) {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ffs := NewFaultFS(nil)
	if err := ffs.TrackDurability(dir); err != nil {
		t.Fatal(err)
	}
	return ffs, dir
}

// A replace that pays every sync survives both outages, and leaves the
// untouched neighbour alone.
func TestPowerLossKeepsWhatWasSynced(t *testing.T) {
	ffs, dir := trackedDir(t, map[string]string{"a": "old", "b": "keep"})
	replaceFile(t, ffs, dir, "a", "new", true, true)
	for _, mode := range []PowerLossMode{PowerLossStrict, PowerLossNamesAhead, PowerLossLastNameOnly} {
		got := powerLoss(t, ffs, mode)
		if len(got) != 2 || got["a"] != "new" || got["b"] != "keep" {
			t.Errorf("%v: got %q, want a=new b=keep", mode, got)
		}
	}
	// A remove is a name change like any other: durable at the next SyncDir.
	if err := ffs.Remove(filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	if got := powerLoss(t, ffs, PowerLossStrict); got["b"] != "keep" {
		t.Errorf("strict: unsynced remove was durable: %q", got)
	}
	if got := powerLoss(t, ffs, PowerLossNamesAhead); len(got) != 1 {
		t.Errorf("names-ahead: removed file came back: %q", got)
	}
}

// Negative control: rename without fsync of the file. If the names reach
// the disk ahead of the data, the new name holds nothing.
func TestPowerLossRenameWithoutFsync(t *testing.T) {
	ffs, dir := trackedDir(t, map[string]string{"a": "old"})
	replaceFile(t, ffs, dir, "a", "new", false, true)
	if got := powerLoss(t, ffs, PowerLossNamesAhead); len(got) != 1 || got["a"] != "" {
		t.Errorf("names-ahead: got %q, want an empty a (the model forgave a missing fsync)", got)
	}
}

// Negative control: no fsync of the directory after the rename. The name
// still points at the old file.
func TestPowerLossMissingSyncDir(t *testing.T) {
	ffs, dir := trackedDir(t, map[string]string{"a": "old"})
	replaceFile(t, ffs, dir, "a", "new", true, false)
	if got := powerLoss(t, ffs, PowerLossStrict); len(got) != 1 || got["a"] != "old" {
		t.Errorf("strict: got %q, want a=old (the model forgave a missing SyncDir)", got)
	}
	if got := powerLoss(t, ffs, PowerLossNamesAhead); got["a"] != "new" {
		t.Errorf("names-ahead: got %q, want a=new", got)
	}
}

// Negative control: no SyncDir between a file taking its name and the
// rename that commits to it. If only the later rename reaches the disk,
// the commit names a file that is not there.
func TestPowerLossMissingBarrier(t *testing.T) {
	ffs, dir := trackedDir(t, map[string]string{"commit": "old"})
	replaceFile(t, ffs, dir, "data", "d", true, false)
	replaceFile(t, ffs, dir, "commit", "new: see data", true, false)
	got := powerLoss(t, ffs, PowerLossLastNameOnly)
	if _, ok := got["data"]; ok || got["commit"] != "new: see data" {
		t.Errorf("last-name-only: got %q, want the new commit without data (the model forgave a missing barrier)", got)
	}
	// With the barrier, the same outage finds both.
	ffs, dir = trackedDir(t, map[string]string{"commit": "old"})
	replaceFile(t, ffs, dir, "data", "d", true, true)
	replaceFile(t, ffs, dir, "commit", "new: see data", true, false)
	if got := powerLoss(t, ffs, PowerLossLastNameOnly); got["data"] != "d" || got["commit"] != "new: see data" {
		t.Errorf("last-name-only after a barrier: got %q", got)
	}
}

// A process kill loses nothing the kernel held: bytes never synced, and
// names made and removed since the last SyncDir, all survive it.
func TestProcessKillKeepsWhatTheKernelHeld(t *testing.T) {
	ffs, dir := trackedDir(t, map[string]string{"a": "old", "b": "removed"})
	replaceFile(t, ffs, dir, "a", "new", false, false)
	if err := ffs.Remove(filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	if err := ffs.WriteFile(filepath.Join(dir, "c"), []byte("unsynced"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := powerLoss(t, ffs, ProcessKill); len(got) != 2 || got["a"] != "new" || got["c"] != "unsynced" {
		t.Errorf("process kill: got %q, want a=new c=unsynced", got)
	}
	// The same moment as a power failure keeps none of it.
	if got := powerLoss(t, ffs, PowerLossStrict); len(got) != 2 || got["a"] != "old" || got["b"] != "removed" {
		t.Errorf("strict: got %q, want a=old b=removed", got)
	}
}

// Only an operation that moves bytes can be torn.
func TestTearsOnlyWrites(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	p := filepath.Join(dir, "seg-000001.tok")
	if err := ffs.WriteFile(p, []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Remove(p); err != nil {
		t.Fatal(err)
	}
	if !ffs.Tears(0) || ffs.Tears(1) || ffs.Tears(2) {
		t.Errorf("Tears = %v %v %v, want the write only", ffs.Tears(0), ffs.Tears(1), ffs.Tears(2))
	}
}
