package fsio

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCrashed is returned by every operation of a FaultFS that has hit
// its crash point: from then on the filesystem behaves as if the
// process had been killed — nothing further is applied, including the
// cleanup removes error paths normally run, so the directory is left
// exactly as a real kill would leave it.
var ErrCrashed = errors.New("fsio: simulated crash")

// ErrInjected is the default error of a triggered failpoint.
var ErrInjected = errors.New("fsio: injected fault")

// Fault configures one failpoint. The zero value (with nothing set)
// injects ErrInjected on the first hit and every hit after.
type Fault struct {
	// Err is returned instead of performing the operation. Defaults to
	// ErrInjected; use syscall.ENOSPC etc. for specific conditions.
	// When only Delay or Hold is set, the operation proceeds afterwards.
	Err error
	// Torn makes a triggered write apply only a prefix (half the bytes)
	// before returning the error — a short/torn write.
	Torn bool
	// Crash switches the whole FaultFS into the crashed state when the
	// point triggers: this and every later operation fails ErrCrashed.
	Crash bool
	// Delay is injected latency before the operation proceeds (slow
	// fsync/IO simulation). With no Err and no Crash the operation then
	// succeeds normally.
	Delay time.Duration
	// Hold parks a triggered operation until the channel is closed, then
	// lets it proceed like a Delay would; FaultFS.Held says when it has
	// arrived. Tests assert on order with it instead of sleeping.
	Hold <-chan struct{}
	// After skips the first After hits of the point before triggering.
	After int
	// Count caps how many times the point triggers; 0 = every hit once
	// triggering starts.
	Count int
}

// Op is one recorded mutating filesystem operation.
type Op struct {
	Index int    // position in the mutation trace, 0-based
	Point string // failpoint name, e.g. "keydir.rename", "segment.sync"
	Path  string
	Bytes int // payload length of write ops; 0 otherwise
}

// FaultFS wraps an FS with a failpoint registry, a crash-after-op-k
// switch, a trace of every mutating operation and, once TrackDurability
// is called, a model of what a power failure would leave of one
// directory. It is safe for concurrent use.
//
// Failpoints are named "<class>.<op>": the class is derived from the
// file name (Classify), the op is the operation kind — create, open,
// write, writeat, sync, close, rename, remove, readfile, writefile,
// stat, readdir, mkdirall; directory fsyncs are the single point
// "dir.sync". A fault registered under a bare op kind (e.g. "sync")
// matches that operation on every class.
type FaultFS struct {
	inner FS
	// Classify maps a path to its failpoint class. Defaults to
	// ClassifyArchivePath.
	Classify func(path string) string

	mu         sync.Mutex
	faults     map[string]*faultState
	trace      []Op
	mutations  int
	crashAfter int // crash once this many mutating ops applied; -1 = off
	crashTorn  bool
	crashed    bool
	held       atomic.Int32 // operations parked at a Fault.Hold

	dur *durModel // nil until TrackDurability
}

type faultState struct {
	f    Fault
	hits int
	done int // times triggered
}

// NewFaultFS wraps inner (OS when nil) with fault injection.
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OS
	}
	return &FaultFS{
		inner:      inner,
		Classify:   ClassifyArchivePath,
		faults:     map[string]*faultState{},
		crashAfter: -1,
	}
}

// ClassifyArchivePath is the default failpoint classifier, aware of the
// external archive's file names: keydir.idx → "keydir", meta.txt →
// "meta", dict.txt → "dict", seg-*.tok → "segment", tmp-* scratch
// files → "scratch". A trailing ".tmp" (the
// atomic-replace sibling) or ".part" (a replication staging file) is
// stripped first, so keydir.idx.tmp and seg-00000001.tok.part share
// the class of their target.
func ClassifyArchivePath(path string) string {
	base := strings.TrimSuffix(filepath.Base(path), ".tmp")
	base = strings.TrimSuffix(base, ".part")
	switch {
	case base == "keydir.idx":
		return "keydir"
	case base == "meta.txt":
		return "meta"
	case base == "dict.txt":
		return "dict"
	case strings.HasPrefix(base, "seg-"):
		return "segment"
	case strings.HasPrefix(base, "tmp-"):
		return "scratch"
	}
	if ext := filepath.Ext(base); ext != "" {
		return strings.TrimSuffix(base, ext)
	}
	return base
}

// SetFault registers (or replaces) the fault at a point.
func (f *FaultFS) SetFault(point string, fault Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults[point] = &faultState{f: fault}
}

// ClearFault removes the fault at a point.
func (f *FaultFS) ClearFault(point string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.faults, point)
}

// ClearFaults removes every registered fault (crash state persists).
func (f *FaultFS) ClearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = map[string]*faultState{}
}

// CrashAfter arms the crash switch: the first k mutating operations
// apply normally, the k-th (0-based) and everything after fail with
// ErrCrashed. With torn set, a data write at the crash point applies
// half its bytes first — a torn final write.
func (f *FaultFS) CrashAfter(k int, torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAfter = k
	f.crashTorn = torn
	f.crashed = false
}

// Crashed reports whether the crash point has been hit.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Ops returns a copy of the mutation trace so far.
func (f *FaultFS) Ops() []Op {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Op(nil), f.trace...)
}

// OpCount returns the number of mutating operations applied so far.
func (f *FaultFS) OpCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mutations
}

// Tears reports whether a torn crash at mutating op i (numbered as
// CrashAfter numbers them) would cut bytes short: only a write with a
// payload can be torn; a torn crash anywhere else is the untorn one.
func (f *FaultFS) Tears(i int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return i >= 0 && i < len(f.trace) && f.trace[i].Bytes > 0
}

// ResetTrace clears the mutation trace and counter (faults and crash
// arming are untouched).
func (f *FaultFS) ResetTrace() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.trace = nil
	f.mutations = 0
}

// decision is the outcome of gating one operation.
type decision struct {
	err   error
	torn  int // ≥0: apply only this prefix of a write, then return err
	delay time.Duration
	hold  <-chan struct{}
}

var mutatingKinds = map[string]bool{
	"create": true, "write": true, "writeat": true, "writefile": true,
	"rename": true, "remove": true, "sync": true, "mkdirall": true,
}

// gate decides the fate of one operation: path and kind name the
// failpoint, mutating ops advance the trace and the crash counter, n is
// the payload length of write ops (for torn-write injection).
func (f *FaultFS) gate(kind, point, path string, n int) decision {
	f.mu.Lock()
	d := decision{torn: -1}
	if f.crashed {
		f.mu.Unlock()
		return decision{err: ErrCrashed, torn: -1}
	}
	st := f.faults[point]
	if st == nil {
		st = f.faults[kind]
	}
	if st != nil {
		st.hits++
		fires := st.hits > st.f.After && (st.f.Count == 0 || st.done < st.f.Count)
		if fires {
			st.done++
			d.delay, d.hold = st.f.Delay, st.f.Hold
			switch {
			case st.f.Crash:
				f.crashed = true
				d.err = ErrCrashed
			case st.f.Err != nil:
				d.err = st.f.Err
			case !st.f.Torn && st.f.Delay == 0 && st.f.Hold == nil:
				d.err = ErrInjected
			case st.f.Torn:
				d.err = ErrInjected
			}
			if st.f.Torn && isWriteKind(kind) && d.err != nil {
				d.torn = n / 2
			}
		}
	}
	if mutatingKinds[kind] && d.err == nil {
		if f.crashAfter >= 0 && f.mutations >= f.crashAfter {
			f.crashed = true
			d.err = ErrCrashed
			if f.crashTorn && isWriteKind(kind) {
				d.torn = n / 2
			}
		} else {
			f.trace = append(f.trace, Op{Index: f.mutations, Point: point, Path: path, Bytes: n})
			f.mutations++
		}
	}
	f.mu.Unlock()
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.hold != nil {
		f.held.Add(1)
		<-d.hold
		f.held.Add(-1)
	}
	return d
}

// Held reports how many operations are parked at a Fault.Hold right now.
func (f *FaultFS) Held() int { return int(f.held.Load()) }

func isWriteKind(kind string) bool {
	return kind == "write" || kind == "writeat" || kind == "writefile"
}

func (f *FaultFS) point(kind, path string) string {
	return f.Classify(path) + "." + kind
}

// ---------------------------------------------------------------------------
// FS implementation

func (f *FaultFS) Create(name string) (File, error) {
	if d := f.gate("create", f.point("create", name), name, 0); d.err != nil {
		return nil, fmt.Errorf("create %s: %w", name, d.err)
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, path: name, dur: f.durCreate(name)}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	if d := f.gate("open", f.point("open", name), name, 0); d.err != nil {
		return nil, fmt.Errorf("open %s: %w", name, d.err)
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, path: name}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if d := f.gate("rename", f.point("rename", newpath), newpath, 0); d.err != nil {
		return fmt.Errorf("rename %s: %w", newpath, d.err)
	}
	if err := f.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.durRename(oldpath, newpath)
	return nil
}

func (f *FaultFS) Remove(name string) error {
	if d := f.gate("remove", f.point("remove", name), name, 0); d.err != nil {
		return fmt.Errorf("remove %s: %w", name, d.err)
	}
	if err := f.inner.Remove(name); err != nil {
		return err
	}
	f.durRemove(name)
	return nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if d := f.gate("readfile", f.point("readfile", name), name, 0); d.err != nil {
		return nil, fmt.Errorf("readfile %s: %w", name, d.err)
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	d := f.gate("writefile", f.point("writefile", name), name, len(data))
	if d.err != nil {
		if d.torn >= 0 {
			f.inner.WriteFile(name, data[:d.torn], perm)
			f.durCreate(name)
		}
		return fmt.Errorf("writefile %s: %w", name, d.err)
	}
	if err := f.inner.WriteFile(name, data, perm); err != nil {
		return err
	}
	f.durCreate(name)
	return nil
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if d := f.gate("stat", f.point("stat", name), name, 0); d.err != nil {
		return nil, fmt.Errorf("stat %s: %w", name, d.err)
	}
	return f.inner.Stat(name)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if d := f.gate("mkdirall", f.point("mkdirall", path), path, 0); d.err != nil {
		return fmt.Errorf("mkdirall %s: %w", path, d.err)
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if d := f.gate("readdir", f.point("readdir", name), name, 0); d.err != nil {
		return nil, fmt.Errorf("readdir %s: %w", name, d.err)
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) SyncDir(dir string) error {
	if d := f.gate("sync", "dir.sync", dir, 0); d.err != nil {
		return fmt.Errorf("syncdir %s: %w", dir, d.err)
	}
	if err := f.inner.SyncDir(dir); err != nil {
		return err
	}
	f.durSyncDir(dir)
	return nil
}

// ---------------------------------------------------------------------------
// faultFile

type faultFile struct {
	fs   *FaultFS
	f    File
	path string
	dur  *durFile // the file's identity in the power-loss model; nil when untracked
}

func (ff *faultFile) Name() string { return ff.path }

func (ff *faultFile) Read(p []byte) (int, error) {
	if d := ff.fs.gate("read", ff.fs.point("read", ff.path), ff.path, 0); d.err != nil {
		return 0, fmt.Errorf("read %s: %w", ff.path, d.err)
	}
	return ff.f.Read(p)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if d := ff.fs.gate("readat", ff.fs.point("readat", ff.path), ff.path, 0); d.err != nil {
		return 0, fmt.Errorf("readat %s: %w", ff.path, d.err)
	}
	return ff.f.ReadAt(p, off)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	if d := ff.fs.gate("seek", ff.fs.point("seek", ff.path), ff.path, 0); d.err != nil {
		return 0, fmt.Errorf("seek %s: %w", ff.path, d.err)
	}
	return ff.f.Seek(offset, whence)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	d := ff.fs.gate("write", ff.fs.point("write", ff.path), ff.path, len(p))
	if d.err != nil {
		n := 0
		if d.torn > 0 {
			n, _ = ff.f.Write(p[:d.torn])
		}
		return n, fmt.Errorf("write %s: %w", ff.path, d.err)
	}
	return ff.f.Write(p)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	d := ff.fs.gate("writeat", ff.fs.point("writeat", ff.path), ff.path, len(p))
	if d.err != nil {
		n := 0
		if d.torn > 0 {
			n, _ = ff.f.WriteAt(p[:d.torn], off)
		}
		return n, fmt.Errorf("writeat %s: %w", ff.path, d.err)
	}
	return ff.f.WriteAt(p, off)
}

func (ff *faultFile) Sync() error {
	if d := ff.fs.gate("sync", ff.fs.point("sync", ff.path), ff.path, 0); d.err != nil {
		return fmt.Errorf("sync %s: %w", ff.path, d.err)
	}
	if err := ff.f.Sync(); err != nil {
		return err
	}
	return ff.fs.durSync(ff)
}

// Close always closes the underlying handle — a crashed FaultFS must
// not leak descriptors across a large crash matrix — but reports the
// crash so callers cannot mistake the close for a clean flush.
func (ff *faultFile) Close() error {
	d := ff.fs.gate("close", ff.fs.point("close", ff.path), ff.path, 0)
	cerr := ff.f.Close()
	if d.err != nil {
		return fmt.Errorf("close %s: %w", ff.path, d.err)
	}
	return cerr
}
