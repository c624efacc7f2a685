package fsio

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// FaultFS wraps an FS with the failpoint registry, its crash switch
// and its trace of every mutating operation, plus what is the disk's
// own: torn writes, Hold and, once TrackDurability is called, a model of
// what a power failure would leave of one directory. It is safe for
// concurrent use.
//
// Failpoints are named "<class>.<op>": the class is derived from the
// file name (Classify), the op is the operation kind — create, open,
// write, writeat, sync, close, rename, remove, readfile, writefile,
// stat, readdir, mkdirall; directory fsyncs are the single point
// "dir.sync". A fault registered under a bare op kind (e.g. "sync")
// matches that operation on every class.
type FaultFS struct {
	Failpoints
	inner FS
	// Classify maps a path to its failpoint class. Defaults to
	// ClassifyArchivePath.
	Classify func(path string) string

	held atomic.Int32 // operations parked at a Fault.Hold
	dur  *durModel    // nil until TrackDurability; guarded by mu
}

// NewFaultFS wraps inner (OS when nil) with fault injection.
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OS
	}
	return &FaultFS{inner: inner, Classify: ClassifyArchivePath}
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

var mutatingKinds = map[string]bool{
	"create": true, "write": true, "writeat": true, "writefile": true,
	"rename": true, "remove": true, "sync": true, "mkdirall": true,
}

// gate decides the fate of one operation of kind on path; n is the
// payload length of write ops.
func (f *FaultFS) gate(kind, path string, n int) Decision {
	return f.hold(f.Gate(kind, Op{Point: f.Classify(path) + "." + kind, Path: path, Bytes: n}, mutatingKinds[kind]))
}

// hold parks an operation at a triggered Fault.Hold until it is released.
func (f *FaultFS) hold(d Decision) Decision {
	if d.Hold != nil {
		f.held.Add(1)
		<-d.Hold
		f.held.Add(-1)
	}
	return d
}

// Held reports how many operations are parked at a Fault.Hold right now.
func (f *FaultFS) Held() int { return int(f.held.Load()) }

// ---------------------------------------------------------------------------
// FS implementation

func (f *FaultFS) Create(name string) (File, error) {
	if d := f.gate("create", name, 0); d.Err != nil {
		return nil, fmt.Errorf("create %s: %w", name, d.Err)
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, path: name, dur: f.durCreate(name)}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	if d := f.gate("open", name, 0); d.Err != nil {
		return nil, fmt.Errorf("open %s: %w", name, d.Err)
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, path: name}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if d := f.gate("rename", newpath, 0); d.Err != nil {
		return fmt.Errorf("rename %s: %w", newpath, d.Err)
	}
	if err := f.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.durRename(oldpath, newpath)
	return nil
}

func (f *FaultFS) Remove(name string) error {
	if d := f.gate("remove", name, 0); d.Err != nil {
		return fmt.Errorf("remove %s: %w", name, d.Err)
	}
	if err := f.inner.Remove(name); err != nil {
		return err
	}
	f.durRemove(name)
	return nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if d := f.gate("readfile", name, 0); d.Err != nil {
		return nil, fmt.Errorf("readfile %s: %w", name, d.Err)
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	d := f.gate("writefile", name, len(data))
	if d.Err != nil {
		if d.Torn {
			f.inner.WriteFile(name, data[:len(data)/2], perm)
			f.durCreate(name)
		}
		return fmt.Errorf("writefile %s: %w", name, d.Err)
	}
	if err := f.inner.WriteFile(name, data, perm); err != nil {
		return err
	}
	f.durCreate(name)
	return nil
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if d := f.gate("stat", name, 0); d.Err != nil {
		return nil, fmt.Errorf("stat %s: %w", name, d.Err)
	}
	return f.inner.Stat(name)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if d := f.gate("mkdirall", path, 0); d.Err != nil {
		return fmt.Errorf("mkdirall %s: %w", path, d.Err)
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if d := f.gate("readdir", name, 0); d.Err != nil {
		return nil, fmt.Errorf("readdir %s: %w", name, d.Err)
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) SyncDir(dir string) error {
	if d := f.hold(f.Gate("sync", Op{Point: "dir.sync", Path: dir}, true)); d.Err != nil {
		return fmt.Errorf("syncdir %s: %w", dir, d.Err)
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
	if d := ff.fs.gate("read", ff.path, 0); d.Err != nil {
		return 0, fmt.Errorf("read %s: %w", ff.path, d.Err)
	}
	return ff.f.Read(p)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if d := ff.fs.gate("readat", ff.path, 0); d.Err != nil {
		return 0, fmt.Errorf("readat %s: %w", ff.path, d.Err)
	}
	return ff.f.ReadAt(p, off)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	if d := ff.fs.gate("seek", ff.path, 0); d.Err != nil {
		return 0, fmt.Errorf("seek %s: %w", ff.path, d.Err)
	}
	return ff.f.Seek(offset, whence)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	d := ff.fs.gate("write", ff.path, len(p))
	if d.Err != nil {
		n := 0
		if d.Torn {
			n, _ = ff.f.Write(p[:len(p)/2])
		}
		return n, fmt.Errorf("write %s: %w", ff.path, d.Err)
	}
	return ff.f.Write(p)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	d := ff.fs.gate("writeat", ff.path, len(p))
	if d.Err != nil {
		n := 0
		if d.Torn {
			n, _ = ff.f.WriteAt(p[:len(p)/2], off)
		}
		return n, fmt.Errorf("writeat %s: %w", ff.path, d.Err)
	}
	return ff.f.WriteAt(p, off)
}

func (ff *faultFile) Sync() error {
	if d := ff.fs.gate("sync", ff.path, 0); d.Err != nil {
		return fmt.Errorf("sync %s: %w", ff.path, d.Err)
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
	d := ff.fs.gate("close", ff.path, 0)
	cerr := ff.f.Close()
	if d.Err != nil {
		return fmt.Errorf("close %s: %w", ff.path, d.Err)
	}
	return cerr
}
