// Package fsio is the filesystem seam under the external-memory engine:
// a small FS interface whose default implementation is the plain os
// package, plus a fault-injecting wrapper (FaultFS) for crash-consistency
// testing. Everything the archiver does to disk goes through an FS, so
// a test can observe the exact I/O sequence of an operation and replay
// it with a simulated crash after any step.
//
// The failpoint registry, Failpoints, is the one both fault seams embed:
// FaultFS here, and segstore.FaultTransport on the replication link. It
// owns the points and their firing rule, the crash switch and the
// operation trace; each seam names its operations' points and keeps what
// is its own.
package fsio

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"strings"
	"syscall"
)

// File is the handle surface the archiver needs: sequential and
// positioned reads and writes, seeking, fsync, and close.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Seeker
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Sync flushes the file to stable storage (fsync).
	Sync() error
}

// FS is the filesystem operation surface of the external-memory engine.
// The default implementation is OS; FaultFS wraps any FS with failpoint
// injection and tracing.
type FS interface {
	// Create creates or truncates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// ReadFile returns the contents of the named file.
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to the named file, creating it if necessary.
	// It is NOT atomic and NOT durable; commit protocols build on
	// Create+Sync+Rename instead.
	WriteFile(name string, data []byte, perm fs.FileMode) error
	// Stat returns file metadata.
	Stat(name string) (fs.FileInfo, error)
	// MkdirAll creates the named directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists the named directory, sorted by filename.
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory so preceding renames and removals in it
	// are durable. Implementations tolerate only the benign "directory
	// fsync unsupported" errors (EINVAL, ENOTSUP); every other error is
	// surfaced — a failed directory fsync means a commit may not be
	// durable and must not be swallowed.
	SyncDir(dir string) error
}

// OS is the default FS: the plain os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) Rename(oldpath, newpath string) error {
	return os.Rename(oldpath, newpath)
}
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (osFS) SyncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	if err := df.Sync(); err != nil && !benignSyncDirErr(err) {
		return err
	}
	return nil
}

// benignSyncDirErr reports whether a directory-fsync error only means
// the platform or filesystem cannot fsync directories — the one class
// of error a commit protocol may ignore.
func benignSyncDirErr(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.ENOTTY)
}

// Transient reports whether name is a file an interrupted operation can
// strand and a reopen sweeps: a "tmp-*" scratch file, a "*.tmp" staged
// sibling of a state file, or a "*.part" replication staging file.
func Transient(name string) bool {
	return strings.HasPrefix(name, "tmp-") || strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".part")
}
