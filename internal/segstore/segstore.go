// Package segstore is the replication transport layer of the archive:
// named immutable blobs (segment files) plus an atomically committed
// key-directory bundle, behind one Store interface with a local
// directory implementation and an HTTP client. The layer is
// format-agnostic on purpose — a blob is verified against a Check (size
// plus payload CRC32 lifted from the key directory), never decoded — so
// the same transport can later move any immutable artifact the archive
// grows.
//
// The contract mirrors the engine's own commit protocol: blobs are
// staged to "<name>.part", verified, fsynced and renamed into place,
// and CommitKeydir installs dict and meta before the keydir — the
// keydir rename is the replica's only commit point. An interrupted
// transfer therefore leaves the replica on its previous committed
// generation, with at worst some staged or orphaned blobs for the next
// sync (or the engine's open-time sweep) to reclaim.
package segstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"xarch/internal/extmem"
)

var (
	// ErrNotExist reports a blob absent from the store.
	ErrNotExist = errors.New("segstore: blob does not exist")
	// ErrNoKeydir reports a store with no committed key directory (a
	// fresh replica).
	ErrNoKeydir = errors.New("segstore: no committed key directory")
	// ErrVerify reports a staged blob that failed its Check — a
	// truncated or corrupted transfer. Put failures carrying it are
	// marked transient: a retry re-streams fresh bytes.
	ErrVerify = errors.New("segstore: blob failed verification")
)

// Check pins what a staged blob must look like before it may be
// installed: its total size and the CRC32 (IEEE) of the payload range
// [DataOff, DataOff+Payload) — the same checksum the key directory
// records for the segment. Verifying against the directory that will
// reference the blob (rather than a transport-level frame) means a blob
// that installs is exactly the blob the committed generation expects,
// even when a segment id was reused across generations with different
// content.
type Check struct {
	Size    int64
	DataOff int64
	Payload int64
	CRC     uint32
}

// validate reports an error for a Check no blob can pass: a negative size,
// offset or payload, or a payload range that runs past the blob's end.
func (c Check) validate() error {
	if c.Size < 0 || c.DataOff < 0 || c.Payload < 0 || c.DataOff > c.Size || c.Payload > c.Size-c.DataOff {
		return fmt.Errorf("segstore: impossible check: size %d, payload [%d, +%d)", c.Size, c.DataOff, c.Payload)
	}
	return nil
}

// Bundle is the replica's commit unit: the exact bytes of the three
// archive state files of one committed generation.
type Bundle struct {
	Keydir []byte
	Dict   []byte
	Meta   []byte
}

// Store is named immutable blob storage with a keydir commit step —
// one side of a replication sync. Implementations must be safe for
// concurrent use.
type Store interface {
	// Put streams the blob returned by open into the store as name:
	// staged to name+".part", verified against c, fsynced, renamed.
	// open may be called more than once (retries re-stream); a
	// verification failure satisfies errors.Is(err, ErrVerify).
	Put(ctx context.Context, name string, c Check, open func() (io.ReadCloser, error)) error
	// Get opens the named blob for streaming, returning its size.
	// Absent blobs satisfy errors.Is(err, ErrNotExist).
	Get(ctx context.Context, name string) (io.ReadCloser, int64, error)
	// Has reports whether the named blob exists AND verifies against c.
	// Mere existence is not enough: segment ids can be reborn with
	// different content, so resuming a sync must re-check staged blobs.
	Has(ctx context.Context, name string, c Check) (bool, error)
	// List names every installed blob (state files and staging files
	// excluded).
	List(ctx context.Context) ([]string, error)
	// Delete removes the named blob; removing an absent blob is not an
	// error.
	Delete(ctx context.Context, name string) error
	// Keydir returns the committed state bundle, or ErrNoKeydir.
	Keydir(ctx context.Context) (*Bundle, error)
	// CommitKeydir atomically installs b: dict and meta first, the
	// keydir last — its rename is the commit point.
	CommitKeydir(ctx context.Context, b *Bundle) error
}

// ValidBlobName reports whether name is acceptable as a blob name: a
// bare file name that cannot escape the store directory and cannot
// collide with the state files or the transport's own staging/transient
// suffixes.
func ValidBlobName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	if strings.ContainsAny(name, "/\\") {
		return false
	}
	if strings.HasSuffix(name, ".part") || strings.HasSuffix(name, ".tmp") {
		return false
	}
	switch name {
	case extmem.KeydirFileName, extmem.DictFileName, extmem.MetaFileName:
		return false
	}
	return true
}

// isStateFile reports whether name is one of the bundle's state files.
func isStateFile(name string) bool {
	switch name {
	case extmem.KeydirFileName, extmem.DictFileName, extmem.MetaFileName:
		return true
	}
	return false
}
