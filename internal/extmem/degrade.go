package extmem

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
)

// Graceful degradation: a failed fsync or rename during a commit leaves
// the kernel page cache in an unknowable state — after fsyncgate, no
// storage engine may assume a retried fsync writes the pages the failed
// one dropped. When a durability-critical step fails, the archiver
// therefore poisons itself: every further write operation (AddVersion,
// Compact, Close) fails fast with an error satisfying
// errors.Is(err, ErrDegraded), while readers keep serving the last
// committed generation, whose files are already durable on disk. A
// best-effort DEGRADED marker file records the cause for fsck; reopening
// the directory creates fresh file handles and rebuilds all uncommitted
// state from scratch, which is the only sound recovery.

// ErrDegraded reports that the archive writer has been poisoned by a
// failed commit step. Match with errors.Is; the concrete error is a
// *DegradedError carrying the failed step and cause.
var ErrDegraded = errors.New("extmem: archive degraded")

// degradedMarker is the best-effort on-disk marker naming the commit
// failure that poisoned the writer; `xarch fsck -repair` clears it once
// the archive verifies clean.
const degradedMarker = "DEGRADED"

// DegradedError is the structured form of a poisoned writer: the commit
// step that failed and the underlying cause. errors.Is(err, ErrDegraded)
// matches it; errors.Unwrap yields the cause.
type DegradedError struct {
	Op    string // the commit step that failed, e.g. "fsync keydir.idx.tmp"
	Cause error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("extmem: archive degraded: %s: %v", e.Op, e.Cause)
}

func (e *DegradedError) Unwrap() error { return e.Cause }

func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// commitFault marks an error from a durability-critical commit step
// (fsync, rename, directory fsync): the one error class that must
// poison the writer instead of being retried.
type commitFault struct {
	op  string
	err error
}

func (e *commitFault) Error() string { return e.op + ": " + e.err.Error() }
func (e *commitFault) Unwrap() error { return e.err }

func commitFaultf(op string, err error) error {
	return fmt.Errorf("extmem: %w", &commitFault{op: op, err: err})
}

// isCommitFault reports whether err is a commit fault. A commit that failed
// with one may have passed its commit point — the ack directory fsync
// comes after the key directory's rename — so the segment files it wrote
// may be what the key directory on disk names: they are left for the
// next open's sweep, which knows, instead of being removed.
func isCommitFault(err error) bool {
	var cf *commitFault
	return errors.As(err, &cf)
}

// degradedState is the atomic poisoned-writer flag on the Archiver.
type degradedState struct {
	p atomic.Pointer[DegradedError]
}

// Degraded returns the poisoning error, or nil while the writer is
// healthy.
func (ar *Archiver) Degraded() error {
	if e := ar.degraded.p.Load(); e != nil {
		return e
	}
	return nil
}

// writable returns the poisoning error if the writer has been degraded;
// write entry points call it first so a poisoned archiver never touches
// the disk again.
func (ar *Archiver) writable() error { return ar.Degraded() }

// noteFatal inspects an operation's error: a commit fault poisons the
// writer (first one wins) and is returned as the structured
// *DegradedError; any other error passes through unchanged. A
// best-effort marker file records the condition for fsck — its write
// may itself fail (the disk may be gone), which is ignored.
func (ar *Archiver) noteFatal(err error) error {
	if err == nil {
		return nil
	}
	var cf *commitFault
	if !errors.As(err, &cf) {
		return err
	}
	de := &DegradedError{Op: cf.op, Cause: cf.err}
	if ar.degraded.p.CompareAndSwap(nil, de) {
		_ = ar.fs.WriteFile(filepath.Join(ar.dir, degradedMarker), []byte(de.Error()+"\n"), 0o644)
	}
	return ar.degraded.p.Load()
}
