// Package repl is the replication sync engine over segstore.Store: it
// diffs a source generation against a replica by key directory, moves
// only the missing segment blobs (staged, CRC-verified, fsynced,
// renamed), commits the state bundle keydir-last, and then sweeps
// unreferenced blobs. Push and pull are the same algorithm with the
// roles swapped — `xarch push` runs it with a local source and an HTTP
// destination, `xarch pull` the other way around.
//
// Failure model: an interrupted sync leaves the replica on its previous
// committed generation — segments land under their final names only
// after verification, and nothing references them until the keydir
// rename. A re-run resumes: blobs already staged (and verifying against
// the new generation's CRCs) are skipped, not re-transferred. Remote
// hiccups are retried under the caller's segstore.RetryPolicy; a blob
// the source no longer serves (it moved on to a newer generation and
// swept the file) surfaces as ErrSourceChanged so the caller can
// restart against the fresh manifest. A source or replica still in a
// legacy on-disk layout fails the sync with extmem.ErrLegacyFormat before
// the replica is touched.
package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"xarch/internal/extmem"
	"xarch/internal/segstore"
)

// ErrSourceChanged reports a sync that lost a race with the source: a
// segment of the manifest it was copying disappeared, meaning the
// source committed a newer generation and swept the file. Re-running
// the sync against the fresh manifest converges.
var ErrSourceChanged = errors.New("repl: source generation changed during sync")

// Options tunes one sync run.
type Options struct {
	// Retry is the backoff policy wrapped around every remote call and
	// around each whole segment transfer. Zero value = defaults.
	Retry segstore.RetryPolicy
	// VerifyAll re-verifies every manifest segment on the destination
	// (full size+CRC read) instead of trusting the ones its committed
	// keydir already references — `xarch pull -verify`, the repair path
	// for a bit-flipped replica.
	VerifyAll bool
	// Logf receives progress lines; nil discards.
	Logf func(format string, args ...any)
}

// Stats reports what one sync did.
type Stats struct {
	Generation string // source generation synced to
	Versions   int    // versions in that generation
	Segments   int    // segments in the manifest
	Copied     int    // transferred this run
	Resumed    int    // found already staged from an interrupted run
	Skipped    int    // already referenced by the replica's committed keydir
	Repaired   int    // VerifyAll mismatches re-transferred
	Deleted    int    // unreferenced blobs swept after commit
	BytesMoved int64  // bytes of the copied segments
	Committed  bool   // the keydir commit ran this sync
	UpToDate   bool   // generations already matched
}

func (s *Stats) String() string {
	if s.UpToDate && s.Repaired == 0 {
		return fmt.Sprintf("up to date at generation %s (%d versions, %d segments)",
			s.Generation, s.Versions, s.Segments)
	}
	return fmt.Sprintf("generation %s: %d versions, %d segments (%d copied, %d resumed, %d skipped, %d repaired), %d bytes moved, %d swept",
		s.Generation, s.Versions, s.Segments, s.Copied, s.Resumed, s.Skipped, s.Repaired, s.BytesMoved, s.Deleted)
}

// Sync replicates the source's committed generation onto dst. On a
// non-nil error the destination is either untouched or holds a
// consistent older state: the commit step is last, and blobs staged
// before the failure only speed up the next run.
func Sync(ctx context.Context, src, dst segstore.Store, opts Options) (*Stats, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	retry := opts.Retry

	// The source generation to replicate. One manifest drives the whole
	// run: a source that commits newer generations meanwhile does not
	// move the goalposts mid-sync.
	var srcBundle *segstore.Bundle
	err := retry.Do(ctx, "source keydir", func(octx context.Context) error {
		var err error
		srcBundle, err = src.Keydir(octx)
		return err
	})
	if errors.Is(err, segstore.ErrNoKeydir) {
		return nil, fmt.Errorf("repl: source has no committed generation")
	}
	if err != nil {
		return nil, err
	}
	man, err := extmem.DecodeManifest(srcBundle.Keydir)
	if err != nil {
		return nil, fmt.Errorf("repl: source keydir: %w", err)
	}
	st := &Stats{Generation: man.Generation, Versions: man.Versions, Segments: len(man.Segments)}

	// What the replica already holds, per its own committed keydir. A
	// corrupt replica keydir is treated as empty: everything re-copies.
	committed := map[string]extmem.SegmentMeta{}
	var dstBundle *segstore.Bundle
	err = retry.Do(ctx, "replica keydir", func(octx context.Context) error {
		var err error
		dstBundle, err = dst.Keydir(octx)
		return err
	})
	switch {
	case errors.Is(err, segstore.ErrNoKeydir):
		// Fresh replica.
	case err != nil:
		return st, err
	default:
		dman, derr := extmem.DecodeManifest(dstBundle.Keydir)
		if errors.Is(derr, extmem.ErrLegacyFormat) {
			// Not corruption to resync over: an archive to upgrade first.
			return st, fmt.Errorf("repl: replica keydir: %w", derr)
		}
		if derr != nil {
			logf("replica keydir undecodable (%v); resyncing everything", derr)
		} else {
			for _, s := range dman.Segments {
				committed[s.Name] = s
			}
		}
	}
	same := dstBundle != nil && bytes.Equal(dstBundle.Keydir, srcBundle.Keydir)
	if same && !opts.VerifyAll {
		st.UpToDate = true
		// Still sweep strays: an interrupted earlier run may have left
		// blobs this generation never referenced.
		if err := sweep(ctx, dst, retry, man, st, logf); err != nil {
			return st, err
		}
		return st, nil
	}

	for _, seg := range man.Segments {
		c := segstore.Check{Size: seg.Size, DataOff: seg.DataOff, Payload: seg.Payload, CRC: seg.CRC}
		have, inCommitted := committed[seg.Name]
		trusted := inCommitted && have == seg
		if trusted && !opts.VerifyAll {
			st.Skipped++
			continue
		}
		// Already staged by an interrupted run — or, under VerifyAll,
		// still intact in place? Has verifies size+CRC, never mere
		// existence, so a reborn segment id with different content
		// re-transfers.
		var staged bool
		err := retry.Do(ctx, "verify "+seg.Name, func(octx context.Context) error {
			var err error
			staged, err = dst.Has(octx, seg.Name, c)
			return err
		})
		if err != nil {
			return st, err
		}
		if staged {
			if trusted {
				st.Skipped++
			} else {
				st.Resumed++
				logf("resume: %s already staged", seg.Name)
			}
			continue
		}
		// Transfer. The outer retry covers a whole staged attempt (open
		// source stream → stage → verify): a torn body fails the verify,
		// and the retry re-streams from scratch. Nested policies do not
		// multiply — an inner ErrRetriesExhausted is final.
		err = retry.Do(ctx, "copy "+seg.Name, func(octx context.Context) error {
			return dst.Put(octx, seg.Name, c, func() (io.ReadCloser, error) {
				rc, _, err := src.Get(octx, seg.Name)
				return rc, err
			})
		})
		if errors.Is(err, segstore.ErrNotExist) {
			return st, fmt.Errorf("%w: segment %s vanished from the source", ErrSourceChanged, seg.Name)
		}
		if err != nil {
			return st, err
		}
		if trusted && opts.VerifyAll {
			st.Repaired++
			logf("repaired: %s re-transferred (failed verification)", seg.Name)
		} else {
			st.Copied++
		}
		st.BytesMoved += seg.Size
	}

	if !same {
		if err := retry.Do(ctx, "commit keydir", func(octx context.Context) error {
			return dst.CommitKeydir(octx, srcBundle)
		}); err != nil {
			return st, err
		}
		st.Committed = true
		logf("committed generation %s (%d versions)", man.Generation, man.Versions)
	}

	// Only after the commit: blobs of the superseded generation were
	// referenced by the replica's old keydir until the rename landed.
	if err := sweep(ctx, dst, retry, man, st, logf); err != nil {
		return st, err
	}
	return st, nil
}

// sweep deletes installed segment blobs the committed manifest does not
// reference. Only segment-shaped names are touched: the blob namespace
// may hold artifacts replication does not manage (a DEGRADED marker,
// future blob types), and those are not ours to reap.
func sweep(ctx context.Context, dst segstore.Store, retry segstore.RetryPolicy,
	man *extmem.Manifest, st *Stats, logf func(string, ...any)) error {
	want := map[string]bool{}
	for _, s := range man.Segments {
		want[s.Name] = true
	}
	var names []string
	err := retry.Do(ctx, "list replica", func(octx context.Context) error {
		var err error
		names, err = dst.List(octx)
		return err
	})
	if err != nil {
		return err
	}
	for _, n := range names {
		if want[n] || !isSegmentName(n) {
			continue
		}
		if err := retry.Do(ctx, "sweep "+n, func(octx context.Context) error {
			return dst.Delete(octx, n)
		}); err != nil {
			return err
		}
		st.Deleted++
		logf("swept %s (not referenced by generation %s)", n, man.Generation)
	}
	return nil
}

// isSegmentName reports whether name looks like a segment blob.
func isSegmentName(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".tok")
}
