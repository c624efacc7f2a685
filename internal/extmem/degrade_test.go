package extmem

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/fsio"
)

// A failed fsync of the key directory's temp file is a durability-
// critical commit fault: the writer must poison itself (fsyncgate — a
// retried fsync after a failed one proves nothing), reads must keep
// serving the last committed generation, and the condition must be
// recorded on disk for fsck.
func TestDegradedOnCommitFsyncFault(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(nil)
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048, FS: ffs}
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 7, Records: 10})
	docs := []string{g.Next().IndentedXML(), g.Next().IndentedXML()}

	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := addVersion(ar, strings.NewReader(docs[0])); err != nil {
		t.Fatal(err)
	}
	before := snapshotXML(t, ar)
	stream := archiveStreamBytes(t, ar)

	ffs.SetFault("keydir.sync", fsio.Fault{Err: syscall.EIO})
	err = addVersion(ar, strings.NewReader(docs[1]))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("AddVersion under fsync fault: got %v, want ErrDegraded", err)
	}
	var de *DegradedError
	if !errors.As(err, &de) || !strings.Contains(de.Op, "fsync") {
		t.Fatalf("degraded error %v does not name the failed fsync step", err)
	}
	if ar.Degraded() == nil {
		t.Fatal("Degraded() = nil after a commit fault")
	}

	// The fault is gone, but the poisoned writer must not retry: every
	// write entry point fails fast with the same sentinel and no further
	// disk writes are attempted past the marker.
	ffs.ClearFaults()
	if err := addVersion(ar, strings.NewReader(docs[1])); !errors.Is(err, ErrDegraded) {
		t.Fatalf("AddVersion after poisoning: got %v, want fast ErrDegraded", err)
	}
	if _, err := ar.Compact(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Compact after poisoning: got %v, want fast ErrDegraded", err)
	}
	if err := ar.Close(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Close after poisoning: got %v, want ErrDegraded", err)
	}

	// Readers keep serving the last committed generation.
	if got := snapshotXML(t, ar); got != before {
		t.Error("degraded reads do not serve the committed generation")
	}
	if got := archiveStreamBytes(t, ar); !bytes.Equal(got, stream) {
		t.Error("degraded stream differs from the committed generation")
	}

	// The marker names the failure for fsck.
	data, err := os.ReadFile(filepath.Join(dir, degradedMarker))
	if err != nil {
		t.Fatalf("no DEGRADED marker on disk: %v", err)
	}
	if !strings.Contains(string(data), "fsync") {
		t.Errorf("marker %q does not name the failed step", data)
	}

	// Reopening builds fresh state: the archive serves and writes again.
	ar2, err := Open(dir, datagen.OMIMSpec(), Config{Budget: 1 << 16, SegmentTarget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer ar2.Close()
	if ar2.Degraded() != nil {
		t.Fatal("reopened archive still degraded")
	}
	if got := snapshotXML(t, ar2); got != before {
		t.Error("reopened archive lost the committed generation")
	}
	if err := addVersion(ar2, strings.NewReader(docs[1])); err != nil {
		t.Fatalf("reopened archive cannot write: %v", err)
	}
}

// A rename fault at the commit point must poison exactly like a failed
// fsync: the rename may or may not have reached the disk.
func TestDegradedOnCommitRenameFault(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(nil)
	ar, err := Open(dir, datagen.OMIMSpec(), Config{Budget: 1 << 16, SegmentTarget: 2048, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 7, Records: 10})
	ffs.SetFault("keydir.rename", fsio.Fault{Err: syscall.EIO})
	err = addVersion(ar, strings.NewReader(g.Next().IndentedXML()))
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("got %v, want ErrDegraded wrapping EIO", err)
	}
}

// A plain write error on a scratch file is NOT durability-critical: the
// Add rolls back, nothing is poisoned, and a retry succeeds. The budget
// makes the streamed add sort in runs, so it writes scratch files.
func TestScratchWriteErrorDoesNotDegrade(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(nil)
	ar, err := Open(dir, datagen.OMIMSpec(), Config{Budget: 64, SegmentTarget: 2048, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 7, Records: 10})
	doc := g.Next().IndentedXML()

	ffs.SetFault("scratch.write", fsio.Fault{Err: syscall.ENOSPC})
	err = addVersion(ar, strings.NewReader(doc))
	if err == nil {
		t.Fatal("AddVersion succeeded despite ENOSPC on scratch writes")
	}
	if errors.Is(err, ErrDegraded) {
		t.Fatalf("scratch write error poisoned the writer: %v", err)
	}
	if ar.Degraded() != nil {
		t.Fatal("Degraded() set by a retryable error")
	}
	if _, err := os.Stat(filepath.Join(dir, degradedMarker)); err == nil {
		t.Fatal("retryable error wrote a DEGRADED marker")
	}

	// Same archiver, fault lifted: the retry goes through.
	ffs.ClearFaults()
	if err := addVersion(ar, strings.NewReader(doc)); err != nil {
		t.Fatalf("retry after transient ENOSPC: %v", err)
	}
	if got := ar.Versions(); got != 1 {
		t.Fatalf("Versions() = %d after one successful Add", got)
	}
}

// TestDegradedReplicaView: an add whose commit fails at its ack directory
// fsync has renamed its keydir.idx into place, but the writer degrades and
// never publishes it. A replica view is the published generation, as every
// query is: it says one version, not the two on disk.
func TestDegradedReplicaView(t *testing.T) {
	ffs := fsio.NewFaultFS(nil)
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 7, Records: 10})
	ar, err := Open(t.TempDir(), datagen.OMIMSpec(), Config{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := addVersion(ar, strings.NewReader(g.Next().IndentedXML())); err != nil {
		t.Fatal(err)
	}
	ffs.SetFault("dir.sync", fsio.Fault{After: 1, Count: 1})
	if err := addVersion(ar, strings.NewReader(g.Next().IndentedXML())); !errors.Is(err, ErrDegraded) {
		t.Fatalf("add with a failed ack fsync: %v, want ErrDegraded", err)
	}
	if n := ar.Versions(); n != 1 {
		t.Fatalf("Versions() = %d after the failed add, want 1", n)
	}
	v, err := ar.OpenReplicaView()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	kd, _, _ := v.Bundle()
	man, err := DecodeManifest(kd)
	if err != nil {
		t.Fatal(err)
	}
	if v.Manifest().Versions != 1 || man.Versions != 1 || man.Generation != v.Manifest().Generation {
		t.Errorf("replica view: manifest says %d versions, its keydir.idx %d (generation %s, %s); want 1",
			v.Manifest().Versions, man.Versions, v.Manifest().Generation, man.Generation)
	}
}
