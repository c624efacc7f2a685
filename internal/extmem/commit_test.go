package extmem

import (
	"errors"
	"slices"
	"strings"
	"syscall"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/faulttest"
	"xarch/internal/fsio"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// mutatingTrace returns the failpoint names of the mutating operations
// recorded since the last ResetTrace, runs of one point collapsed.
func mutatingTrace(ffs *fsio.FaultFS) []string {
	var out []string
	for _, op := range ffs.Ops() {
		if len(out) == 0 || out[len(out)-1] != op.Point {
			out = append(out, op.Point)
		}
	}
	return out
}

// TestCommitSyncBudget pins what one add pays, as the exact sequence of
// mutating filesystem operations: one fsynced segment, the two state files
// that change with every commit staged and fsynced, two renames with the
// barrier SyncDir between them and the ack SyncDir after, then the
// post-commit tail — the superseded segment's removal. No scratch file;
// dict.txt only when the add brings a name the dictionary has not seen.
func TestCommitSyncBudget(t *testing.T) {
	spec := keys.MustParseSpec(edgeSpec)
	ffs := fsio.NewFaultFS(nil)
	ar, err := Open(t.TempDir(), spec, Config{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	add := func(xml string) []string {
		t.Helper()
		ffs.ResetTrace()
		if err := addTree(xmltree.MustParseString(xml))(ar); err != nil {
			t.Fatal(err)
		}
		return mutatingTrace(ffs)
	}
	add(`<db><north><item id="1"><body>x</body></item></north></db>`)

	state := []string{
		"meta.create", "meta.write", "meta.sync",
		"keydir.create", "keydir.write", "keydir.sync",
	}
	commit := []string{"meta.rename", "dir.sync", "keydir.rename", "dir.sync"}
	tail := []string{"segment.remove"}
	segment := []string{"segment.create", "segment.write", "segment.sync"}

	steady := slices.Concat(segment, state, commit, tail)
	if got := add(`<db><north><item id="1"><body>y</body></item></north></db>`); !slices.Equal(got, steady) {
		t.Errorf("steady-state add:\n got %v\nwant %v", got, steady)
	}
	// A name the dictionary lacks: dict.txt is staged before meta.txt and
	// takes its name with it, before the barrier.
	grown := slices.Concat(segment,
		[]string{"dict.create", "dict.write", "dict.sync"}, state,
		[]string{"dict.rename"}, commit, tail)
	if got := add(`<db><north><item id="1"><body>y</body><note>n</note></item></north></db>`); !slices.Equal(got, grown) {
		t.Errorf("add with a new name:\n got %v\nwant %v", got, grown)
	}
	if got := add(`<db><north><item id="1"><body>z</body><note>n</note></item></north></db>`); !slices.Equal(got, steady) {
		t.Errorf("add after the dictionary settled:\n got %v\nwant %v", got, steady)
	}
}

// TestCloseCommitsOnlyWhatIsUnsaved: every operation commits before it
// returns, so Close after an add — or after nothing — touches no file; it
// does commit names that only a failed document put in the dictionary;
// and on a poisoned writer it still refuses.
func TestCloseCommitsOnlyWhatIsUnsaved(t *testing.T) {
	spec := keys.MustParseSpec(edgeSpec)
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(nil)
	ar, err := Open(dir, spec, Config{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	const doc = `<db><north><item id="1"><body>x</body></item></north></db>`
	if err := addTree(xmltree.MustParseString(doc))(ar); err != nil {
		t.Fatal(err)
	}
	commits := ar.CommitCount()
	ffs.ResetTrace()
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	if ops := mutatingTrace(ffs); len(ops) != 0 || ar.CommitCount() != commits {
		t.Errorf("Close after Add: ops %v, commits %d -> %d; want nothing", ops, commits, ar.CommitCount())
	}

	// Open and close, as `xarch version` does: read-only in effect.
	ar, err = Open(dir, spec, Config{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ffs.ResetTrace()
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	if ops := mutatingTrace(ffs); len(ops) != 0 {
		t.Errorf("Close of an archive opened and left alone: ops %v", ops)
	}

	// A document that fails after its names were interned leaves the
	// dictionary ahead of dict.txt: two notes whose values differ only in
	// white space, distinct to the check, one value to the sort.
	elem := xmltree.Elem
	dup := elem("db", elem("south", elem("item", xmltree.AttrNode("id", "1"),
		elem("note", elem("fresh")), elem("note", xmltree.TextNode(" "), elem("fresh")))))
	if err := addTree(dup)(ar); err == nil {
		t.Fatal("duplicate keys were archived")
	}
	commits = ar.CommitCount()
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	if ar.CommitCount() != commits+1 {
		t.Errorf("Close with unsaved dictionary names made %d commits, want 1", ar.CommitCount()-commits)
	}

	// A degraded writer's Close refuses, as before.
	ar, err = Open(dir, spec, Config{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ffs.SetFault("keydir.sync", fsio.Fault{Err: syscall.EIO})
	if err := addTree(xmltree.MustParseString(doc))(ar); !errors.Is(err, ErrDegraded) {
		t.Fatalf("add under fsync fault: %v", err)
	}
	ffs.ClearFaults()
	ffs.ResetTrace()
	if err := ar.Close(); !errors.Is(err, ErrDegraded) {
		t.Errorf("Close after a degraded commit: %v, want ErrDegraded", err)
	}
	if ops := mutatingTrace(ffs); len(ops) != 0 {
		t.Errorf("degraded Close touched the disk: %v", ops)
	}
}

// A failed barrier SyncDir leaves the directory in a state nobody can
// vouch for: dict.txt and meta.txt have their new names, maybe durably,
// and keydir.idx — still the old one — is the only thing recovery may
// trust. The writer is poisoned, readers keep the committed generation,
// and a reopen finds that generation with nothing staged left over.
func TestDegradedOnBarrierSyncDirFault(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(nil)
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048, FS: ffs}
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 7, Records: 10})
	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := addTree(g.Next())(ar); err != nil {
		t.Fatal(err)
	}
	stream := archiveStreamBytes(t, ar)

	// The first dir.sync of a commit is the barrier.
	ffs.SetFault("dir.sync", fsio.Fault{Err: syscall.EIO, Count: 1})
	ffs.ResetTrace()
	err = addTree(g.Next())(ar)
	var de *DegradedError
	if !errors.As(err, &de) || !errors.Is(err, syscall.EIO) || !strings.Contains(de.Op, "fsync dir") {
		t.Fatalf("add under a failing barrier: %v, want ErrDegraded naming the directory fsync", err)
	}
	trace := mutatingTrace(ffs)
	if slices.Contains(trace, "keydir.rename") {
		t.Errorf("commit point reached past a failed barrier: %v", trace)
	}
	if !slices.Contains(trace, "meta.rename") {
		t.Errorf("fault did not land on the barrier: %v", trace)
	}
	if got := archiveStreamBytes(t, ar); string(got) != string(stream) {
		t.Error("degraded reads do not serve the committed generation")
	}
	if err := addTree(g.Next())(ar); !errors.Is(err, ErrDegraded) {
		t.Errorf("add after poisoning: %v", err)
	}

	cfg.FS = nil
	ar2, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ar2.Close()
	if got := archiveStreamBytes(t, ar2); ar2.Versions() != 1 || string(got) != string(stream) {
		t.Errorf("reopen: %d versions, stream equal = %v; want the committed generation", ar2.Versions(), string(got) == string(stream))
	}
	if tr := faulttest.Transient(t, dir); len(tr) != 0 {
		t.Errorf("staged files survived the reopen: %v", tr)
	}
	if segs := diskSegments(t, dir); len(segs) != len(ar2.current().d.files()) {
		t.Errorf("orphan segments survived the reopen: %v", segs)
	}
}
