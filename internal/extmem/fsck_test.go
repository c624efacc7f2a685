package extmem

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/fsio"
)

func checkKinds(r *CheckReport) map[string]int {
	kinds := map[string]int{}
	for _, p := range r.Problems() {
		kinds[p.Kind]++
	}
	return kinds
}

func TestFsckCleanArchive(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	ar := buildOMIMArchive(t, dir, cfg, 3)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean {
		t.Fatalf("fresh archive not clean: %+v", r.Problems())
	}
	if r.Versions != 3 {
		t.Fatalf("Versions = %d, want 3", r.Versions)
	}
}

// TestFsckReadsEachSegmentOnce: verifying a segment reads its file once —
// the header, then the payload on from where the header ends — so checking
// an archive reads no more segment bytes than its segment files hold.
func TestFsckReadsEachSegmentOnce(t *testing.T) {
	dir := t.TempDir()
	ar := buildOMIMArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 1024}, 2)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	var size int64
	segs := globSegments(fsio.OS, dir)
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		size += fi.Size()
	}
	if len(segs) < 20 {
		t.Fatalf("fixture has %d segments, want at least 20", len(segs))
	}
	cfs := &countingFS{FS: fsio.OS}
	r, err := CheckArchive(cfs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean {
		t.Fatalf("archive not clean: %+v", r.Problems())
	}
	if read := cfs.read.Load(); read > size {
		t.Errorf("CheckArchive read %d bytes from %d segment files holding %d", read, len(segs), size)
	}
}

func TestFsckDetectsCorruptKeydirAndRepairs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	ar := buildOMIMArchive(t, dir, cfg, 2)
	want := archiveStreamBytes(t, ar)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}

	p := filepath.Join(dir, keydirFile)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean {
		t.Fatal("corrupt keydir not detected")
	}
	if checkKinds(r)["keydir"] == 0 {
		t.Fatalf("no keydir problem in %+v", r.Problems())
	}

	r, err = RepairArchive(nil, dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean {
		t.Fatalf("not clean after repair: %+v", r.Problems())
	}
	ar2, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ar2.Close()
	if got := archiveStreamBytes(t, ar2); !bytes.Equal(got, want) {
		t.Error("repair did not preserve the archive stream")
	}
}

func TestFsckDetectsCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	ar := buildOMIMArchive(t, dir, cfg, 2)
	segs := globSegments(ar.fs, ar.dir)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-8] ^= 0xff // payload tail: past the header, before EOF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean {
		t.Fatal("corrupt segment not detected")
	}
	if checkKinds(r)["segment"] == 0 {
		t.Fatalf("no segment problem in %+v", r.Problems())
	}
}

// TestFsckDetectsMisaimedDirectoryEntry: a key directory that decodes and
// carries a valid checksum can still point beside the subtrees its
// segments hold. The segment walk re-derives every entry from the payload
// and the check holds the directory's against them.
func TestFsckDetectsMisaimedDirectoryEntry(t *testing.T) {
	dir := t.TempDir()
	ar := buildOMIMArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 2048}, 2)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, keydirFile)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeKeyDirectory(data)
	if err != nil {
		t.Fatal(err)
	}
	seg := d.roots[0].segs[0]
	if len(seg.entries) < 2 {
		t.Fatalf("segment %s has %d entries, want several", seg.file, len(seg.entries))
	}
	seg.entries[1].offset++ // one byte into the subtree; encode re-seals
	if err := os.WriteFile(p, d.encode(d.names), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeKeyDirectory(d.encode(d.names)); err != nil {
		t.Fatalf("altered directory does not decode: %v", err)
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, it := range r.Problems() {
		found = found || (it.Kind == "segment" && it.File == seg.file && strings.Contains(it.Detail, "disagrees with directory entry"))
	}
	if !found {
		t.Fatalf("misaimed entry of %s not reported: %+v", seg.file, r.Problems())
	}
}

func TestFsckDetectsLeftoversAndRepairSweeps(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	ar := buildOMIMArchive(t, dir, cfg, 2)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"seg-999999.tok", "tmp-sort-run-0", "keydir.idx.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	kinds := checkKinds(r)
	if kinds["orphan"] != 1 || kinds["transient"] != 2 {
		t.Fatalf("problem kinds %v, want 1 orphan + 2 transient", kinds)
	}
	r, err = RepairArchive(nil, dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean {
		t.Fatalf("not clean after repair: %+v", r.Problems())
	}
}

// TestOpenSweepsStagedPartFiles: *.part staging leftovers — an
// interrupted replication pull's half-transferred blobs — are flagged
// by fsck as transients and swept by a plain reopen, exactly like the
// engine's own *.tmp scratch files.
func TestOpenSweepsStagedPartFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	ar := buildOMIMArchive(t, dir, cfg, 2)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	parts := []string{"seg-00000042.tok.part", "keydir.idx.part"}
	for _, f := range parts {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("half-transferred"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean || checkKinds(r)["transient"] != len(parts) {
		t.Fatalf("stale parts not flagged: clean=%v kinds=%v", r.Clean, checkKinds(r))
	}
	ar, err = Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Versions() != 2 {
		t.Fatalf("Versions = %d after reopen, want 2", ar.Versions())
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range parts {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Errorf("%s survived reopen", f)
		}
	}
	if r, err = CheckArchive(nil, dir); err != nil || !r.Clean {
		t.Fatalf("archive not clean after the sweep: %v %+v", err, r.Problems())
	}
}

func TestFsckRepairClearsDegradedMarker(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(nil)
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	fcfg := cfg
	fcfg.FS = ffs
	ar, err := Open(dir, datagen.OMIMSpec(), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 7, Records: 10})
	if err := addVersion(ar, strings.NewReader(g.Next().IndentedXML())); err != nil {
		t.Fatal(err)
	}
	ffs.SetFault("keydir.sync", fsio.Fault{Err: syscall.EIO})
	if err := addVersion(ar, strings.NewReader(g.Next().IndentedXML())); !errors.Is(err, ErrDegraded) {
		t.Fatalf("got %v, want ErrDegraded", err)
	}
	// The process is abandoned degraded; the marker stays behind.
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean || checkKinds(r)["marker"] != 1 {
		t.Fatalf("marker not reported: %+v", r.Problems())
	}
	r, err = RepairArchive(nil, dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean {
		t.Fatalf("not clean after repair: %+v", r.Problems())
	}
	if _, err := os.Stat(filepath.Join(dir, degradedMarker)); err == nil {
		t.Fatal("DEGRADED marker survived repair")
	}
}

// TestDamagedDictionaryIsCorrupt: a dict.txt that loads short lets the next
// add give new names the ids stored tokens already use, and every version
// before it reads wrong for good. A line that is not "id<TAB>name" —
// garbage, or blank — is corruption to loadDictionary, fsck and Open; a
// dictionary cut at a line boundary still loads, and fsck finds the tokens
// whose names it lost.
func TestDamagedDictionaryIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	ar := buildOMIMArchive(t, dir, Config{}, 1)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, dictFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(good), "\n")
	if len(lines) < 10 {
		t.Fatalf("fixture dictionary holds %d names", len(lines)-1)
	}
	head, tail := strings.Join(lines[:3], ""), strings.Join(lines[3:], "")
	plant := func(data string) *CheckReport {
		t.Helper()
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := CheckArchive(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, bad := range []string{"GARBAGE\n", "\n"} {
		damaged := head + bad + tail
		if _, err := loadDictionary(strings.NewReader(damaged)); !errors.Is(err, core.ErrCorruptArchive) {
			t.Errorf("%q after three names: loadDictionary = %v, want ErrCorruptArchive", bad, err)
		}
		if r := plant(damaged); r.Clean || checkKinds(r)["dict"] != 1 {
			t.Errorf("%q after three names: fsck problems %v, want the dictionary", bad, r.Problems())
		}
		if _, err := Open(dir, datagen.OMIMSpec(), Config{}); !errors.Is(err, core.ErrCorruptArchive) {
			t.Errorf("%q after three names: Open = %v, want ErrCorruptArchive", bad, err)
		}
	}
	if r := plant(head); r.Clean || checkKinds(r)["segment"] == 0 {
		t.Errorf("dictionary cut after three names: fsck problems %v, want the segments", r.Problems())
	}
	if r := plant(string(good)); !r.Clean {
		t.Fatalf("restored dictionary: %v", r.Problems())
	}
}

// TestShortDictionaryRefused: the key directory records how many names
// dict.txt held when it committed. A dict.txt cut cleanly at a line
// boundary still parses, but it has lost names the segments use, and the
// next add would hand their ids out again to other names: Open refuses it
// as a corrupt archive, and fsck reports the dictionary.
func TestShortDictionaryRefused(t *testing.T) {
	dir := t.TempDir()
	ar := buildOMIMArchive(t, dir, Config{}, 1)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, dictFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(good), "\n")
	short := strings.Join(lines[:len(lines)-3], "") // the last two names gone
	if err := os.WriteFile(path, []byte(short), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadDictionary(strings.NewReader(short)); err != nil {
		t.Fatalf("the cut dictionary does not parse: %v", err)
	}
	if _, err := Open(dir, datagen.OMIMSpec(), Config{}); !errors.Is(err, core.ErrCorruptArchive) {
		t.Errorf("Open over a short dict.txt = %v, want ErrCorruptArchive", err)
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean || checkKinds(r)["dict"] != 1 {
		t.Errorf("fsck problems %v, want the dictionary", r.Problems())
	}
}
