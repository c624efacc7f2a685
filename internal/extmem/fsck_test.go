package extmem

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/faulttest"
	"xarch/internal/fsio"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
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

// staleMetaArchive builds in dir a 31-version fragmented archive whose
// Compact is killed at the key directory's rename. meta.txt has taken its
// name and lists the coalesced segments; keydir.idx still lists the ones
// they replace. It returns the archive's configuration.
func staleMetaArchive(t *testing.T, dir string) Config {
	t.Helper()
	cfg := Config{Budget: 1 << 16, SegmentTarget: fragTarget}
	ffs := fsio.NewFaultFS(nil)
	fcfg := cfg
	fcfg.FS = ffs
	ar := fragmentedArchive(t, dir, fcfg, 30)
	ffs.SetFault("keydir.rename", fsio.Fault{Crash: true})
	if _, err := ar.Compact(); !errors.Is(err, fsio.ErrCrashed) {
		t.Fatalf("Compact killed at keydir.rename: %v", err)
	}
	return cfg
}

// TestStaleMetaBackupIsRewritten: a meta.txt that agrees with keydir.idx on
// the version count, the root timestamp and the number of roots can still
// list other segments — here the ones an interrupted compaction wrote,
// which the reopen deletes. The backup is current only when its bytes are
// encodeMeta of the key directory, so the reopen rewrites it, fsck is clean
// after, and a later rebuild from it finds every file it lists.
func TestStaleMetaBackupIsRewritten(t *testing.T) {
	dir := t.TempDir()
	cfg := staleMetaArchive(t, dir)
	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	versions, want, d := ar.Versions(), archiveStreamBytes(t, ar), ar.current().d
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	meta := readFileString(t, filepath.Join(dir, metaFile))
	if meta != string(encodeMeta(d)) {
		t.Error("meta.txt after the reopen is not the backup of keydir.idx")
	}
	skel, err := parseMetaV2(strings.NewReader(meta))
	if err != nil {
		t.Fatal(err)
	}
	for f := range skel.files() {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("meta.txt lists %s: %v", f, err)
		}
	}
	if r, err := CheckArchive(nil, dir); err != nil || !r.Clean {
		t.Fatalf("fsck after the reopen: %v %+v", err, r.Problems())
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
	ar, err = Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatalf("rebuild from the backup: %v", err)
	}
	defer ar.Close()
	if ar.Versions() != versions || !bytes.Equal(archiveStreamBytes(t, ar), want) {
		t.Errorf("rebuilt archive holds %d versions, want %d, or its stream differs", ar.Versions(), versions)
	}
}

// TestFsckSaysWhatOpenDoes: fsck reads the state files through the loader
// Open acts on, so what it reports about them is what Open then does — its
// error, the versions it opens, and the segment files it leaves: every one
// on disk but those fsck calls orphans.
func TestFsckSaysWhatOpenDoes(t *testing.T) {
	omim := func(t *testing.T, dir string) Config {
		cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
		if err := buildOMIMArchive(t, dir, cfg, 3).Close(); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	remove := func(names ...string) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			for _, n := range names {
				if err := os.Remove(filepath.Join(dir, n)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rewrite := func(name string, change func([]byte) []byte) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			p := filepath.Join(dir, name)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, change(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name   string
		build  func(*testing.T, string) Config
		damage func(*testing.T, string)
		action string // what fsck says Open does
		// versions is what Open then holds; -1: Open refuses.
		versions int
	}{
		{"keydir.idx flipped", omim, rewrite(keydirFile, func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }), "Open rebuilds keydir.idx", 3},
		{"keydir.idx missing", omim, remove(keydirFile), "Open rebuilds keydir.idx", 3},
		{"meta.txt missing", omim, remove(metaFile), "Open rewrites meta.txt", 3},
		{"meta.txt stale", staleMetaArchive, nil, "Open rewrites meta.txt", 31},
		{"dict.txt cut short", omim, rewrite(dictFile, func(b []byte) []byte { return b[:len(b)/2] }), "Open refuses", -1},
		{"keydir.idx and dict.txt missing", omim, remove(keydirFile, dictFile), "Open starts a fresh archive", 0},
		{"keydir.idx and meta.txt missing", omim, remove(keydirFile, metaFile), "Open starts a fresh archive", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := c.build(t, dir)
			if c.damage != nil {
				c.damage(t, dir)
			}
			r, err := CheckArchive(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			var said []string // fsck's findings on the state files
			orphans := map[string]bool{}
			for _, it := range r.Problems() {
				switch it.Kind {
				case "keydir", "dict", "meta":
					said = append(said, it.Detail)
				case "orphan":
					orphans[it.File] = true
				}
			}
			if len(said) == 0 {
				t.Fatalf("fsck finds nothing wrong with the state files: %+v", r.Items)
			}
			for _, s := range said {
				if !strings.Contains(s, c.action) {
					t.Errorf("fsck says %q, want %q", s, c.action)
				}
			}

			before := diskSegments(t, dir)
			ar, err := Open(dir, datagen.OMIMSpec(), cfg)
			after := diskSegments(t, dir)
			if c.versions < 0 {
				if err == nil {
					ar.Close()
					t.Fatalf("Open succeeded; fsck said %q", said)
				}
				for _, s := range said {
					if !strings.Contains(s, err.Error()) {
						t.Errorf("fsck says %q; Open fails with %v", s, err)
					}
				}
				if !slices.Equal(before, after) {
					t.Errorf("refusing Open left %v of %v", after, before)
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v; fsck said %q", err, said)
			}
			defer ar.Close()
			if ar.Versions() != c.versions || r.Versions != c.versions {
				t.Errorf("Open holds %d versions, fsck says %d, want %d", ar.Versions(), r.Versions, c.versions)
			}
			var kept []string
			for _, f := range before {
				if !orphans[f] {
					kept = append(kept, f)
				}
			}
			if !slices.Equal(kept, after) {
				t.Errorf("Open left the segment files %v; fsck said it would leave %v", after, kept)
			}
			if c.versions == 0 && (len(before) == 0 || len(orphans) != len(before)) {
				t.Errorf("fsck names %d of the %d segment files a fresh start deletes", len(orphans), len(before))
			}
		})
	}
}

// TestFsckRepairRefusesFreshStart: with keydir.idx gone and dict.txt or
// meta.txt with it, Open starts a fresh archive and deletes every segment
// file (a first commit cut off before its commit point looks like this).
// Repair does not take that step for the operator: it changes no byte of
// the directory and names the segment files Open would delete.
func TestFsckRepairRefusesFreshStart(t *testing.T) {
	for _, lost := range [][]string{{keydirFile, dictFile}, {keydirFile, metaFile}} {
		t.Run(strings.Join(lost, " and ")+" missing", func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
			if err := buildOMIMArchive(t, dir, cfg, 3).Close(); err != nil {
				t.Fatal(err)
			}
			for _, n := range lost {
				if err := os.Remove(filepath.Join(dir, n)); err != nil {
					t.Fatal(err)
				}
			}
			before, segs := faulttest.Files(t, dir), diskSegments(t, dir)
			if len(segs) < 3 {
				t.Fatalf("fixture: %d segment files", len(segs))
			}
			_, err := RepairArchive(nil, dir, datagen.OMIMSpec(), cfg)
			if err == nil {
				t.Fatal("repair succeeded")
			}
			if !strings.Contains(err.Error(), "Open starts a fresh archive") {
				t.Errorf("repair: %v; want what Open would do", err)
			}
			for _, s := range segs {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("repair: %v; does not name %s", err, s)
				}
			}
			if after := faulttest.Files(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
				t.Errorf("refused repair changed the directory: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// TestCleanReopenWritesNothing: reopening a healthy archive creates,
// writes, renames, removes and fsyncs nothing — its meta.txt is already
// encodeMeta of its key directory, byte for byte.
func TestCleanReopenWritesNothing(t *testing.T) {
	og := datagen.NewOMIM(datagen.OMIMConfig{Seed: 3, Records: 40, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.1})
	xg := datagen.NewXMark(datagen.XMarkConfig{Seed: 5, Items: 30, People: 30, Categories: 6, OpenAucts: 10, ClosedAucts: 6})
	x1 := xg.Document()
	xmark := []*xmltree.Node{x1, xg.RandomChanges(x1, 0.2)}
	omim := []*xmltree.Node{og.Next(), og.Next(), nil, og.Next()}
	for _, c := range []struct {
		name string
		spec *keys.Spec
		docs []*xmltree.Node
		cfg  Config
	}{
		{"omim", datagen.OMIMSpec(), omim, Config{SegmentTarget: 4096}},
		{"omim-compacted", datagen.OMIMSpec(), omim, Config{SegmentTarget: 4096, CompactionBudget: 16384}},
		{"xmark", datagen.XMarkSpec(), xmark, Config{SegmentTarget: 2048}},
		{"raw", keys.MustParseSpec("(/, (ROOT, {}))"), omim, Config{SegmentTarget: 1024}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			ar, err := Open(dir, c.spec, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, doc := range c.docs {
				if doc == nil {
					err = addVersion(ar, nil)
				} else {
					err = addTree(doc)(ar)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := ar.Close(); err != nil {
				t.Fatal(err)
			}
			ffs := fsio.NewFaultFS(nil)
			cfg := c.cfg
			cfg.FS = ffs
			if ar, err = Open(dir, c.spec, cfg); err != nil {
				t.Fatal(err)
			}
			if err := ar.Close(); err != nil {
				t.Fatal(err)
			}
			for _, op := range ffs.Ops() {
				if !strings.HasSuffix(op.Point, ".mkdirall") {
					t.Errorf("clean reopen: %s %s", op.Point, op.Path)
				}
			}
		})
	}
}
