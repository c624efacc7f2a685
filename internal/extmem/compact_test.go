package extmem

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/fsio"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// interleavedGrowth emulates a growing curated database (the OMIM shape:
// /ROOT/Record{Num}) whose new records interleave the existing key
// space and then go cold — the workload that fragments the segmented
// layout: each insert splits the segment owning its key range into a
// right-sized file plus a small tail, and with the range never touched
// again the tail is stranded. Repeated small Adds therefore accumulate
// undersized neighbors, which is exactly what compaction exists to
// repair.
type interleavedGrowth struct {
	nums []int
	next int
	base int
}

func newInterleavedGrowth(records int) *interleavedGrowth {
	g := &interleavedGrowth{base: records}
	for k := 0; k < records; k++ {
		g.nums = append(g.nums, 10_000_000+k*1000)
	}
	return g
}

func (g *interleavedGrowth) doc() string {
	sorted := append([]int(nil), g.nums...)
	sort.Ints(sorted)
	var b strings.Builder
	b.WriteString("<ROOT>")
	for _, n := range sorted {
		fmt.Fprintf(&b, "<Record><Num>%08d</Num><Title>record %08d</Title><Text>%s</Text></Record>",
			n, n, strings.Repeat(fmt.Sprintf("body of record %08d. ", n), 55))
	}
	b.WriteString("</ROOT>")
	return b.String()
}

// grow inserts one record into the middle of a fresh (round-robin)
// region of the key space.
func (g *interleavedGrowth) grow() {
	r := g.next
	g.next++
	region := (r * 7) % g.base
	round := r / g.base
	g.nums = append(g.nums, 10_000_000+region*1000+800-round*100)
}

const fragTarget = 4096

// rawSegments runs a compaction test as the subtest "raw" over the
// compaction tests' configuration: segments small enough that the
// interleaved growth fragments them quickly.
func rawSegments(t *testing.T, body func(t *testing.T, cfg Config)) {
	t.Run("raw", func(t *testing.T) {
		body(t, Config{Budget: 1 << 16, SegmentTarget: fragTarget})
	})
}

// fragmentedArchive builds an archive under the interleaved-growth
// workload: adds small sequential versions until the layout holds
// stranded undersized tails.
func fragmentedArchive(t *testing.T, dir string, cfg Config, adds int) *Archiver {
	t.Helper()
	g := newInterleavedGrowth(100)
	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := addVersion(ar, strings.NewReader(g.doc())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < adds; i++ {
		g.grow()
		if err := addVersion(ar, strings.NewReader(g.doc())); err != nil {
			t.Fatalf("add v%d: %v", i+2, err)
		}
	}
	return ar
}

// diskSegments lists the segment files actually present in dir, reading
// the directory with the plain os package so a crashed FaultFS cannot
// hide what is really on disk.
func diskSegments(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		n := e.Name()
		if strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".tok") {
			out = append(out, n)
		}
	}
	return out
}

func segmentFiles(t *testing.T, ar *Archiver) []string {
	t.Helper()
	var out []string
	for f := range ar.current().d.files() {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// TestCompactionCoalesces pins the tentpole claim: Compact merges runs
// of undersized adjacent segments into right-sized files while leaving
// the concatenated archive stream — and every query answer — untouched
// down to the byte.
func TestCompactionCoalesces(t *testing.T) {
	rawSegments(t, func(t *testing.T, cfg Config) {
		dir := t.TempDir()
		ar := fragmentedArchive(t, dir, cfg, 30)
		wantStream := archiveStreamBytes(t, ar)
		wantXML := snapshotXML(t, ar)
		before := ar.StorageStats()
		plan := ar.CompactionPlan()
		if len(plan) == 0 {
			t.Fatalf("no coalesce runs planned over %d segments", before.Segments)
		}

		st, err := ar.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if st.Executed != st.Planned || st.Executed != len(plan) {
			t.Errorf("executed %d of %d planned runs (dry-run saw %d)", st.Executed, st.Planned, len(plan))
		}
		if st.Coalesced <= st.Created {
			t.Errorf("compaction did not shrink the layout: %+v", st)
		}
		after := ar.StorageStats()
		if after.Segments >= before.Segments {
			t.Errorf("segments %d -> %d, expected fewer", before.Segments, after.Segments)
		}
		if after.SegmentBytes != before.SegmentBytes {
			t.Errorf("payload bytes changed: %d -> %d", before.SegmentBytes, after.SegmentBytes)
		}
		if got := archiveStreamBytes(t, ar); string(got) != string(wantStream) {
			t.Errorf("archive stream changed under compaction")
		}
		if got := snapshotXML(t, ar); got != wantXML {
			t.Errorf("archive XML changed under compaction")
		}
		if rest := ar.CompactionPlan(); len(rest) != 0 {
			t.Errorf("runs still planned after an unbudgeted pass: %v", rest)
		}
		// The compacted layout survives a reopen.
		if err := ar.Close(); err != nil {
			t.Fatal(err)
		}
		ar2, err := Open(dir, datagen.OMIMSpec(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ar2.Close()
		if got := archiveStreamBytes(t, ar2); string(got) != string(wantStream) {
			t.Errorf("archive stream changed after reopen")
		}
	})
}

// TestOpportunisticCompactionBoundsSegments is the acceptance claim:
// after 50 small sequential Adds on the OMIM-shaped fixture, the
// budgeted post-Add pass keeps the segment-file count within 2x of the
// right-sized layout's count (what one bulk Add of the same stream
// would produce), where the unmaintained archive fragments past the
// maintained one — and the archives stay byte-identical.
func TestOpportunisticCompactionBoundsSegments(t *testing.T) {
	rawSegments(t, func(t *testing.T, cfg Config) {
		const adds = 50
		plain := t.TempDir()
		arPlain := fragmentedArchive(t, plain, cfg, adds)
		defer arPlain.Close()
		maintained := t.TempDir()
		cfg.CompactionBudget = 32 * 1024
		arComp := fragmentedArchive(t, maintained, cfg, adds)
		defer arComp.Close()

		if got, want := archiveStreamBytes(t, arComp), archiveStreamBytes(t, arPlain); string(got) != string(want) {
			t.Fatalf("maintained archive stream differs from unmaintained")
		}
		// The right-sized layout for this content: every root's payload cut
		// at the target — the count a single bulk Add of the same stream
		// would produce.
		ideal := 0
		for _, r := range arComp.current().d.roots {
			var bytes int64
			for _, s := range r.segs {
				bytes += s.payload
			}
			ideal += int(bytes/fragTarget) + 1
		}
		stComp := arComp.StorageStats()
		stPlain := arPlain.StorageStats()
		t.Logf("segments after %d adds: maintained=%d, unmaintained=%d, right-sized=%d",
			adds, stComp.Segments, stPlain.Segments, ideal)
		if stComp.Segments > 2*ideal {
			t.Errorf("maintained archive has %d segments, more than 2x the right-sized %d", stComp.Segments, ideal)
		}
		if stPlain.Segments <= stComp.Segments {
			t.Errorf("unmaintained archive (%d) did not fragment past the maintained one (%d)",
				stPlain.Segments, stComp.Segments)
		}
		if len(arPlain.CompactionPlan()) == 0 {
			t.Errorf("unmaintained archive has no coalesce runs to plan")
		}
		if arComp.Last().CompactErr != nil {
			t.Errorf("opportunistic pass failed: %v", arComp.Last().CompactErr)
		}
	})
}

// TestCompactionBudget: a budgeted pass rewrites no more than the budget
// (beyond the guaranteed first run) and leaves the rest for later
// passes.
func TestCompactionBudget(t *testing.T) {
	rawSegments(t, func(t *testing.T, cfg Config) {
		dir := t.TempDir()
		ar := fragmentedArchive(t, dir, cfg, 30)
		defer ar.Close()
		runs := ar.CompactionPlan()
		if len(runs) < 2 {
			t.Fatalf("layout produced only %d coalesce runs", len(runs))
		}
		st, err := ar.compact(1) // smaller than any run: exactly one executes
		if err != nil {
			t.Fatal(err)
		}
		if st.Executed != 1 {
			t.Errorf("budgeted pass executed %d runs, want exactly 1", st.Executed)
		}
		if rest := ar.CompactionPlan(); len(rest) != len(runs)-1 {
			t.Errorf("%d runs remain after a one-run pass over %d", len(rest), len(runs))
		}
	})
}

// TestCompactionCrashInjection simulates a kill between the compaction's
// segment writes and the key directory commit: on reopen the archive is
// byte-identical with the pre-compaction segment set and the orphan
// files are collected.
func TestCompactionCrashInjection(t *testing.T) {
	rawSegments(t, func(t *testing.T, cfg Config) {
		dir := t.TempDir()
		ffs := fsio.NewFaultFS(nil)
		fcfg := cfg
		fcfg.FS = ffs
		ar := fragmentedArchive(t, dir, fcfg, 30)
		wantStream := archiveStreamBytes(t, ar)
		wantXML := snapshotXML(t, ar)
		wantFiles := segmentFiles(t, ar)
		if len(ar.CompactionPlan()) == 0 {
			t.Fatal("nothing planned; fixture too small")
		}

		// Crash at the first rename of the directory commit: the coalesced
		// segment files are on disk but no committed state points at them —
		// and, because a crashed FaultFS fails the cleanup removes too, they
		// stay there exactly as a real kill would leave them.
		// (A compaction adds no name, so the commit does not write dict.txt:
		// meta.txt is the first file to take its name.)
		ffs.SetFault("meta.rename", fsio.Fault{Crash: true})
		_, err := ar.Compact()
		if !errors.Is(err, fsio.ErrCrashed) {
			t.Fatalf("Compact under crash fault: %v", err)
		}
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("crashed commit did not degrade the writer: %v", err)
		}

		// The "kill" left freshly written segment files on disk but no
		// directory pointing at them.
		orphans := 0
		live := map[string]bool{}
		for _, f := range wantFiles {
			live[f] = true
		}
		for _, name := range diskSegments(t, dir) {
			if !live[name] {
				orphans++
			}
		}
		if orphans == 0 {
			t.Fatal("crash simulation left no orphan segments; injection point moved?")
		}

		ar2, err := Open(dir, datagen.OMIMSpec(), cfg)
		if err != nil {
			t.Fatalf("reopen after crash: %v", err)
		}
		defer ar2.Close()
		if got := segmentFiles(t, ar2); fmt.Sprint(got) != fmt.Sprint(wantFiles) {
			t.Errorf("segment set changed across the crash:\n  before: %v\n  after:  %v", wantFiles, got)
		}
		if got := archiveStreamBytes(t, ar2); string(got) != string(wantStream) {
			t.Errorf("archive stream changed across the crash")
		}
		if got := snapshotXML(t, ar2); got != wantXML {
			t.Errorf("archive XML changed across the crash")
		}
		for _, p := range globSegments(ar2.fs, ar2.dir) {
			if !live[filepath.Base(p)] {
				t.Errorf("orphan segment %s survived reopen", filepath.Base(p))
			}
		}
		// The recovered archive compacts cleanly.
		if _, err := ar2.Compact(); err != nil {
			t.Fatalf("compact after recovery: %v", err)
		}
		if got := archiveStreamBytes(t, ar2); string(got) != string(wantStream) {
			t.Errorf("archive stream changed in post-recovery compaction")
		}
	})
}

// TestCompactionPinnedViews: query views opened before compaction (and
// before later Adds) never observe a compacted-away segment — they keep
// answering from the generation they pinned, and their segment files
// are swept only once the last view closes.
func TestCompactionPinnedViews(t *testing.T) {
	rawSegments(t, func(t *testing.T, cfg Config) {
		dir := t.TempDir()
		g := newInterleavedGrowth(100)
		ar, err := Open(dir, datagen.OMIMSpec(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ar.Close()
		if err := addVersion(ar, strings.NewReader(g.doc())); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			g.grow()
			if err := addVersion(ar, strings.NewReader(g.doc())); err != nil {
				t.Fatal(err)
			}
		}
		q, err := ar.OpenQuery()
		if err != nil {
			t.Fatal(err)
		}
		pinned := map[string]bool{}
		for f := range ar.current().d.files() {
			pinned[f] = true
		}
		var before strings.Builder
		if err := q.WriteVersion(3, &before, xmltree.WriteOptions{Indent: true}); err != nil {
			t.Fatal(err)
		}

		// Churn: compaction passes interleaved with Adds that fragment anew.
		for i := 0; i < 3; i++ {
			if _, err := ar.Compact(); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 5; j++ {
				g.grow()
			}
			if err := addVersion(ar, strings.NewReader(g.doc())); err != nil {
				t.Fatal(err)
			}
			// Every file of the pinned generation must still exist.
			for f := range pinned {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					t.Fatalf("pinned segment %s vanished during churn round %d: %v", f, i, err)
				}
			}
			var now strings.Builder
			if err := q.WriteVersion(3, &now, xmltree.WriteOptions{Indent: true}); err != nil {
				t.Fatalf("pinned view failed during churn round %d: %v", i, err)
			}
			if now.String() != before.String() {
				t.Fatalf("pinned view's answer changed during churn round %d", i)
			}
		}

		q.Close()
		// With the view closed, only the current generation's files remain.
		live := ar.current().d.files()
		for _, p := range globSegments(ar.fs, ar.dir) {
			if !live[filepath.Base(p)] {
				t.Errorf("superseded segment %s not swept after view close", filepath.Base(p))
			}
		}
	})
}

// TestOpportunisticCompactionPreservesQueries: the budgeted post-Add
// pass keeps engine parity — every query answer matches an archive
// built without compaction, including History resolved through the
// (rebuilt) key directory of the compacted layout.
func TestOpportunisticCompactionPreservesQueries(t *testing.T) {
	rawSegments(t, func(t *testing.T, cfg Config) {
		plain := t.TempDir()
		arPlain := fragmentedArchive(t, plain, cfg, 20)
		defer arPlain.Close()
		comp := t.TempDir()
		cfg.CompactionBudget = 32 * 1024
		arComp := fragmentedArchive(t, comp, cfg, 20)
		defer arComp.Close()
		if arComp.Last().CompactErr != nil {
			t.Fatalf("opportunistic pass failed: %v", arComp.Last().CompactErr)
		}
		if got, want := snapshotXML(t, arComp), snapshotXML(t, arPlain); got != want {
			t.Errorf("snapshots diverge under opportunistic compaction")
		}
		qc, err := arComp.OpenQuery()
		if err != nil {
			t.Fatal(err)
		}
		defer qc.Close()
		qp, err := arPlain.OpenQuery()
		if err != nil {
			t.Fatal(err)
		}
		defer qp.Close()
		for v := 1; v <= arPlain.Versions(); v += 7 {
			var a, b strings.Builder
			if err := qc.WriteVersion(v, &a, xmltree.WriteOptions{Indent: true}); err != nil {
				t.Fatal(err)
			}
			if err := qp.WriteVersion(v, &b, xmltree.WriteOptions{Indent: true}); err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Errorf("version %d diverges under opportunistic compaction", v)
			}
		}
		for _, sel := range []string{
			"/ROOT/Record[Num=10000000]",
			"/ROOT/Record[Num=10007800]", // a record inserted mid-growth
			"/ROOT/Record[Num=10099000]",
		} {
			hc, errc := qc.History(sel)
			hp, errp := qp.History(sel)
			if (errc == nil) != (errp == nil) {
				t.Fatalf("History(%s): compacted err %v, plain err %v", sel, errc, errp)
			}
			if errc == nil && !hc.Equal(hp) {
				t.Errorf("History(%s): compacted %q, plain %q", sel, hc, hp)
			}
		}
	})
}

// TestCompactKeepsKidSpans: the compactor writes through the segment
// writer, so the segments it creates carry captured postings — every
// non-frontier entry keeps its kid spans (the depth-3 seek path) through a
// compaction and through the reopen that loads the postings back. Run over
// the churn generator's seeds 1–10 and an accretive OMIM history, because
// shrinking postings were once seen on some seeds and never explained.
func TestCompactKeepsKidSpans(t *testing.T) {
	type history struct {
		name string
		spec *keys.Spec
		docs []*xmltree.Node
	}
	var histories []history
	for seed := int64(1); seed <= 10; seed++ {
		g := datagen.NewXMark(datagen.XMarkConfig{Seed: seed, Items: 36, People: 24, Categories: 4, OpenAucts: 12, ClosedAucts: 8})
		h := history{name: fmt.Sprintf("xmark-seed%d", seed), spec: g.Spec()}
		doc := g.Document()
		for v := 0; v < 4; v++ {
			h.docs = append(h.docs, doc)
			if v%2 == 0 {
				doc = g.RandomChanges(doc, 0.10)
			} else {
				doc = g.KeyModChanges(doc, 0.10)
			}
		}
		histories = append(histories, h)
	}
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 1, Records: 60, DeleteFrac: 0.02, InsertFrac: 0.05, ModifyFrac: 0.05})
	omim := history{name: "omim", spec: g.Spec()}
	for v := 0; v < 4; v++ {
		omim.docs = append(omim.docs, g.Next())
	}
	histories = append(histories, omim)

	for _, h := range histories {
		t.Run(h.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func(cfg Config) *Archiver {
				t.Helper()
				ar, err := Open(dir, h.spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return ar
			}
			// check returns the postings' size on disk.
			check := func(ar *Archiver, phase string) int64 {
				t.Helper()
				q, err := ar.OpenQuery()
				if err != nil {
					t.Fatal(err)
				}
				defer q.Close()
				for _, r := range q.d.roots {
					for _, s := range r.segs {
						for i := range s.entries {
							e := &s.entries[i]
							if r.raw || h.spec.IsFrontier(keys.Path([]string{r.name, e.name})) {
								continue
							}
							if ent, err := q.posting(s, i); err != nil || !ent.hasKids {
								t.Errorf("%s: %s entry %s has no kid spans (%v)", phase, s.file, keyLabel(e.name, e.key), err)
							}
						}
					}
				}
				return ar.StorageStats().PostingBytes
			}
			// One level-2 entry per file, so that under the default target the
			// whole layout is one coalesce run.
			ar := open(Config{SegmentTarget: 64})
			for _, doc := range h.docs {
				if items, err := ar.AddVersionBatch([]Source{{Doc: doc.Clone()}}); err != nil || items[0].Err != nil {
					t.Fatal(err, items)
				}
			}
			check(ar, "fragmented")
			if err := ar.Close(); err != nil {
				t.Fatal(err)
			}
			ar = open(Config{})
			before := check(ar, "reopened before compaction")
			st, err := ar.Compact()
			if err != nil || st.Executed == 0 {
				t.Fatalf("compaction did nothing: %+v, %v", st, err)
			}
			after := check(ar, "compacted")
			if err := ar.Close(); err != nil {
				t.Fatal(err)
			}
			ar = open(Config{})
			defer ar.Close()
			if got := check(ar, "reopened after compaction"); got != after {
				t.Errorf("postings are %d bytes after the reopen, %d before it", got, after)
			}
			// Fewer files means fewer section counts and CRCs, nothing else.
			if after < before*9/10 {
				t.Errorf("postings shrank from %d to %d bytes across Compact", before, after)
			}
			t.Logf("postings %d -> %d bytes, %d segments coalesced into %d", before, after, st.Coalesced, st.Created)
		})
	}
}
