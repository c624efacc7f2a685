package extmem

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/faulttest"
	"xarch/internal/intervals"
	"xarch/internal/qlang"
	"xarch/internal/xmltree"
)

// TestViewsBesideWriter: views opened at any moment of 30 adds and a
// compaction are whole generations — every segment of the view's directory
// has its postings, one per record (no window in which a view falls back to
// the scan), every version reads back byte-identical — and once
// the last view closes nothing is left pinned: one generation in the
// table, exactly the live files in the directory.
func TestViewsBesideWriter(t *testing.T) {
	const adds = 30
	cfg := Config{Budget: 1 << 16, SegmentTarget: fragTarget}
	g := newInterleavedGrowth(40)
	docs := []string{g.doc()}
	for i := 0; i < adds; i++ {
		g.grow()
		docs = append(docs, g.doc())
	}
	// The expected bytes of every version, from an archive built alone.
	ref, err := Open(t.TempDir(), datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := addVersion(ref, strings.NewReader(d)); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]string, len(docs)+1)
	rq, _ := ref.OpenQuery()
	for v := 1; v <= len(docs); v++ {
		var b strings.Builder
		if err := rq.WriteVersion(v, &b, xmltree.WriteOptions{Indent: true}); err != nil {
			t.Fatal(err)
		}
		want[v] = b.String()
	}
	rq.Close()
	ref.Close()

	dir := t.TempDir()
	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	if err := addVersion(ar, strings.NewReader(docs[0])); err != nil {
		t.Fatal(err)
	}
	stop := readersBeside(t, ar, 4, func(r, i int, q *QueryView) {
		for _, root := range q.d.roots {
			for _, s := range root.segs {
				if posts, err := ar.postings(s); err != nil || len(posts) != max(len(s.entries), 1) {
					t.Errorf("reader %d: segment %s of the view of %d versions has %d postings (%v)", r, s.file, q.d.versions, len(posts), err)
				}
			}
		}
		v := 1 + i%q.Versions()
		var b strings.Builder
		if err := q.WriteVersion(v, &b, xmltree.WriteOptions{Indent: true}); err != nil {
			t.Errorf("reader %d: WriteVersion(%d) of %d: %v", r, v, q.d.versions, err)
		} else if b.String() != want[v] {
			t.Errorf("reader %d: version %d of %d differs from the archive built alone", r, v, q.d.versions)
		}
	})
	for i, d := range docs[1:] {
		if err := addVersion(ar, strings.NewReader(d)); err != nil {
			t.Fatalf("add %d: %v", i+2, err)
		}
		if i == adds/2 {
			if st, err := ar.Compact(); err != nil || st.Executed == 0 {
				t.Fatalf("compact: %+v, %v", st, err)
			}
		}
	}
	stop()

	ar.genMu.Lock()
	gens, refs := len(ar.gens), ar.current().refs
	ar.genMu.Unlock()
	if gens != 1 || refs != 0 || ar.gens[ar.current().id] != ar.current() {
		t.Errorf("after the last Close: %d generations in the table, %d pins on the current one", gens, refs)
	}
	if st := ar.StorageStats(); st.PinnedGenerations != 0 || st.Generation != adds+2 {
		t.Errorf("StorageStats: generation %d, %d pinned; want %d, 0", st.Generation, st.PinnedGenerations, adds+2)
	}
	live := ar.current().d.files()
	if segs := diskSegments(t, dir); len(segs) != len(live) {
		t.Errorf("%d segment files on disk, %d live", len(segs), len(live))
	}
	for _, f := range diskSegments(t, dir) {
		if !live[f] {
			t.Errorf("superseded segment %s survived the last Close", f)
		}
	}
	if tr := faulttest.Transient(t, dir); len(tr) != 0 {
		t.Errorf("transient files left: %v", tr)
	}
}

// readersBeside runs n readers beside ar's writer: each opens a view of the
// published generation, hands it to read with its number and a counter, and
// closes it, over and over, until stop is called; stop waits for them.
func readersBeside(t *testing.T, ar *Archiver, n int, read func(r, i int, q *QueryView)) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q, err := ar.OpenQuery()
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				read(r, i, q)
				q.Close()
				if t.Failed() {
					return
				}
			}
		}(r)
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestRecordTimesParsedAtCreation: every root and entry record carries its
// explicit timestamp parsed from the moment it is created, as the set its
// string names (and none when it inherits) — after adds of every kind (a
// tree, streamed XML, the empty version that terminates the root), a
// compaction, a reopen, a rebuild from meta.txt and adds after
// each. Readers query beside the writer: under -race they show that no
// published record is written once a view can see it.
func TestRecordTimesParsedAtCreation(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: fragTarget}
	g := newInterleavedGrowth(40)
	next := func() string {
		g.grow()
		return g.doc()
	}
	var ar *Archiver
	open := func() {
		t.Helper()
		var err error
		if ar, err = Open(dir, datagen.OMIMSpec(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	explicitRoots, explicitEntries := 0, 0
	check := func(phase string) {
		t.Helper()
		stamped := func(what, timeStr string, time *intervals.Set) {
			if (time == nil) != (timeStr == "") || time != nil && time.String() != timeStr {
				t.Errorf("%s: %s stamped %q carries %v", phase, what, timeStr, time)
			}
		}
		for _, r := range ar.current().d.roots {
			stamped("root "+r.name, r.timeStr, r.time)
			if r.time != nil {
				explicitRoots++
			}
			for _, s := range r.segs {
				for i := range s.entries {
					e := &s.entries[i]
					stamped(s.file+" entry "+keyLabel(e.name, e.key), e.timeStr, e.time)
					if e.time != nil {
						explicitEntries++
					}
				}
			}
		}
	}
	add := func(phase string, srcs ...Source) {
		t.Helper()
		items, err := ar.AddVersionBatch(srcs)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		for _, it := range items {
			if it.Err != nil {
				t.Fatalf("%s: %v", phase, it.Err)
			}
		}
		check(phase)
	}
	tree := func() Source {
		doc, err := xmltree.ParseString(next())
		if err != nil {
			t.Fatal(err)
		}
		return Source{Doc: doc}
	}
	streamed := func() Source { return Source{Reader: strings.NewReader(next())} }
	changed, err := qlang.Parse("changed 2..")
	if err != nil {
		t.Fatal(err)
	}

	open()
	add("first add", tree())
	stop := readersBeside(t, ar, 2, func(r, i int, q *QueryView) {
		if _, err := q.History("/ROOT"); err != nil {
			t.Errorf("reader %d: History: %v", r, err)
		}
		if _, err := q.Select(changed); err != nil {
			t.Errorf("reader %d: Select: %v", r, err)
		}
		if err := q.WriteVersion(1+i%q.Versions(), io.Discard, xmltree.WriteOptions{}); err != nil {
			t.Errorf("reader %d: WriteVersion: %v", r, err)
		}
	})
	for round := 0; round < 4; round++ {
		add("tree add", tree())
		add("streamed add", streamed())
		add("batch", tree(), streamed())
		if round == 1 {
			add("empty version", Source{})
		}
	}
	if st, err := ar.Compact(); err != nil || st.Executed == 0 {
		t.Fatalf("compact: %+v, %v", st, err)
	}
	check("compact")
	stop()
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	open()
	check("reopen")
	add("add after reopen", tree())
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, keydirFile)); err != nil {
		t.Fatal(err)
	}
	open()
	defer ar.Close()
	check("rebuild from meta.txt")
	add("add after rebuild", streamed())
	if explicitRoots == 0 || explicitEntries == 0 {
		t.Errorf("explicit timestamps checked: %d on roots, %d on entries; want some of each", explicitRoots, explicitEntries)
	}
}

// A view that is never closed pins disk space, not the writer; the gauge
// that makes it visible.
func TestPinnedGenerationsGauge(t *testing.T) {
	ar, err := Open(t.TempDir(), datagen.OMIMSpec(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	g := newInterleavedGrowth(5)
	add := func() {
		t.Helper()
		g.grow()
		if err := addVersion(ar, strings.NewReader(g.doc())); err != nil {
			t.Fatal(err)
		}
	}
	add()
	q1, _ := ar.OpenQuery()
	add()
	q2, _ := ar.OpenQuery()
	add()
	if st := ar.StorageStats(); st.Generation != 3 || st.PinnedGenerations != 2 {
		t.Errorf("two views on superseded generations: generation %d, %d pinned; want 3, 2", st.Generation, st.PinnedGenerations)
	}
	q1.Close()
	q2.Close()
	if st := ar.StorageStats(); st.PinnedGenerations != 0 || len(ar.gens) != 1 {
		t.Errorf("after Close: %d pinned, %d generations in the table", st.PinnedGenerations, len(ar.gens))
	}
}
