package xarch

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"xarch/internal/xmltree"
)

func mustSpec(t *testing.T) *KeySpec {
	t.Helper()
	spec, err := ParseKeySpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func deptVersion(n int) string {
	// Version n holds departments d1..dn, so every Add changes history.
	var b strings.Builder
	b.WriteString("<db>")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "<dept><name>d%d</name><emp><fn>F%d</fn><ln>L%d</ln><sal>%dK</sal></emp></dept>", i, i, i, 50+i)
	}
	b.WriteString("</db>")
	return b.String()
}

func addString(t *testing.T, s Store, src string) {
	t.Helper()
	if err := s.AddReader(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
}

// bothEngines runs a subtest against a fresh store of each engine.
func bothEngines(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Run("mem", func(t *testing.T) {
		s := NewStore(mustSpec(t))
		defer s.Close()
		fn(t, s)
	})
	t.Run("ext", func(t *testing.T) {
		s, err := OpenStore(t.TempDir(), mustSpec(t), WithMemoryBudget(64))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fn(t, s)
	})
}

// TestEngineParity archives the same versions into both engines and
// checks that every query answers identically — byte-identically where
// the answer is serialized: both engines order keyed siblings by the same
// canonical key order, so the external engine's streaming scans must
// reproduce the in-memory engine's output exactly.
func TestEngineParity(t *testing.T) {
	spec := mustSpec(t)
	mem := NewStore(spec)
	ext, err := OpenStore(t.TempDir(), mustSpec(t), WithMemoryBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	stores := []Store{mem, ext}
	for n := 1; n <= 4; n++ {
		for _, s := range stores {
			addString(t, s, deptVersion(n))
		}
	}
	if mem.Versions() != ext.Versions() {
		t.Fatalf("versions: mem %d, ext %d", mem.Versions(), ext.Versions())
	}
	for n := 1; n <= 4; n++ {
		mv, err := mem.Version(n)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := ext.Version(n)
		if err != nil {
			t.Fatal(err)
		}
		if mv.IndentedXML() != ev.IndentedXML() {
			t.Errorf("version %d trees differ across engines:\n%s\nvs\n%s", n, mv.IndentedXML(), ev.IndentedXML())
		}
		var mw, ew strings.Builder
		if err := mem.WriteVersion(n, &mw); err != nil {
			t.Fatal(err)
		}
		if err := ext.WriteVersion(n, &ew); err != nil {
			t.Fatal(err)
		}
		if mw.String() != ew.String() {
			t.Errorf("WriteVersion(%d) bytes differ across engines", n)
		}
		if ew.String() != ev.IndentedXML() {
			t.Errorf("ext WriteVersion(%d) disagrees with ext Version", n)
		}
	}
	for _, sel := range []string{"/db/dept[name=d1]", "/db/dept[name=d3]", "/db/dept[name=d2]/emp[fn=F2,ln=L2]"} {
		mh, err := mem.History(sel)
		if err != nil {
			t.Fatal(err)
		}
		eh, err := ext.History(sel)
		if err != nil {
			t.Fatal(err)
		}
		if !mh.Equal(eh) {
			t.Errorf("history %s: mem %q, ext %q", sel, mh, eh)
		}
	}
	// Content history on frontier elements (sal is a frontier node).
	for _, sel := range []string{"/db/dept[name=d1]/emp[fn=F1,ln=L1]/sal", "/db/dept[name=d2]/emp[fn=F2,ln=L2]"} {
		mc, merr := mem.ContentHistory(sel)
		ec, eerr := ext.ContentHistory(sel)
		if (merr == nil) != (eerr == nil) {
			t.Fatalf("ContentHistory(%s): mem err %v, ext err %v", sel, merr, eerr)
		}
		if fmt.Sprint(mc) != fmt.Sprint(ec) {
			t.Errorf("ContentHistory(%s): mem %v, ext %v", sel, mc, ec)
		}
	}
	// Full stats equality, including the serialized archive size.
	ms, err := mem.Stats()
	if err != nil {
		t.Fatal(err)
	}
	es, err := ext.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ms != es {
		t.Errorf("stats differ:\nmem %+v\next %+v", ms, es)
	}
	// Snapshots are byte-identical: same archive, same serialization.
	var msnap, esnap strings.Builder
	if err := mem.Snapshot(&msnap); err != nil {
		t.Fatal(err)
	}
	if err := ext.Snapshot(&esnap); err != nil {
		t.Fatal(err)
	}
	if msnap.String() != esnap.String() {
		t.Errorf("snapshots differ across engines (%d vs %d bytes)", msnap.Len(), esnap.Len())
	}
}

// TestEngineParityReopened pins byte-identical query output between the
// in-memory engine and external archives of the same versions that went
// through a close and reopen: what is on disk, not what the writing
// session had in memory, answers every query. The versions go in parsed
// (sorted in memory) and,
// with validation off, streamed at a 16-node memory budget, which sorts
// every version but the first in several runs.
func TestEngineParityReopened(t *testing.T) {
	mem := NewStore(mustSpec(t))
	defer mem.Close()
	for n := 1; n <= 4; n++ {
		addString(t, mem, deptVersion(n))
	}

	sameAsMem := func(t *testing.T, s Store) {
		t.Helper()
		if mem.Versions() != s.Versions() {
			t.Fatalf("versions: mem %d, got %d", mem.Versions(), s.Versions())
		}
		for n := 1; n <= 4; n++ {
			var mw, sw strings.Builder
			if err := mem.WriteVersion(n, &mw); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteVersion(n, &sw); err != nil {
				t.Fatal(err)
			}
			if mw.String() != sw.String() {
				t.Errorf("WriteVersion(%d) bytes differ from mem engine", n)
			}
		}
		for _, sel := range []string{"/db/dept[name=d1]", "/db/dept[name=d2]/emp[fn=F2,ln=L2]"} {
			mh, err := mem.History(sel)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := s.History(sel)
			if err != nil {
				t.Fatal(err)
			}
			if !mh.Equal(sh) {
				t.Errorf("history %s: mem %q, got %q", sel, mh, sh)
			}
			mc, err := mem.ContentHistory(sel)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := s.ContentHistory(sel)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(mc) != fmt.Sprint(sc) {
				t.Errorf("ContentHistory(%s): mem %v, got %v", sel, mc, sc)
			}
		}
		ms, err := mem.Stats()
		if err != nil {
			t.Fatal(err)
		}
		ss, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if ms != ss {
			t.Errorf("stats differ:\nmem %+v\ngot %+v", ms, ss)
		}
		var msnap, ssnap strings.Builder
		if err := mem.Snapshot(&msnap); err != nil {
			t.Fatal(err)
		}
		if err := s.Snapshot(&ssnap); err != nil {
			t.Fatal(err)
		}
		if msnap.String() != ssnap.String() {
			t.Errorf("snapshots differ (%d vs %d bytes)", msnap.Len(), ssnap.Len())
		}
	}

	for _, stream := range []bool{false, true} {
		dir := t.TempDir()
		opts := []Option{WithMemoryBudget(16), WithValidation(!stream)}
		ext, err := OpenStore(dir, mustSpec(t), opts...)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 4; n++ {
			addString(t, ext, deptVersion(n))
		}
		if runs := ext.SortRuns(); (runs > 1) != stream {
			t.Errorf("stream=%v: last add formed %d sorted runs", stream, runs)
		}
		if err := ext.Close(); err != nil {
			t.Fatal(err)
		}
		ext, err = OpenStore(dir, mustSpec(t), opts...)
		if err != nil {
			t.Fatal(err)
		}
		sameAsMem(t, ext)
		if n, err := ext.CompressedSize(); err != nil || n <= 0 {
			t.Errorf("CompressedSize on reopened store (stream=%v): %d, %v", stream, n, err)
		}
		ext.Close()
	}
}

// TestTreeAddKeepsWhatReparsingLost adds hand-built documents whose
// values do not survive a serialize-and-parse round trip (an XML parser
// turns a carriage return into a line feed). The external engine ingests
// the tree as it is, so it must answer exactly like the in-memory engine,
// in a key value as much as in frontier content.
func TestTreeAddKeepsWhatReparsingLost(t *testing.T) {
	build := func(n int) *Document {
		doc, err := ParseXMLString(deptVersion(n))
		if err != nil {
			t.Fatal(err)
		}
		dept := doc.Child("dept")
		dept.Child("name").Children[0].Data = "d\r1"
		dept.Child("emp").Child("sal").Children[0].Data = fmt.Sprintf("%dK\r\n.", 50+n)
		return doc
	}
	mem := NewStore(mustSpec(t))
	defer mem.Close()
	ext, err := OpenStore(t.TempDir(), mustSpec(t), WithMemoryBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	for n := 1; n <= 3; n++ {
		for _, s := range []Store{mem, ext} {
			if err := s.Add(build(n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for n := 1; n <= 3; n++ {
		var mw, ew strings.Builder
		if err := mem.WriteVersion(n, &mw); err != nil {
			t.Fatal(err)
		}
		if err := ext.WriteVersion(n, &ew); err != nil {
			t.Fatal(err)
		}
		if mw.String() != ew.String() {
			t.Errorf("WriteVersion(%d) bytes differ across engines:\n%q\nvs\n%q", n, mw.String(), ew.String())
		}
		if strings.Count(ew.String(), "&#13;") != 2 || strings.Contains(ew.String(), "\r") {
			t.Errorf("version %d does not carry its two carriage returns as references: %q", n, ew.String())
		}
	}
	var msnap, esnap strings.Builder
	if err := mem.Snapshot(&msnap); err != nil {
		t.Fatal(err)
	}
	if err := ext.Snapshot(&esnap); err != nil {
		t.Fatal(err)
	}
	if msnap.String() != esnap.String() {
		t.Errorf("snapshots differ across engines (%d vs %d bytes)", msnap.Len(), esnap.Len())
	}
}

// TestCarriageReturnSurvivesRetrieval: the §2 contract — every version
// comes back identical — for a value holding a carriage return, in a key,
// in frontier text and in an attribute, through every way a version leaves
// either engine. Written raw, the next parser would read it as a line feed.
func TestCarriageReturnSurvivesRetrieval(t *testing.T) {
	// Siblings stand in label order, the order retrieval returns them in.
	const src = `<db><dept><emp><fn>F</fn><ln>L</ln><sal cur="p&#13;q">x&#13;y&#13;&#10;z</sal></emp><name>d&#13;1</name></dept></db>`
	want, err := ParseXMLString(src)
	if err != nil {
		t.Fatal(err)
	}
	bothEngines(t, func(t *testing.T, s Store) {
		addString(t, s, src)
		same := func(how string, got *Document, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", how, err)
			}
			if !xmltree.Equal(want, got) {
				t.Errorf("%s changed the version: %q", how, got.XML())
			}
		}
		got, err := s.Version(1)
		same("Version", got, err)
		var indented, plain strings.Builder
		if err := s.WriteVersion(1, &indented); err != nil {
			t.Fatal(err)
		}
		got, err = ParseXMLString(indented.String())
		same("WriteVersion", got, err)
		if ext, ok := s.(*ExtStore); ok {
			q, err := ext.query()
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			if err := q.WriteVersion(1, &plain, xmltree.WriteOptions{}); err != nil {
				t.Fatal(err)
			}
			got, err = ParseXMLString(plain.String())
			same("plain WriteVersion", got, err)
		}
	})
}

// TestStreamingQueryAfterAdd pins the ingest/query interleaving contract
// on the streaming path: a query issued immediately after every Add sees
// the new version, byte-identical to the in-memory engine.
func TestStreamingQueryAfterAdd(t *testing.T) {
	mem := NewStore(mustSpec(t))
	defer mem.Close()
	ext, err := OpenStore(t.TempDir(), mustSpec(t), WithMemoryBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	for n := 1; n <= 5; n++ {
		addString(t, mem, deptVersion(n))
		addString(t, ext, deptVersion(n))
		var mw, ew strings.Builder
		if err := mem.WriteVersion(n, &mw); err != nil {
			t.Fatal(err)
		}
		if err := ext.WriteVersion(n, &ew); err != nil {
			t.Fatalf("streaming WriteVersion right after Add %d: %v", n, err)
		}
		if mw.String() != ew.String() {
			t.Fatalf("version %d bytes differ right after Add", n)
		}
		sel := fmt.Sprintf("/db/dept[name=d%d]", n)
		h, err := ext.History(sel)
		if err != nil {
			t.Fatalf("History(%s) right after Add: %v", sel, err)
		}
		if h.String() != fmt.Sprint(n) {
			t.Fatalf("History(%s) = %q right after Add, want %d", sel, h, n)
		}
	}
}

// TestIndexFreshness checks that a query issued right after an Add sees
// the new version without any manual index rebuild — the indexes belong
// to the store.
func TestIndexFreshness(t *testing.T) {
	bothEngines(t, func(t *testing.T, s Store) {
		for n := 1; n <= 3; n++ {
			addString(t, s, deptVersion(n))
			// History of the department introduced by this very Add.
			sel := fmt.Sprintf("/db/dept[name=d%d]", n)
			h, err := s.History(sel)
			if err != nil {
				t.Fatalf("after add %d: %v", n, err)
			}
			want := fmt.Sprintf("%d", n)
			if h.String() != want {
				t.Errorf("after add %d: history %s = %q, want %q", n, sel, h, want)
			}
			// Retrieval of the version added a moment ago.
			v, err := s.Version(n)
			if err != nil {
				t.Fatalf("after add %d: %v", n, err)
			}
			if got := len(v.ChildrenNamed("dept")); got != n {
				t.Errorf("after add %d: version has %d departments, want %d", n, got, n)
			}
		}
	})
}

// TestConcurrentReaders hammers Version/History/Stats/Snapshot from many
// goroutines while a writer keeps adding versions. Run under -race this
// is the store's concurrency contract.
func TestConcurrentReaders(t *testing.T) {
	bothEngines(t, func(t *testing.T, s Store) {
		const (
			preload = 3
			extra   = 4
			readers = 8
		)
		for n := 1; n <= preload; n++ {
			addString(t, s, deptVersion(n))
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					n := 1 + i%preload
					v, err := s.Version(n)
					if err != nil {
						t.Errorf("reader %d: Version(%d): %v", r, n, err)
						return
					}
					if len(v.ChildrenNamed("dept")) != n {
						t.Errorf("reader %d: version %d wrong shape", r, n)
						return
					}
					if err := s.WriteVersion(n, io.Discard); err != nil {
						t.Errorf("reader %d: WriteVersion(%d): %v", r, n, err)
						return
					}
					if _, err := s.History("/db/dept[name=d1]"); err != nil {
						t.Errorf("reader %d: History: %v", r, err)
						return
					}
					if _, err := s.ContentHistory("/db/dept[name=d1]/emp[fn=F1,ln=L1]/sal"); err != nil {
						t.Errorf("reader %d: ContentHistory: %v", r, err)
						return
					}
					if _, err := s.Stats(); err != nil {
						t.Errorf("reader %d: Stats: %v", r, err)
						return
					}
					if err := s.Snapshot(io.Discard); err != nil {
						t.Errorf("reader %d: Snapshot: %v", r, err)
						return
					}
				}
			}(r)
		}
		for n := preload + 1; n <= preload+extra; n++ {
			addString(t, s, deptVersion(n))
		}
		close(stop)
		wg.Wait()
		// After the dust settles every version is visible.
		for n := 1; n <= preload+extra; n++ {
			v, err := s.Version(n)
			if err != nil {
				t.Fatal(err)
			}
			if len(v.ChildrenNamed("dept")) != n {
				t.Errorf("final check: version %d wrong shape", n)
			}
		}
	})
}

// TestStructuredErrors checks that every failure mode is errors.Is /
// errors.As dispatchable on both engines.
func TestStructuredErrors(t *testing.T) {
	bothEngines(t, func(t *testing.T, s Store) {
		addString(t, s, deptVersion(2))

		if _, err := s.Version(99); !errors.Is(err, ErrNoSuchVersion) {
			t.Errorf("Version(99) = %v, want ErrNoSuchVersion", err)
		}
		if err := s.WriteVersion(0, io.Discard); !errors.Is(err, ErrNoSuchVersion) {
			t.Errorf("WriteVersion(0) = %v, want ErrNoSuchVersion", err)
		}
		if _, err := s.History("/db/dept[name=nosuch]"); !errors.Is(err, ErrNoSuchElement) {
			t.Errorf("History(nosuch) = %v, want ErrNoSuchElement", err)
		}
		if _, err := s.History("/db/dept"); !errors.Is(err, ErrAmbiguousSelector) {
			t.Errorf("History(ambiguous) = %v, want ErrAmbiguousSelector", err)
		}
		if _, err := s.History("not-a-selector"); !errors.Is(err, ErrBadSelector) {
			t.Errorf("History(garbage) = %v, want ErrBadSelector", err)
		}

		// Key violations carry every individual violation.
		bad, err := ParseXMLString(`<db><dept><name>x</name></dept><dept><name>x</name></dept><stray/></db>`)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Add(bad)
		if err == nil {
			t.Fatal("Add of invalid document succeeded")
		}
		var kv *KeyViolationError
		if !errors.As(err, &kv) {
			t.Fatalf("Add error %v does not carry *KeyViolationError", err)
		}
		if len(kv.Violations) < 2 {
			t.Errorf("expected duplicate-key and unkeyed-element violations, got %v", kv.Violations)
		}
		// AddReader enforces the same validation on both engines.
		err = s.AddReader(strings.NewReader(bad.XML()))
		if !errors.As(err, &kv) {
			t.Errorf("AddReader error %v does not carry *KeyViolationError", err)
		}
		// The store is unchanged by a rejected Add.
		if s.Versions() != 1 {
			t.Errorf("rejected Add changed version count to %d", s.Versions())
		}

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(nil); !errors.Is(err, ErrClosed) {
			t.Errorf("Add after Close = %v, want ErrClosed", err)
		}
		// Even an invalid document reports ErrClosed, not a validation
		// error: the lifecycle check comes first.
		if err := s.Add(bad); !errors.Is(err, ErrClosed) {
			t.Errorf("Add(bad) after Close = %v, want ErrClosed", err)
		}
		if _, err := s.History("/db"); !errors.Is(err, ErrClosed) {
			t.Errorf("History after Close = %v, want ErrClosed", err)
		}
	})
}

// TestValidateDocumentStructured checks the standalone validator's error
// shape.
func TestValidateDocumentStructured(t *testing.T) {
	spec := mustSpec(t)
	ok, err := ParseXMLString(deptVersion(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateDocument(spec, ok); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	bad, err := ParseXMLString(`<db><oops/></db>`)
	if err != nil {
		t.Fatal(err)
	}
	verr := ValidateDocument(spec, bad)
	var kv *KeyViolationError
	if !errors.As(verr, &kv) || len(kv.Violations) == 0 {
		t.Fatalf("ValidateDocument = %v, want *KeyViolationError with violations", verr)
	}
	if kv.Violations[0].Path == "" || kv.Violations[0].Msg == "" {
		t.Errorf("violation lacks structure: %+v", kv.Violations[0])
	}
}

// TestEmptyVersions checks nil-document Adds through the Store interface.
func TestEmptyVersions(t *testing.T) {
	bothEngines(t, func(t *testing.T, s Store) {
		addString(t, s, deptVersion(1))
		if err := s.Add(nil); err != nil {
			t.Fatal(err)
		}
		addString(t, s, deptVersion(2))
		if s.Versions() != 3 {
			t.Fatalf("versions = %d, want 3", s.Versions())
		}
		v2, err := s.Version(2)
		if err != nil {
			t.Fatal(err)
		}
		if v2 != nil {
			t.Errorf("empty version came back non-nil: %s", v2.XML())
		}
		var buf strings.Builder
		if err := s.WriteVersion(2, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 0 {
			t.Errorf("WriteVersion of empty version wrote %q", buf.String())
		}
		h, err := s.History("/db/dept[name=d1]")
		if err != nil {
			t.Fatal(err)
		}
		if h.String() != "1,3" {
			t.Errorf("history around empty version = %q, want 1,3", h)
		}
	})
}

// TestWithIndexesOff checks that the unindexed fallback answers the same
// queries.
func TestWithIndexesOff(t *testing.T) {
	spec := mustSpec(t)
	plain := NewStore(spec, WithIndexes(false))
	indexed := NewStore(mustSpec(t))
	for n := 1; n <= 3; n++ {
		addString(t, plain, deptVersion(n))
		addString(t, indexed, deptVersion(n))
	}
	for n := 1; n <= 3; n++ {
		pv, err := plain.Version(n)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := indexed.Version(n)
		if err != nil {
			t.Fatal(err)
		}
		same, err := plain.SameVersion(pv, iv)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Errorf("version %d differs with indexes off", n)
		}
	}
	ph, err := plain.History("/db/dept[name=d2]")
	if err != nil {
		t.Fatal(err)
	}
	ih, err := indexed.History("/db/dept[name=d2]")
	if err != nil {
		t.Fatal(err)
	}
	if !ph.Equal(ih) {
		t.Errorf("history differs with indexes off: %q vs %q", ph, ih)
	}
	if p, n := plain.ProbeStats(); p != 0 || n != 0 {
		t.Errorf("ProbeStats with indexes off = %d/%d, want zeros", p, n)
	}
}

// TestStoreOptions exercises the remaining construction options through
// the public surface.
func TestStoreOptions(t *testing.T) {
	// WithValidation(false) accepts a document the validator rejects.
	lax := NewStore(mustSpec(t), WithValidation(false), WithFingerprint(Weak8))
	defer lax.Close()
	// Weak8 forces fingerprint collisions; archives must still be correct.
	for n := 1; n <= 3; n++ {
		addString(t, lax, deptVersion(n))
	}
	h, err := lax.History("/db/dept[name=d1]")
	if err != nil {
		t.Fatal(err)
	}
	if h.String() != "1-3" {
		t.Errorf("Weak8 history = %q, want 1-3", h)
	}

	// WithCompaction produces an equivalent, reloadable archive.
	weave := NewStore(mustSpec(t), WithCompaction(true))
	defer weave.Close()
	for n := 1; n <= 3; n++ {
		addString(t, weave, deptVersion(n))
	}
	var b strings.Builder
	if err := weave.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	back, err := LoadStore(strings.NewReader(b.String()), mustSpec(t), WithCompaction(true))
	if err != nil {
		t.Fatal(err)
	}
	v3, err := back.Version(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(v3.ChildrenNamed("dept")) != 3 {
		t.Errorf("compacted archive lost departments: %s", v3.XML())
	}
}
