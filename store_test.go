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

// TestMemStoreBuildsIndexPerQuery: an Add invalidates both indexes, and
// each query rebuilds only the one it reads — a History the key lists, a
// Version the timestamp trees.
func TestMemStoreBuildsIndexPerQuery(t *testing.T) {
	s := NewStore(mustSpec(t))
	for n := 1; n <= 3; n++ {
		addString(t, s, deptVersion(n))
	}
	if _, err := s.History("/db/dept[name=d2]"); err != nil {
		t.Fatal(err)
	}
	if s.tix != nil || s.hix == nil {
		t.Errorf("after Add, History: trees built %v, key lists built %v; want false, true", s.tix != nil, s.hix != nil)
	}
	addString(t, s, deptVersion(4))
	if _, err := s.Version(2); err != nil {
		t.Fatal(err)
	}
	if s.tix == nil || s.hix != nil {
		t.Errorf("after Add, Version: trees built %v, key lists built %v; want true, false", s.tix != nil, s.hix != nil)
	}
	if _, err := s.History("/db/dept[name=d4]"); err != nil {
		t.Fatal(err)
	}
	if s.tix == nil || s.hix == nil {
		t.Error("a History after a Version dropped the trees or built no key lists")
	}
}

// TestStructuredErrors checks that every failure mode is errors.Is /
// errors.As dispatchable on both engines.
func TestStructuredErrors(t *testing.T) {
	bothEngines(t, func(t *testing.T, s Store) {
		addString(t, s, deptVersion(2))

		if _, err := s.Version(99); !errors.Is(err, ErrNoSuchVersion) {
			t.Errorf("Version(99) = %v, want ErrNoSuchVersion", err)
		}
		if _, err := s.Version(0); !errors.Is(err, ErrNoSuchVersion) {
			t.Errorf("Version(0) = %v, want ErrNoSuchVersion", err)
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

// TestHistoryBelowFrontier: a selector that goes below a frontier node
// resolves the same on the indexed MemStore, the scanning one and the
// ExtStore. The §7.2 key index gave a frontier node no children, so the
// indexed store answered "no such element" for an element the other two
// found. Both versions hold the same content: content that changed is
// kept in timestamped groups, below which no engine resolves a selector.
func TestHistoryBelowFrontier(t *testing.T) {
	spec, err := ParseKeySpec(`(/, (db, {}))`)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := OpenStore(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	stores := map[string]Store{"indexed": NewStore(spec), "scan": NewStore(spec, WithIndexes(false)), "ext": ext}
	for v := 1; v <= 2; v++ {
		for name, s := range stores {
			if err := s.AddReader(strings.NewReader(`<db><dept><name>a</name><emp>x</emp></dept></db>`)); err != nil {
				t.Fatalf("%s: add %d: %v", name, v, err)
			}
		}
	}
	for _, sel := range []string{"/db/dept", "/db/dept/name", "/db/dept/emp"} {
		for name, s := range stores {
			got, err := s.History(sel)
			if err != nil || got.String() != "1-2" {
				t.Errorf("%s: History(%s) = %v, %v; want 1-2", name, sel, got, err)
			}
		}
	}
	for name, s := range stores {
		if _, err := s.History("/db/dept/nosuch"); !errors.Is(err, ErrNoSuchElement) {
			t.Errorf("%s: History(/db/dept/nosuch) = %v, want ErrNoSuchElement", name, err)
		}
	}
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

// TestStoreOptions exercises the remaining construction options through
// the public surface.
func TestStoreOptions(t *testing.T) {
	// Weak8 forces fingerprint collisions; archives must still be correct.
	weak := NewStore(mustSpec(t), WithFingerprint(Weak8))
	defer weak.Close()
	for n := 1; n <= 3; n++ {
		addString(t, weak, deptVersion(n))
	}
	h, err := weak.History("/db/dept[name=d1]")
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
