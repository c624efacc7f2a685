package xarch

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustParse(t *testing.T, src string) *Document {
	t.Helper()
	doc, err := ParseXMLString(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestAddBatchGroupCommit is the group-commit contract on the external
// engine: N documents land as N consecutive versions under ONE keydir
// commit, byte-identical to the same documents added one by one to the
// in-memory engine.
func TestAddBatchGroupCommit(t *testing.T) {
	ext, err := OpenStore(t.TempDir(), mustSpec(t), WithMemoryBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	mem := NewStore(mustSpec(t))
	defer mem.Close()

	docs := make([]*Document, 4)
	for i := range docs {
		docs[i] = mustParse(t, deptVersion(i+1))
		addString(t, mem, deptVersion(i+1))
	}
	c0 := ext.CommitCount()
	results, err := ext.AddBatch(docs)
	if err != nil {
		t.Fatal(err)
	}
	if got := ext.CommitCount() - c0; got != 1 {
		t.Errorf("batch of %d ran %d keydir commits, want exactly 1", len(docs), got)
	}
	for k, r := range results {
		if r.Err != nil {
			t.Fatalf("doc %d: %v", k, r.Err)
		}
		if r.Version != k+1 {
			t.Errorf("doc %d landed as version %d, want %d", k, r.Version, k+1)
		}
	}
	if ext.Versions() != 4 {
		t.Fatalf("Versions() = %d, want 4", ext.Versions())
	}
	for n := 1; n <= 4; n++ {
		var e, m bytes.Buffer
		if err := ext.WriteVersion(n, &e); err != nil {
			t.Fatal(err)
		}
		if err := mem.WriteVersion(n, &m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.Bytes(), m.Bytes()) {
			t.Errorf("version %d differs from the one-by-one in-memory archive", n)
		}
	}
	// The batch is one write transaction but versions stay individually
	// addressable: history across the batch is the same as ever.
	h, err := ext.History("/db/dept[name=d1]")
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Versions(); len(got) != 4 {
		t.Errorf("history across batch = %v, want all 4 versions", got)
	}
}

// TestAddBatchPerDocError pins failure isolation: a document that
// violates the key spec consumes no version and fails only its own
// AddResult; the rest of the batch commits contiguously. A nil document
// archives an empty version, like Add of an empty database. A parsed
// document is sorted in one piece whatever the memory budget, so a store
// with a 4-node budget refuses the two same-key siblings with the same
// report.
func TestAddBatchPerDocError(t *testing.T) {
	check := func(t *testing.T, s Store) {
		docs := []*Document{
			mustParse(t, deptVersion(1)),
			// Two depts with the same key violate (/db, (dept, {name})).
			mustParse(t, "<db><dept><name>dup</name></dept><dept><name>dup</name></dept></db>"),
			nil,
			mustParse(t, deptVersion(2)),
		}
		results, err := s.AddBatch(docs)
		if err != nil {
			t.Fatal(err)
		}
		var kv *KeyViolationError
		if !errors.As(results[1].Err, &kv) || len(kv.Violations) != 1 || kv.Violations[0].Msg != "duplicate key value among targets" {
			t.Errorf("violating doc: err = %v, want a KeyViolationError naming the duplicate", results[1].Err)
		}
		want := []int{1, 0, 2, 3} // versions stay contiguous around the failure
		for k, r := range results {
			if k == 1 {
				continue
			}
			if r.Err != nil {
				t.Fatalf("doc %d: %v", k, r.Err)
			}
			if r.Version != want[k] {
				t.Errorf("doc %d landed as version %d, want %d", k, r.Version, want[k])
			}
		}
		if s.Versions() != 3 {
			t.Fatalf("Versions() = %d, want 3", s.Versions())
		}
		// The nil doc really is an empty version.
		if h, err := s.History("/db/dept[name=d1]"); err != nil {
			t.Fatal(err)
		} else if got := fmt.Sprint(h.Versions()); got != "[1 3]" {
			t.Errorf("d1 history = %s, want [1 3] (absent from the empty version 2)", got)
		}
	}
	bothEngines(t, check)
	t.Run("ext-budget4", func(t *testing.T) {
		s, err := OpenStore(t.TempDir(), mustSpec(t), WithMemoryBudget(4))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		check(t, s)
	})
}

// TestAddBatchConcurrentReaders races readers against group-committed
// ingest bursts on both engines: every version a batch reports must read
// back byte-identical to the known expectation, no matter how reads
// interleave with later batches. Run with -race this is the
// reader/committer isolation proof at the Store API level.
func TestAddBatchConcurrentReaders(t *testing.T) {
	const (
		batches   = 5
		batchSize = 3
	)
	total := batches * batchSize
	// Precompute every version's expected bytes via a disposable
	// in-memory archive, so readers can check any version the moment a
	// batch reports it.
	expected := make([][]byte, total+1)
	{
		mirror := NewStore(mustSpec(t))
		for n := 1; n <= total; n++ {
			addString(t, mirror, deptVersion(n))
			var b bytes.Buffer
			if err := mirror.WriteVersion(n, &b); err != nil {
				t.Fatal(err)
			}
			expected[n] = b.Bytes()
		}
		mirror.Close()
	}

	bothEngines(t, func(t *testing.T, s Store) {
		var (
			mu        sync.Mutex
			committed int // highest version already reported by a batch
			wg        sync.WaitGroup
		)
		stop := make(chan struct{})
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				next := 1
				for {
					mu.Lock()
					limit := committed
					mu.Unlock()
					if next > limit {
						if next > total {
							return
						}
						select {
						case <-stop:
							// committed reaches total before stop closes, so
							// keep draining the remaining versions.
						case <-time.After(time.Millisecond):
						}
						continue
					}
					var b bytes.Buffer
					if err := s.WriteVersion(next, &b); err != nil {
						t.Errorf("version %d: %v", next, err)
						return
					}
					if !bytes.Equal(b.Bytes(), expected[next]) {
						t.Errorf("version %d read back differently during ingest", next)
						return
					}
					next++
				}
			}()
		}
		for b := 0; b < batches; b++ {
			docs := make([]*Document, batchSize)
			for k := range docs {
				docs[k] = mustParse(t, deptVersion(b*batchSize+k+1))
			}
			results, err := s.AddBatch(docs)
			if err != nil {
				t.Fatal(err)
			}
			for k, r := range results {
				if r.Err != nil {
					t.Fatalf("batch %d doc %d: %v", b, k, r.Err)
				}
				if want := b*batchSize + k + 1; r.Version != want {
					t.Fatalf("batch %d doc %d: version %d, want %d", b, k, r.Version, want)
				}
			}
			mu.Lock()
			committed = (b + 1) * batchSize
			mu.Unlock()
		}
		close(stop)
		wg.Wait()
	})
}
