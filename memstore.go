package xarch

import (
	"io"
	"sync"

	"xarch/internal/core"
	"xarch/internal/keyindex"
	"xarch/internal/tstree"
	"xarch/internal/xmill"
	"xarch/internal/xmltree"
)

// MemStore is the in-memory engine of the Store interface: the nested-
// merge archiver of §4, holding the whole archive as an annotated tree.
// Query methods take a read lock, Add takes a write lock, so any number
// of concurrent readers run alongside a stream of Adds.
//
// The store-owned indexes are invalidated by Add and each is rebuilt
// lazily by the first query that reads it, so bulk ingest pays nothing
// for them, a History never builds the timestamp trees nor a Version the
// key lists, and queries never see a stale index.
type MemStore struct {
	mu     sync.RWMutex
	cfg    config
	a      *core.Archive
	tix    *tstree.Index   // §7.1 timestamp trees; nil when stale or off
	hix    *keyindex.Index // §7.2 sorted key lists; nil when stale or off
	closed bool
}

var _ Store = (*MemStore)(nil)

// NewStore returns an empty in-memory store for documents satisfying
// spec.
func NewStore(spec *KeySpec, opts ...Option) *MemStore {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return &MemStore{cfg: cfg, a: core.New(spec, cfg.coreOptions())}
}

// LoadStore reads an archive snapshot (as written by Snapshot) back into
// an in-memory store.
func LoadStore(r io.Reader, spec *KeySpec, opts ...Option) (*MemStore, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	a, err := core.LoadReader(r, spec, cfg.coreOptions())
	if err != nil {
		return nil, err
	}
	return &MemStore{cfg: cfg, a: a}, nil
}

// withIndex runs fn with the fresh index *ix, which build makes from the
// archive: s.tix or s.hix. The common case runs under the read lock,
// sharing with other readers; when an Add has invalidated the index, the
// rebuild and fn both run under the write lock, so one rebuild always
// suffices no matter how Adds interleave.
func withIndex[T any](s *MemStore, ix **T, build func(*core.Archive) *T, fn func(*T) error) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	if *ix != nil {
		err := fn(*ix)
		s.mu.RUnlock()
		return err
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if *ix == nil {
		*ix = build(s.a)
	}
	return fn(*ix)
}

// Add archives doc as the next version and invalidates the indexes; the
// next indexed query rebuilds them.
func (s *MemStore) Add(doc *Document) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.a.Add(doc); err != nil {
		return err
	}
	s.tix, s.hix = nil, nil
	return nil
}

// AddBatch archives docs as consecutive versions under one write lock.
// The in-memory engine has no durability protocol to amortize, so the
// batch is simply a sequence of Adds that readers observe atomically:
// every query issued during the batch sees either the state before it or
// a prefix of it, never a half-applied document. Per-document failures
// land in the matching AddResult and the rest of the batch proceeds.
func (s *MemStore) AddBatch(docs []*Document) ([]AddResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := make([]AddResult, len(docs))
	for k, doc := range docs {
		if err := s.a.Add(doc); err != nil {
			out[k].Err = err
			continue
		}
		out[k].Version = s.a.Versions()
	}
	s.tix, s.hix = nil, nil
	return out, nil
}

// AddReader parses the document from r and archives it.
func (s *MemStore) AddReader(r io.Reader) error {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return err
	}
	return s.Add(doc)
}

// Versions returns the number of archived versions.
func (s *MemStore) Versions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.a.Versions()
}

// Version reconstructs version n, through the timestamp trees when
// indexes are on (§7.1) and by archive scan otherwise.
func (s *MemStore) Version(n int) (*Document, error) {
	if !s.cfg.indexes {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.closed {
			return nil, ErrClosed
		}
		return s.a.Version(n)
	}
	var doc *Document
	err := withIndex(s, &s.tix, tstree.Build, func(tix *tstree.Index) error {
		var err error
		doc, err = tix.Version(n)
		return err
	})
	return doc, err
}

// WriteVersion writes the indented XML of version n to w.
func (s *MemStore) WriteVersion(n int, w io.Writer) error {
	doc, err := s.Version(n)
	if err != nil || doc == nil {
		return err // nil for an empty version
	}
	return doc.Write(w, xmltree.WriteOptions{Indent: true})
}

// History returns the versions in which the selected element exists,
// through the sorted-key-list index when indexes are on (§7.2).
func (s *MemStore) History(selector string) (*VersionSet, error) {
	if !s.cfg.indexes {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.closed {
			return nil, ErrClosed
		}
		return s.a.History(selector)
	}
	var h *VersionSet
	err := withIndex(s, &s.hix, keyindex.Build, func(hix *keyindex.Index) error {
		var err error
		h, err = hix.History(selector)
		return err
	})
	return h, err
}

// ContentHistory returns the versions at which the selected frontier
// element's content changed.
func (s *MemStore) ContentHistory(selector string) ([]int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.a.ContentHistory(selector)
}

// Stats summarizes the archive's structure.
func (s *MemStore) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return Stats{}, ErrClosed
	}
	return s.a.Stats(), nil
}

// Snapshot streams the archive's XML form to w; LoadStore reads it back.
func (s *MemStore) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	return s.a.WriteXML(w, true)
}

// Close releases the store; every later call fails with ErrClosed.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.tix, s.hix = nil, nil
	return nil
}

// CompressedSize returns the XMill-compressed size of the archive, the
// headline metric of §5.4.
func (s *MemStore) CompressedSize() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	return xmill.Size(s.a.ToXMLTree()), nil
}

// SameVersion reports whether doc is archive-equivalent to other under
// the store's key specification: keyed elements match by key rather than
// position (retrieval reorders keyed siblings, §2).
func (s *MemStore) SameVersion(doc, other *Document) (bool, error) {
	// Annotation caches are not read-safe, so this takes the write lock.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	return s.a.SameVersion(doc, other)
}

// ProbeStats reports the timestamp-tree probes of the last indexed
// Version call against the naive child-scan cost (§7.1); zeros when
// indexes are off.
func (s *MemStore) ProbeStats() (probes, naive int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.tix == nil {
		return 0, 0
	}
	return s.tix.ProbeStats()
}
