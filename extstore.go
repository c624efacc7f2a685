package xarch

import (
	"io"
	"sync"
	"sync/atomic"

	"xarch/internal/core"
	"xarch/internal/extmem"
	"xarch/internal/qlang"
	"xarch/internal/xmltree"
)

// ExtStore is the external-memory engine of the Store interface: the
// archiver of §6, maintaining the archive on disk as key-range-
// partitioned segment files plus a persistent key directory, and adding
// versions with bounded memory (a version is sorted in the writer's
// document slab — a streamed one larger than the memory budget in pieces,
// into runs that the merge reads directly; then a segment-local streaming
// merge rewrites only the segments whose key ranges the version touches).
//
// Queries stream too: Version, WriteVersion, History, ContentHistory and
// Stats never materialize an in-memory archive, so peak query memory is
// O(document depth + dictionary + one frontier record) — independent of
// archive and version count. Every query reads through the key directory:
// Version reads only the entries alive at the version asked for, Stats and
// Snapshot each root's segments in key order, and selective keyed
// selectors seek straight to the matching subtrees (History on a fully
// keyed selector reads no archive bytes at all).
//
// Readers never wait for a writer. Every committed state is one immutable
// generation — key directory and the dictionary's name table as of that
// commit — which the writer publishes in one step once the commit is
// durable, before the call that made it returns. A read loads the published generation, pins its segment
// files against deletion for as long as it scans them, and takes no lock
// that is ever held across a filesystem call or a merge: beside an Add or
// a Compact of any length it answers from the generation committed before
// it, and from the new one as soon as that call has returned. A
// replication view is such a read too: the generation carries the bytes
// of the state files its commit wrote. mu only keeps writers apart —
// AddBatch, AddReader's streamed form, Compact and Close run one at a
// time. What a reader can cost is disk: a view left open keeps its
// generation's superseded segment files (StorageStats.PinnedGenerations).
// Anyone who wants an in-RAM copy loads a Snapshot into a MemStore with
// LoadStore.
type ExtStore struct {
	mu     sync.Mutex // writer against writer; no read path takes it
	cfg    config
	ar     *extmem.Archiver
	closed atomic.Bool
}

var _ Store = (*ExtStore)(nil)

// OpenStore creates or reopens an external-memory store in dir. A
// directory still in a legacy on-disk layout fails with ErrLegacyFormat
// and is left untouched.
func OpenStore(dir string, spec *KeySpec, opts ...Option) (*ExtStore, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	ar, err := extmem.Open(dir, spec, extmem.Config{
		Budget:           cfg.budget,
		SegmentTarget:    cfg.segTarget,
		CompactionBudget: cfg.compBudget,
		NoAttrIndex:      cfg.noQueryIdx,
		SectionBudget:    int64(cfg.sectionBudget),
		FS:               cfg.fs,
	})
	if err != nil {
		return nil, err
	}
	return &ExtStore{cfg: cfg, ar: ar}, nil
}

// Add archives doc as the next version through the §6 pipeline.
func (s *ExtStore) Add(doc *Document) error {
	res, err := s.AddBatch([]*Document{doc})
	if err != nil {
		return err
	}
	return res[0].Err
}

// AddBatch archives docs as consecutive versions with ONE durable commit
// for the whole group: every document is loaded once into the writer's
// document slab, checked and sorted there — no serialization or
// re-parse, no runs — and merged against the uncommitted result of its
// predecessor, and only the final key directory goes through the staged
// commit (stage and fsync the state files, two
// renames around a directory fsync, one more to acknowledge). Group
// commit amortizes that protocol — and the segment rewrites of overlapping key ranges — across submitters,
// which is what the archive server's committer goroutine batches for.
// Readers never observe a partially applied batch: until the single
// commit lands, every query still answers from the previous generation.
//
// Per-document failures (key violations, pipeline errors) land in the
// matching AddResult; the document consumes no version number and the
// rest of the batch still commits. A non-nil
// error return means nothing was committed — and, if the failure was a
// durability-critical commit step, the store is now degraded
// (errors.Is(err, ErrDegraded)).
func (s *ExtStore) AddBatch(docs []*Document) ([]AddResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	srcs := make([]extmem.Source, len(docs))
	for k, doc := range docs {
		srcs[k] = extmem.Source{Doc: doc} // a nil doc is an empty version
	}
	out := make([]AddResult, len(docs))
	items, err := s.ar.AddVersionBatch(srcs)
	if err != nil {
		return out, err
	}
	for k, it := range items {
		out[k] = AddResult{Version: it.Version, Err: it.Err}
	}
	return out, nil
}

// CommitCount returns the number of durable key-directory commits
// (staged-commit runs) since the store was opened, including the open
// itself when it created or rebuilt the directory. With group commit a batch of N Adds moves it by one;
// the server tests compare it against submitter counts.
func (s *ExtStore) CommitCount() int64 {
	return s.ar.CommitCount()
}

// AddReader archives the XML document read from r as the next version,
// tokenized straight into the writer's reused document slab — no tree is
// built — and checked and sorted there, in pieces if it is larger than
// the memory budget (WithMemoryBudget). One piece is reported exactly like
// the in-memory engine's; more are refused at the first piece with
// violations, naming those, or at two children of the root with one key.
func (s *ExtStore) AddReader(r io.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	items, err := s.ar.AddVersionBatch([]extmem.Source{{Reader: r}})
	if err != nil {
		return err
	}
	return items[0].Err
}

// query opens a consistent streaming read view: the published generation,
// pinned. The caller scans (and must Close it) concurrently with other
// readers and with the writer, waiting for neither.
func (s *ExtStore) query() (*extmem.QueryView, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.ar.OpenQuery()
}

// Versions returns the number of archived versions.
func (s *ExtStore) Versions() int {
	return s.ar.Versions()
}

// Version reconstructs version n from one stream over the segment bytes
// alive at n (only version n's content is ever materialized).
func (s *ExtStore) Version(n int) (*Document, error) {
	q, err := s.query()
	if err != nil {
		return nil, err
	}
	defer q.Close()
	return q.Version(n)
}

// WriteVersion streams the indented XML of version n directly from the
// segment files to w — the version is never built in memory, and the bytes
// are identical to the in-memory engine's output.
func (s *ExtStore) WriteVersion(n int, w io.Writer) error {
	q, err := s.query()
	if err != nil {
		return err
	}
	defer q.Close()
	return q.WriteVersion(n, w, xmltree.WriteOptions{Indent: true})
}

// History returns the versions in which the selected element exists,
// resolving the selector through the key directory.
func (s *ExtStore) History(selector string) (*VersionSet, error) {
	q, err := s.query()
	if err != nil {
		return nil, err
	}
	defer q.Close()
	return q.History(selector)
}

// ContentHistory returns the versions at which the selected frontier
// element's content changed.
func (s *ExtStore) ContentHistory(selector string) ([]int, error) {
	q, err := s.query()
	if err != nil {
		return nil, err
	}
	defer q.Close()
	return q.ContentHistory(selector)
}

// Select evaluates a boolean query expression against the archive's
// records; see Store.Select. Through the segments' postings (the default)
// selective predicates answer from the index and read only the matched
// subtrees' bytes; with WithQueryIndex(false) the same expression streams
// the records and answers identically.
func (s *ExtStore) Select(expr string) ([]SelectResult, error) {
	e, err := qlang.Parse(expr)
	if err != nil {
		return nil, err
	}
	q, err := s.query()
	if err != nil {
		return nil, err
	}
	defer q.Close()
	return q.Select(e)
}

// Stats summarizes the archive's structure in one pass over the segments.
func (s *ExtStore) Stats() (Stats, error) {
	q, err := s.query()
	if err != nil {
		return Stats{}, err
	}
	defer q.Close()
	return q.Stats()
}

// Snapshot streams the archive's XML form to w, straight from the
// segment files, byte-identical to the in-memory engine's snapshot of the same
// archive; LoadStore reads it back into an in-memory store.
func (s *ExtStore) Snapshot(w io.Writer) error {
	q, err := s.query()
	if err != nil {
		return err
	}
	defer q.Close()
	return q.WriteArchiveXML(w)
}

// Close flushes metadata and releases the store; every later call fails
// with ErrClosed. The on-disk archive remains and can be reopened with
// OpenStore.
func (s *ExtStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Swap(true) {
		return nil
	}
	return s.ar.Close()
}

// CompressedSize returns the archive's on-disk size (§5.4): the
// dictionary-interned segment payloads plus the per-segment
// dictionaries. Unlike the in-memory engine's
// XMill figure this is a metadata walk over the key directory — no
// archive bytes are read.
func (s *ExtStore) CompressedSize() (int, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	return int(s.ar.CompressedSize()), nil
}

// SameVersion reports whether doc is archive-equivalent to other under
// the store's key specification. The comparison depends only on the key
// spec, so it runs on a throwaway annotator without materializing the
// archive.
func (s *ExtStore) SameVersion(doc, other *Document) (bool, error) {
	if s.closed.Load() {
		return false, ErrClosed
	}
	return core.New(s.ar.Spec(), s.cfg.coreOptions()).SameVersion(doc, other)
}

// SortRuns reports how many sorted runs the most recent add wrote (§6.2):
// zero when the version was sorted in memory in one piece — a tree, or a
// streamed document within the memory budget — and
// otherwise one per piece of a streamed version.
func (s *ExtStore) SortRuns() int {
	return s.ar.SortRuns()
}

// StorageStats reports the shape of the segmented on-disk layout: root
// and segment counts, key-directory size, and how much segment reuse the
// most recent Add achieved, the published generation's number and how
// many generations open views pin.
func (s *ExtStore) StorageStats() (extmem.StorageStats, error) {
	if s.closed.Load() {
		return extmem.StorageStats{}, ErrClosed
	}
	return s.ar.StorageStats(), nil
}

// Segments lists every segment file with its key range and fill ratio,
// verifying each payload checksum (reads the whole archive; meant for
// inspection tooling such as `xarch inspect`). Like any scan it pins the
// generation it walks: Adds proceed beside it and it reports the layout
// it started on.
func (s *ExtStore) Segments() ([]extmem.SegmentInfo, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.ar.Segments(), nil
}

// Compact coalesces every run of adjacent undersized segments (payload
// below half the segment target size) into right-sized segment files. The archive
// stream — and every query answer — is byte-identical before and after;
// only the file layout changes. Compact serializes with Add; open query
// views keep answering from the layout they captured, and superseded
// segment files are deleted when the last such view closes.
func (s *ExtStore) Compact() (extmem.CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return extmem.CompactStats{}, ErrClosed
	}
	return s.ar.Compact()
}

// CompactionPlan reports the coalesce runs a Compact call would rewrite,
// without touching any file (the `xarch compact -dry-run` view).
func (s *ExtStore) CompactionPlan() ([]extmem.CompactionRun, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.ar.CompactionPlan(), nil
}

// CompactionErr reports the error of the opportunistic post-Add
// compaction pass of the most recent Add, if any. The Add itself is
// unaffected — the version is durable before the pass starts and a
// failed pass leaves the committed layout untouched.
func (s *ExtStore) CompactionErr() error {
	return s.ar.Last().CompactErr
}

// Degraded reports whether the store's writer has been poisoned by a
// failed durability-critical commit step (fsync or rename): nil while
// healthy, otherwise an error satisfying errors.Is(err, ErrDegraded)
// naming the failed step. A degraded store keeps answering queries from
// the last committed generation but refuses further writes; reopening
// the directory (after `xarch fsck`) restores write service.
func (s *ExtStore) Degraded() error {
	if s.closed.Load() {
		return ErrClosed
	}
	return s.ar.Degraded()
}

// BytesRead returns the cumulative archive bytes read by queries and
// merges since the store was opened — the telemetry behind the
// directory-seek benchmarks (a selective query moves it by O(matched
// bytes), a full scan by O(archive)).
func (s *ExtStore) BytesRead() int64 {
	return s.ar.BytesRead()
}

// OpenReplicaView pins the published generation and returns a
// replication view over it: the state-file bytes that generation's commit
// wrote, plus streaming access to the segment files its key directory
// references. The pin keeps those files alive while a pull copies them,
// even as concurrent Adds commit newer generations; the caller must Close
// the view. Like every read it takes no lock and never waits for a
// writer: a commit that has not returned is not in the view.
func (s *ExtStore) OpenReplicaView() (*extmem.ReplicaView, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.ar.OpenReplicaView()
}
