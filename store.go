package xarch

import (
	"io"

	"xarch/internal/core"
	"xarch/internal/fsio"
)

// Store is the one interface over both archiver engines: the in-memory
// nested-merge archiver (§4, MemStore) and the external-memory archiver
// (§6, ExtStore). Every consumer — CLI, examples, benchmarks — can work
// against either engine unchanged.
//
// A Store keeps its query structures fresh itself: the in-memory engine
// invalidates its §7 indexes on Add and rebuilds them on the next query;
// the external engine reads the segments of the generation committed when
// the query started, so every query sees the archive as of that moment. A query issued right after an
// Add therefore sees the new version without any manual rebuild step.
// All query methods are safe for concurrent use with each other and with
// a concurrent Add.
type Store interface {
	// Add archives doc as the next version. A nil doc archives an empty
	// version. On error the store is unchanged. Add neither mutates nor
	// retains doc.
	Add(doc *Document) error
	// AddReader archives the XML document read from r as the next
	// version. On the external engine the document streams through the §6
	// pipeline, checked piece by piece, without ever being held in memory
	// as a tree.
	AddReader(r io.Reader) error
	// AddBatch archives docs as consecutive versions in one write
	// transaction — the group-commit primitive behind the archive
	// server's ingest path. On the external engine the whole batch
	// shares ONE durable commit (one tmp+fsync+keydir-rename run),
	// amortizing the commit protocol and segment rewrites across
	// submitters; no reader observes any of the batch's versions until
	// that commit lands. A nil document archives an empty version.
	//
	// The returned slice has one AddResult per document: a document that
	// fails its own validation or pipeline gets its error there,
	// consumes no version number, and does not disturb the rest of the
	// batch. A non-nil error return means the batch as a whole failed
	// and nothing was committed.
	AddBatch(docs []*Document) ([]AddResult, error)
	// Versions returns the number of archived versions, numbered
	// 1..Versions().
	Versions() int
	// Version reconstructs version n. It returns (nil, nil) if version n
	// was archived as an empty database, and an error wrapping
	// ErrNoSuchVersion if n is outside 1..Versions(). Keyed siblings come
	// back in key order, not document order (§2).
	Version(n int) (*Document, error)
	// WriteVersion writes the indented XML of version n to w, byte-
	// identical across engines. The in-memory engine reconstructs the
	// version and serializes it; the external engine streams it straight
	// from its segment files without building it in memory. An empty
	// version writes nothing.
	WriteVersion(n int, w io.Writer) error
	// History returns the set of versions in which the element denoted by
	// selector exists (§7.2), e.g.
	//
	//	/db/dept[name=finance]/emp[fn=John,ln=Doe]
	//
	// Errors wrap ErrNoSuchElement, ErrAmbiguousSelector or
	// ErrBadSelector.
	History(selector string) (*VersionSet, error)
	// ContentHistory returns, for a frontier element, the versions at
	// which its content changed.
	ContentHistory(selector string) ([]int, error)
	// Select evaluates a boolean query expression (see internal/qlang:
	// AND/OR/NOT over path selectors, @attribute predicates and version
	// ranges) against every archive record — a level-2 entry of a keyed
	// root, or a depth-1 frontier root itself — and returns the matching
	// records with the version sets at which they match, sorted by path.
	// A record with an empty result set is omitted; an expression that
	// matches nothing returns an empty slice and no error. Parse errors
	// wrap ErrBadQuery. The external engine answers through the key
	// directory and the postings each segment carries, and by exact
	// streaming scan with WithQueryIndex(false); both routes, and the
	// in-memory engine, return identical results.
	Select(expr string) ([]SelectResult, error)
	// Stats summarizes the archive's structure (timestamp inheritance,
	// interval fragmentation, XML size).
	Stats() (Stats, error)
	// CompressedSize returns the archive's compressed size in bytes (§5.4,
	// the paper's headline space metric). The in-memory engine reports the
	// XMill-compressed size of the archive XML; the external engine
	// reports its actual on-disk token bytes — stored segment payloads
	// plus per-segment dictionaries.
	CompressedSize() (int, error)
	// Snapshot streams the archive itself, in the paper's XML form, to w.
	// The snapshot can be reloaded with LoadStore.
	Snapshot(w io.Writer) error
	// Close releases the store. Every later call fails with ErrClosed.
	Close() error
}

// Stats summarizes an archive's structure; see the field docs in
// internal/core.
type Stats = core.Stats

// AddResult reports the outcome of one document of an AddBatch call.
type AddResult struct {
	// Version is the version number the document landed in; valid only
	// when Err is nil and the AddBatch call itself returned no error.
	Version int
	// Err is the document's own failure (a key violation, parse or merge
	// error). Dispatch with errors.Is / errors.As like any Store error.
	Err error
}

// config collects the knobs shared by both engines; it is populated by
// the functional Options.
type config struct {
	fingerprint FingerprintFunc
	compaction  bool
	indexes     bool
	budget      int     // external-sort memory budget, in slab nodes
	segTarget   int     // external engine segment payload target, in bytes
	compBudget  int     // external engine: opportunistic compaction budget per Add, in bytes
	noQueryIdx  bool    // external engine: Select and History ignore the segments' postings
	fs          fsio.FS // external engine filesystem (nil = the real one)
	// sectionBudget caps the external engine's resident segment sections,
	// in bytes (0 = extmem's default). No public option sets it; tests do.
	sectionBudget int
}

func defaultConfig() config {
	return config{
		indexes: true,
		budget:  1 << 20,
	}
}

// Option configures a Store at construction time.
type Option func(*config)

// WithFingerprint selects the fingerprint function for key values (§4.3).
// Collisions are always resolved by comparing canonical forms, so the
// choice affects speed only. The default is FNV-1a.
func WithFingerprint(f FingerprintFunc) Option {
	return func(c *config) { c.fingerprint = f }
}

// WithCompaction toggles the SCCS-style weave below frontier nodes (§4.2,
// "Further Compaction"): content that persists across versions is stored
// once and only differences are timestamped. In-memory engine only; off
// by default.
func WithCompaction(on bool) Option {
	return func(c *config) { c.compaction = on }
}

// WithIndexes toggles the store-owned query indexes: timestamp trees for
// version retrieval (§7.1) and sorted key lists for history queries
// (§7.2). On by default; Add invalidates them and the next query
// rebuilds them, so they are never stale and cost nothing during bulk
// ingest. Turn them off to make every query a direct archive scan.
// In-memory engine only; the external engine streams every query from
// its segment files through the key directory and the postings each
// segment carries (see WithQueryIndex).
func WithIndexes(on bool) Option {
	return func(c *config) { c.indexes = on }
}

// WithMemoryBudget caps the document slab of a streamed add — AddReader
// on an external store — in nodes, about one token each (§6): a larger
// version is read, checked and sorted in pieces cut between children of
// the root, into runs that the merge reads. A child of the root always
// comes whole, so an add's peak memory is at least its largest root
// child; a parsed document is sorted in one piece. The default is 1<<20.
func WithMemoryBudget(nodes int) Option {
	return func(c *config) { c.budget = nodes }
}

// WithSegmentTargetSize sets the payload size, in bytes, that the
// external engine's segment files aim for. Smaller targets mean more
// segments: finer-grained merge reuse (a small Add rewrites less) and
// more selective seeks, at the cost of more files and directory entries.
// External engine only; the default is 256 KiB.
func WithSegmentTargetSize(bytes int) Option {
	return func(c *config) { c.segTarget = bytes }
}

// WithCompactionBudget makes the external engine run a background-style
// compaction pass after every Add, coalescing runs of undersized
// neighbor segments (payload below half the segment target size) while
// rewriting at most the given payload bytes per pass. The pass is crash-safe (fresh segments first, key directory
// rename as the commit point) and never disturbs open query views:
// superseded segments are deleted only when the last pinned view
// closes. 0 (the default) disables the opportunistic pass; explicit
// ExtStore.Compact calls are never budgeted. External engine only.
func WithCompactionBudget(bytes int) Option {
	return func(c *config) { c.compBudget = bytes }
}

// WithDirectorySeek has no effect: every query of the external engine
// reads through its key directory.
//
// Deprecated: there is no other query path to select.
func WithDirectorySeek(on bool) Option {
	return func(*config) {}
}

// WithQueryIndex toggles whether the external engine's queries use the
// postings every segment carries — each record's attribute and change
// facts and its children's byte spans: on (the default), Select plans
// index seeks through them and a deep History step seeks the one child it
// names; off, Select reads every record its path predicates leave and
// History streams the record. The two answer identically. It is read side
// only: the postings are always written, so it changes no byte on disk.
// External engine only.
func WithQueryIndex(on bool) Option {
	return func(c *config) { c.noQueryIdx = !on }
}

// WithFS routes every filesystem operation of the external engine
// through fs instead of the real filesystem. The seam exists for fault
// injection and crash-consistency testing (internal/fsio.FaultFS wraps
// the real filesystem with failpoints and an operation trace); nil (the
// default) uses the real filesystem directly. External engine only.
func WithFS(fs fsio.FS) Option {
	return func(c *config) { c.fs = fs }
}

// coreOptions lowers a config onto the in-memory engine's option struct.
func (c config) coreOptions() core.Options {
	return core.Options{
		Fingerprint:       c.fingerprint,
		FurtherCompaction: c.compaction,
	}
}
