package extmem

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"xarch/internal/fsio"
	"xarch/internal/intervals"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// Archiver is the external-memory archiver of §6: it maintains an archive
// in a directory, adding versions with bounded memory. The archive body
// is stored as key-range-partitioned segment files indexed by a
// persistent key directory (keydir.idx); see keydir.go and segment.go for
// the on-disk format. Frontier strategy is the plain archiver
// (whole-content alternatives); the in-memory archiver additionally
// offers the §4.2 weave.
type Archiver struct {
	dir  string
	spec *keys.Spec
	cfg  Config
	// fs is the filesystem seam every I/O of the archiver goes through:
	// fsio.OS in production, a fsio.FaultFS under the crash-consistency
	// harness.
	fs fsio.FS

	// dict and everything down to last is the writer's working
	// state: only the goroutine running an add, a compaction or Close
	// touches it (the store layer's mutex admits one at a time). Readers
	// see none of it; they read the published generation.
	dict    *dictionary
	nextSeg int
	// savedDir, savedDict and saved are what the last commit (or Open) left
	// on disk: the directory in keydir.idx, the number of names in dict.txt
	// (-1 while there is no dict.txt) and the three files' bytes, which the
	// next generation carries. A commit rewrites dict.txt only when the
	// dictionary has grown past savedDict; Close commits only when either
	// differs from the state in memory.
	savedDir  *keyDirectory
	savedDict int
	saved     stateFiles
	// last collects the diagnostics the next generation will carry.
	last Diagnostics

	// segOut and segEnc are the segment writer's capture and encoder.
	// Segment writers work one after the other, so each borrows these two
	// and only the first segments of a store pay for growing them: grown
	// afresh, they are the larger part of what rewriting a segment
	// allocates. Between writers segOut holds no string or key.
	segOut captureWriter
	segEnc segEncoder
	// flat and toks are where a version sorted in memory is held: the
	// document slab, reused by every such add, and the sorted tokens, sized
	// to the version and zeroed once the merge has read them, as they
	// hold its strings.
	flat xmltree.Flat
	toks []token

	// degraded is the poisoned-writer flag: set by the first commit
	// fault (failed fsync/rename), checked by every write entry point.
	// See degrade.go.
	degraded atomic.Pointer[DegradedError]

	// cur is the published generation (view.go): the one value every read
	// starts from. genMu guards its replacement together with the table of
	// generations still alive — the current one and those open views pin —
	// and is never held across a filesystem call.
	cur   atomic.Pointer[generation]
	genMu sync.Mutex
	gens  map[int]*generation

	resident residency    // the segment sections loaded (segdict.go)
	runs     atomic.Int64 // SortRuns: the runs the last document added was read in, kept or refused

	bytesRead atomic.Int64
	// commits counts durable key-directory commits (commitState runs
	// whose rename succeeded) — the group-commit tests' evidence that a
	// batch of Adds shares one commit.
	commits atomic.Int64
}

// Config collects the archiver's tuning knobs.
type Config struct {
	// Budget caps the document slab of a streamed version (a
	// Source.Reader), in nodes — about one token each: where its pieces
	// end is cut's to say. Default 1<<20.
	Budget int
	// SegmentTarget is the segment file payload size the merge aims for,
	// in bytes. Smaller targets mean more segments: finer-grained merge
	// reuse and more selective seeks, at more files. Default 256 KiB.
	SegmentTarget int
	// CompactionBudget caps the payload bytes an opportunistic post-Add
	// compaction pass may rewrite. 0 (the default) disables the
	// opportunistic pass; explicit Compact calls are never budgeted.
	CompactionBudget int
	// NoAttrIndex makes Select and History ignore the segments' postings:
	// Select evaluates every record its path spine leaves by reading it, and
	// History streams an entry instead of seeking its kid (diagnostic knob;
	// the two answer identically). It is read-side only: postings are
	// always written, so it changes no byte on disk.
	NoAttrIndex bool
	// SectionBudget caps the charge of the segment dictionaries and
	// postings held in memory (segdict.go). Default 64 MiB.
	SectionBudget int64
	// FS is the filesystem all archive I/O goes through. Nil means the
	// real filesystem (fsio.OS); the crash-consistency harness injects a
	// fsio.FaultFS here.
	FS fsio.FS
}

const defaultSegmentTarget = 256 * 1024

func (c *Config) setDefaults() {
	if c.Budget <= 0 {
		c.Budget = 1 << 20
	}
	if c.SegmentTarget <= 0 {
		c.SegmentTarget = defaultSegmentTarget
	}
	if c.SectionBudget <= 0 {
		c.SectionBudget = 64 << 20
	}
	if c.FS == nil {
		c.FS = fsio.OS
	}
}

const (
	metaFile = "meta.txt"
	dictFile = "dict.txt"
	// legacyArchiveFile is the monolithic token file of the pre-segment
	// layout; its presence marks a directory this build no longer reads.
	legacyArchiveFile = "archive.tok"
)

// ErrLegacyFormat reports an archive directory in an on-disk layout
// this build no longer reads: the monolithic archive.tok, a format-1 or
// format-2 key directory, format-1 (pre-dictionary) or format-2
// (postings in a separate file) segment files, or block-compressed
// segment files. The wrapping error names the layout
// and the build that still reads it. Open, CheckArchive and a
// replication sync return it before touching the directory.
var ErrLegacyFormat = errors.New("extmem: legacy archive layout is no longer supported")

// legacyf wraps ErrLegacyFormat for a layout older than format 2, which
// the build at commit 2a11f15 upgrades in place.
func legacyf(format string, args ...any) error {
	return fmt.Errorf("%w (%s); upgrade by opening the archive once with the build at commit 2a11f15",
		ErrLegacyFormat, fmt.Sprintf(format, args...))
}

// compressedf wraps ErrLegacyFormat for a block-compressed segment, which
// the build at commit 07f536d still reads.
func compressedf(format string, args ...any) error {
	return fmt.Errorf("%w (%s is block-compressed); the build at commit 07f536d still reads it",
		ErrLegacyFormat, fmt.Sprintf(format, args...))
}

// format2f wraps ErrLegacyFormat for a format-2 key directory or segment,
// whose postings lived in a file of their own. The build at commit
// 8fc1dc5 still reads it; moving an archive means getting each version
// with that build and adding it to a fresh archive with this one.
func format2f(what string) error {
	return fmt.Errorf("%w (%s); the build at commit 8fc1dc5 still reads it: `xarch get` every version with it and `xarch add` them to a fresh archive",
		ErrLegacyFormat, what)
}

// CheckLegacyLayout returns ErrLegacyFormat when dir still holds the
// monolithic archive.tok or — with no key directory to decode — a segment
// file whose first bytes name a legacy encoding. (A key directory, and
// the segment headers it lists, are checked where they are decoded.)
func CheckLegacyLayout(fs fsio.FS, dir string) error {
	if _, err := fs.Stat(filepath.Join(dir, legacyArchiveFile)); err == nil {
		return legacyf("%s holds a monolithic %s", dir, legacyArchiveFile)
	}
	if _, err := fs.Stat(filepath.Join(dir, keydirFile)); err == nil {
		return nil
	}
	for _, p := range globSegments(fs, dir) {
		if err := checkSegmentEncoding(fs, p); err != nil {
			return err
		}
	}
	return nil
}

// Open creates or reopens an archiver rooted at dir. It acts on the one
// reading of the state files (loadState): a fresh directory gets a first
// commit, a missing or stale meta.txt is rewritten from keydir.idx, and a
// corrupt, truncated or missing key directory is rebuilt by scanning the
// segment files meta.txt lists. A directory in a legacy layout fails with
// ErrLegacyFormat before any file in it is created, renamed or removed.
func Open(dir string, spec *keys.Spec, cfg Config) (*Archiver, error) {
	cfg.setDefaults()
	st, err := loadState(cfg.FS, dir)
	if err != nil {
		return nil, err
	}
	if st.verdict == stateRefused {
		return nil, st.err
	}
	if err := cfg.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("extmem: %w", err)
	}
	ar := &Archiver{
		dir: dir, spec: spec, cfg: cfg, fs: cfg.FS,
		dict: newDictionary(), gens: map[int]*generation{},
		savedDict: -1,
	}
	ar.resident.budget = cfg.SectionBudget
	ar.nextSeg = ar.maxSegID() + 1
	d := st.d
	if st.verdict == stateFresh {
		d = &keyDirectory{rootTime: intervals.New()}
	} else {
		ar.dict, ar.savedDict, ar.saved = st.dict, len(st.dict.names), st.files
	}
	switch st.verdict {
	case stateFresh, stateRebuild:
		err = ar.commitState(d)
	case stateHealMeta:
		err = CommitFiles(ar.fs, ar.dir, []StateFile{{metaFile, st.files.meta}})
	}
	if err != nil {
		return nil, err
	}
	ar.savedDir = d
	ar.finishOpen(d)
	return ar, nil
}

// finishOpen garbage-collects files no committed state references (crash
// leftovers: orphan segments, temp files) and publishes d as generation 0.
func (ar *Archiver) finishOpen(d *keyDirectory) {
	g := ar.newGeneration(d)
	for _, p := range globSegments(ar.fs, ar.dir) {
		if !g.files[filepath.Base(p)] {
			ar.fs.Remove(p)
		}
	}
	ar.sweepTmp()
	ar.publish(g)
}

// sweepTmp removes the transient files a crashed operation can strand:
// "tmp-*" scratch files (the run files of a streamed Add), "*.tmp" staged
// siblings (a commit killed between staging and rename), and "*.part"
// replication staging files (a pull killed mid-transfer). Only committed
// state survives a reopen, so anything matching these patterns is garbage
// by construction. It returns what it removed (for fsck reporting).
func (ar *Archiver) sweepTmp() []string {
	var removed []string
	ents, _ := ar.fs.ReadDir(ar.dir)
	for _, e := range ents {
		if fsio.Transient(e.Name()) && ar.fs.Remove(filepath.Join(ar.dir, e.Name())) == nil {
			removed = append(removed, e.Name())
		}
	}
	return removed
}

// globSegments lists the paths of the segment files in dir.
func globSegments(fs fsio.FS, dir string) []string {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".tok") {
			names = append(names, filepath.Join(dir, n))
		}
	}
	return names
}

// maxSegID returns the highest segment file id on disk.
func (ar *Archiver) maxSegID() int {
	max := -1
	for _, p := range globSegments(ar.fs, ar.dir) {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(p), "seg-%d.tok", &id); err == nil && id > max {
			max = id
		}
	}
	return max
}

// commitState persists the archive state as one staged commit
// (CommitFiles): dict.txt when the dictionary grew since it was last
// written (it is append-only by id), meta.txt, and keydir.idx last. Open
// trusts keydir.idx, re-derives a meta.txt that differs from it and sweeps
// orphan segments and ".tmp" files.
func (ar *Archiver) commitState(d *keyDirectory) error {
	if err := ar.Degraded(); err != nil {
		return err
	}
	dictLen := len(ar.dict.snapshot())
	saved := stateFiles{keydir: d.encode(dictLen), dict: ar.saved.dict, meta: encodeMeta(d)}
	var files []StateFile
	if dictLen != ar.savedDict {
		var db bytes.Buffer
		if err := ar.dict.save(&db); err != nil {
			return err
		}
		saved.dict = db.Bytes()
		files = append(files, StateFile{dictFile, saved.dict})
	}
	files = append(files, StateFile{metaFile, saved.meta}, StateFile{keydirFile, saved.keydir})
	if err := CommitFiles(ar.fs, ar.dir, files); err != nil {
		return err
	}
	ar.commits.Add(1)
	ar.savedDir, ar.savedDict, ar.saved = d, dictLen, saved
	return nil
}

// newGeneration wraps a directory the commit (or Open) has just made
// durable as the next generation to publish: the dictionary's names as of
// now, the state files' bytes and the writer's diagnostics.
func (ar *Archiver) newGeneration(d *keyDirectory) *generation {
	return &generation{d: d, names: ar.dict.snapshot(), files: d.files(), state: ar.saved, last: ar.last}
}

// Versions returns the number of archived versions.
func (ar *Archiver) Versions() int { return ar.current().d.versions }

// Spec returns the archiver's key specification.
func (ar *Archiver) Spec() *keys.Spec { return ar.spec }

// BytesRead returns the cumulative segment/archive bytes read by queries
// and merges since the archiver was opened — the telemetry behind the
// directory-seek benchmarks.
func (ar *Archiver) BytesRead() int64 { return ar.bytesRead.Load() }

// Close commits whatever is not on disk yet — after a successful Add,
// Compact or Open, nothing: the archiver keeps no open file handles
// between operations and every operation commits before it returns. What
// can be left is names a failed document put in the dictionary. Close
// exists so the store layer can offer one lifecycle across engines. A
// degraded archiver refuses — its committed on-disk state is already
// authoritative and must not be touched by a poisoned writer.
func (ar *Archiver) Close() error {
	if err := ar.Degraded(); err != nil {
		return err
	}
	d := ar.current().d
	if d == ar.savedDir && len(ar.dict.snapshot()) == ar.savedDict {
		return nil
	}
	return ar.noteFatal(ar.commitState(d))
}

// StorageStats summarizes the segmented layout.
type StorageStats struct {
	Roots            int
	Segments         int
	SegmentBytes     int64 // payload bytes across segments
	StoredBytes      int64 // on-disk bytes (payloads + dictionaries)
	PostingBytes     int64 // postings sections, not in StoredBytes
	DirectoryEntries int   // child entries in the key directory
	DirectoryBytes   int   // encoded keydir.idx size
	LastAddReused    int   // segments the last Add linked unchanged
	LastAddRewritten int   // segments the last Add merged into new files
	// Generation counts the commits published since the store was opened
	// (adds, compactions); PinnedGenerations how many generations open
	// views still hold — the current one included while a view is open on
	// it. A view that is never closed keeps a superseded generation's
	// segment files on disk, and shows here as a count that does not fall.
	Generation        int
	PinnedGenerations int
	// ResidentSectionBytes is the charge of the segment dictionaries and
	// postings held in memory (Config.SectionBudget); SectionLoads counts
	// the sections read from segment files since Open, and
	// SectionEvictions those dropped to keep the budget.
	ResidentSectionBytes int64
	SectionLoads         int64
	SectionEvictions     int64
}

// StorageStats reports the current segment and key-directory shape.
func (ar *Archiver) StorageStats() StorageStats {
	g := ar.current()
	d := g.d
	st := StorageStats{
		Roots:            len(d.roots),
		DirectoryEntries: d.entryCount(),
		DirectoryBytes:   d.encodedLen,
		LastAddReused:    g.last.Merge.SegmentsReused,
		LastAddRewritten: g.last.Merge.SegmentsRewritten,
		Generation:       g.id,
	}
	ar.genMu.Lock()
	for _, o := range ar.gens {
		if o.refs > 0 {
			st.PinnedGenerations++
		}
	}
	ar.genMu.Unlock()
	st.ResidentSectionBytes, st.SectionLoads, st.SectionEvictions = ar.resident.used.Load(), ar.resident.loads.Load(), ar.resident.evictions.Load()
	for _, r := range d.roots {
		for _, s := range r.segs {
			st.Segments++
			st.SegmentBytes += s.payload
			st.StoredBytes += s.payload + s.dictLen
			st.PostingBytes += s.postLen
		}
	}
	return st
}

// CompressedSize returns the archive's on-disk token bytes: the interned
// payloads plus the per-segment dictionaries. Headers and the state files
// are excluded, mirroring how the in-memory engine's compressed-size
// figure counts only encoded document bytes.
func (ar *Archiver) CompressedSize() int64 {
	return ar.StorageStats().StoredBytes
}

// SegmentInfo describes one segment file for inspection tooling.
type SegmentInfo struct {
	Root      string // label of the owning top-level subtree
	File      string
	Bytes     int64 // payload bytes
	DictBytes int64 // encoded dictionary section size
	// PostingBytes is the postings section's size; the section lies just
	// before the payload, which ends the file.
	PostingBytes int64
	Fill         float64 // payload bytes / segment target size
	Entries      int
	FirstLabel   string
	LastLabel    string
	Raw          bool
	CRCOK        bool
	// Compactable marks a segment that sits inside a planned coalesce
	// run: undersized (below the compaction target) with at least one
	// undersized neighbor in the same root.
	Compactable bool
}

// Segments lists every segment with its key range and fill ratio,
// verifying each one — checksums, entries and postings — (an O(archive)
// read; meant for the inspect tooling). Segments a compaction pass would coalesce are
// flagged. It pins the generation it lists, like any other scan, so it
// neither blocks nor races a concurrent Add.
func (ar *Archiver) Segments() []SegmentInfo {
	g := ar.pin()
	defer ar.unpin(g)
	names := &dictionary{names: g.names}
	candidates := map[string]bool{}
	for _, run := range ar.compactionPlan(g.d) {
		for _, f := range run.Files {
			candidates[f] = true
		}
	}
	var out []SegmentInfo
	for _, r := range g.d.roots {
		for _, s := range r.segs {
			info := SegmentInfo{
				Root: keyLabel(r.name, r.key), File: s.file,
				Bytes: s.payload, DictBytes: s.dictLen, PostingBytes: s.postLen,
				Entries: len(s.entries), Raw: r.raw,
				Fill:        float64(s.payload) / float64(ar.cfg.SegmentTarget),
				Compactable: candidates[s.file],
			}
			if len(s.entries) > 0 {
				first, last := &s.entries[0], &s.entries[len(s.entries)-1]
				info.FirstLabel = keyLabel(first.name, first.key)
				info.LastLabel = keyLabel(last.name, last.key)
			}
			info.CRCOK = verifySegment(ar.fs, filepath.Join(ar.dir, s.file), g.d, r, s, names) == nil
			out = append(out, info)
		}
	}
	return out
}

// Source is one version handed to AddVersionBatch: a parsed document, or
// XML, or — the zero Source — an empty version. Either way it is checked
// and sorted in the writer's slab (sortSlab); a Reader is read in pieces
// (cut), and one that takes more than one is sorted in runs (sortRuns), so
// it is never held in memory whole.
type Source struct {
	Doc    *xmltree.Node
	Reader io.Reader
}

// BatchItem reports the outcome of one document of an AddVersionBatch
// call: the version number it landed in, or its own failure.
type BatchItem struct {
	// Version is the version number assigned to the document; valid only
	// when Err is nil and the batch call itself returned no error.
	Version int
	// Err is the document's own failure (a parse, sort or merge
	// error). A document that fails is skipped — it consumes no version
	// number — and the rest of the batch still commits.
	Err error
}

// AddVersionBatch archives each source as the next consecutive version
// with ONE durability commit for the whole group: every document runs
// the full sort and segment merge, each merging against the
// uncommitted directory of its predecessor, and only the final directory
// goes through the staged commit (commitState) — the group-commit
// amortization behind the archive server's ingest path.
//
// The returned slice has one BatchItem per source: a document whose own
// pipeline fails gets its error there, consumes no version number, and
// does not disturb the rest of the batch. A non-nil error return means
// the batch as a whole failed — NOTHING was committed (the archive is
// unchanged, every per-item Version is void) and, when the failure was a
// durability-critical commit step, the writer is now poisoned
// (errors.Is(err, ErrDegraded)). Until the final commit succeeds no
// reader observes any of the batch's versions.
func (ar *Archiver) AddVersionBatch(srcs []Source) ([]BatchItem, error) {
	if err := ar.Degraded(); err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, nil
	}
	return ar.addBatch(srcs)
}

// CommitCount returns the number of durable key-directory commits
// (commitState runs) since the archiver was opened,
// including the open itself. The archive server's group-commit tests
// compare it against submitter counts.
func (ar *Archiver) CommitCount() int64 { return ar.commits.Load() }

func (ar *Archiver) addBatch(srcs []Source) ([]BatchItem, error) {
	items := make([]BatchItem, len(srcs))
	base := ar.current().d
	staged := base
	var stagedFiles []string // segments written by the batch, uncommitted
	committed := false
	var fault error // what aborted the batch
	defer func() {
		if !committed && !isCommitFault(fault) {
			ar.removeSegments(stagedFiles)
		}
	}()
	// fatal aborts the whole batch: poison the writer if the error was a
	// commit fault; otherwise the deferred sweep removes every staged
	// segment.
	fatal := func(err error) ([]BatchItem, error) {
		fault = err
		return items, ar.noteFatal(err)
	}
	for k, src := range srcs {
		sorted, scratch, err := ar.prepareSorted(src)
		ar.runs.Store(int64(len(scratch)))
		if err != nil {
			removePaths(ar.fs, scratch)
			items[k].Err = err
			if isCommitFault(err) {
				return fatal(err)
			}
			continue
		}
		vnum := staged.versions + 1
		newDir, stats, newFiles, err := ar.mergeIntoSegments(staged, sorted, vnum)
		sorted.release()
		removePaths(ar.fs, scratch)
		// A failed merge's segments too: no directory names them, and the
		// sweeps below remove them with the rest.
		stagedFiles = append(stagedFiles, newFiles...)
		if err != nil {
			items[k].Err = err
			if isCommitFault(err) {
				return fatal(err)
			}
			continue
		}
		staged = newDir
		items[k].Version = vnum
		ar.last.Merge = stats
	}
	if staged == base {
		// Every document failed its own pipeline: nothing to commit.
		return items, nil
	}
	if err := ar.commitState(staged); err != nil {
		return fatal(err)
	}
	committed = true
	// The visibility order: durable, published — from here every new view
	// sees the batch — then the superseded files swept, and only then
	// acknowledged.
	ar.last.CompactErr = nil
	g := ar.newGeneration(staged)
	ar.publish(g)
	// Segments written for early batch members and already superseded
	// within the same batch belong to no committed generation (the batch
	// commits only its final directory): delete them now.
	var superseded []string
	for _, f := range stagedFiles {
		if !g.files[f] {
			superseded = append(superseded, f)
		}
	}
	ar.removeSegments(superseded)
	// Opportunistic maintenance: coalesce undersized neighbor segments
	// under the configured byte budget. The batch is already durable; a
	// compaction failure leaves the committed layout intact and is
	// reported through CompactErr — republished with the layout it left
	// alone — instead of failing the batch.
	if ar.cfg.CompactionBudget > 0 {
		if _, cerr := ar.compact(int64(ar.cfg.CompactionBudget)); cerr != nil {
			ar.last.CompactErr = ar.noteFatal(cerr)
			ar.publish(&generation{d: g.d, names: g.names, files: g.files, state: g.state, last: ar.last})
		}
	}
	return items, nil
}

// removePaths removes a set of absolute scratch paths, best-effort.
func removePaths(fs fsio.FS, paths []string) {
	for _, p := range paths {
		fs.Remove(p)
	}
}

// sortedVersion is one version in §6.2's sorted form: tokens in the
// writer's buffer (none: the empty version), or, for a version sorted in
// runs, which need not fit in memory, the root's open token and attributes,
// after which the run merge supplies the rest, one child at a time.
type sortedVersion struct {
	toks []token
	runs *runMerge // nil: toks is the whole version
}

// reader returns a slice-mode token reader over the sorted version.
func (s sortedVersion) reader() *tokenReader {
	d := &tokenReader{toks: s.toks}
	if s.runs != nil {
		d.more = s.runs.next
	}
	d.reset(nil, nil, 0)
	return d
}

// release zeroes the tokens, which hold the version's strings, and closes
// the runs.
func (s sortedVersion) release() {
	clear(s.toks)
	if s.runs != nil {
		s.runs.close()
	}
}

// prepareSorted brings one version into §6.2's sorted form — in the
// writer's slab, which touches no file, or, for a streamed version that
// does not fit one piece, in runs (sortRuns) — and returns it with every
// scratch file created: its runs, which the caller removes when done with
// the version.
func (ar *Archiver) prepareSorted(src Source) (sortedVersion, []string, error) {
	switch {
	case src.Doc != nil:
		ar.flat.Load(src.Doc)
	case src.Reader != nil:
		pieces := xmltree.NewFlatReader(src.Reader)
		if more, err := pieces.Next(&ar.flat, ar.cut); err != nil {
			return sortedVersion{}, nil, err
		} else if more {
			return ar.sortRuns(pieces)
		}
	default:
		return sortedVersion{}, nil, nil
	}
	toks, err := ar.sortSlab()
	return sortedVersion{toks: toks}, nil, err
}

func (ar *Archiver) tmpPath(name string) string {
	return filepath.Join(ar.dir, "tmp-"+name)
}
