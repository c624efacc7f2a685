package extmem

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"xarch/internal/core"
	"xarch/internal/keys"
)

// generation is one committed state of the archive: everything a reader
// needs, fixed at the commit that made it. The writer builds it once the
// commit is durable and publishes it whole (Archiver.publish); nothing in
// it changes afterwards except refs, which genMu guards. A reader loads
// the published pointer and never touches the writer's working state.
type generation struct {
	id    int
	d     *keyDirectory
	names []string // the dictionary's name table as of this commit
	files map[string]bool
	state stateFiles  // the state files' bytes as this commit wrote them, or Open read them
	refs  int         // open views pinning the segment files; guarded by genMu
	last  Diagnostics // the writer's reports as of this commit

	// inv is the inverted attribute map over the postings of d's segments
	// (candidates), built by the first Select that needs it. Only a built
	// map is kept: after a failed build the next Select tries again.
	invMu sync.Mutex
	inv   atomic.Pointer[map[string][]int]
}

// Diagnostics are the writer's reports on its most recent operations.
type Diagnostics struct {
	// Merge reports the segment work of the most recent add.
	Merge MergeStats
	// Compact reports the most recent compaction pass (explicit or the
	// opportunistic post-Add pass).
	Compact CompactStats
	// CompactErr holds the error of the last opportunistic post-Add
	// compaction pass, if any. Add itself still succeeds — the version
	// is durable before compaction starts and a failed pass leaves the
	// committed layout untouched — but the store surfaces the condition
	// here rather than silently dropping it.
	CompactErr error
}

// current returns the published generation. It takes no lock; whoever goes
// on to open a segment file must pin instead.
func (ar *Archiver) current() *generation { return ar.cur.Load() }

// Last returns the writer's diagnostics as of the published generation.
func (ar *Archiver) Last() Diagnostics { return ar.current().last }

// SortRuns reports how many sorted runs the most recent add wrote (§6.2).
func (ar *Archiver) SortRuns() int { return int(ar.runs.Load()) }

// publish makes g the current generation in one step, then deletes the
// segment files of the superseded generation that no view pins and no live
// generation references. genMu covers the pointer and the table only: the
// unlinks happen after it is released, so a reader pinning or unpinning
// never waits for the filesystem.
func (ar *Archiver) publish(g *generation) {
	ar.genMu.Lock()
	old := ar.cur.Load()
	if old != nil {
		g.id = old.id + 1
	}
	ar.gens[g.id] = g
	ar.cur.Store(g)
	var dead []string
	if old != nil && old.refs == 0 {
		delete(ar.gens, old.id)
		dead = ar.deadFiles(old)
	}
	ar.genMu.Unlock()
	ar.removeSegments(dead)
}

// pin returns the current generation with its segment files held against
// the sweep until unpin.
func (ar *Archiver) pin() *generation {
	ar.genMu.Lock()
	defer ar.genMu.Unlock()
	g := ar.cur.Load()
	g.refs++
	return g
}

// unpin releases a pin; a fully released, superseded generation has its
// exclusive segment files deleted.
func (ar *Archiver) unpin(g *generation) {
	ar.genMu.Lock()
	var dead []string
	if g.refs--; g.refs == 0 && g != ar.cur.Load() {
		delete(ar.gens, g.id)
		dead = ar.deadFiles(g)
	}
	ar.genMu.Unlock()
	ar.removeSegments(dead)
}

// deadFiles lists the segment files of a generation just dropped from the
// table that no live generation references. Callers hold genMu.
func (ar *Archiver) deadFiles(g *generation) []string {
	var dead []string
	for f := range g.files {
		live := false
		for _, o := range ar.gens {
			if o.files[f] {
				live = true
				break
			}
		}
		if !live {
			dead = append(dead, f)
		}
	}
	return dead
}

// removeSegments deletes segment files, and their sections leave memory.
func (ar *Archiver) removeSegments(files []string) {
	ar.resident.forget(files)
	for _, f := range files {
		ar.fs.Remove(filepath.Join(ar.dir, f))
	}
}

// QueryView is the streaming query engine over the segmented archive: a
// consistent read view taken at open time, answering Version,
// WriteVersion, History, ContentHistory and Stats without ever
// materializing an in-memory archive — peak memory is O(document depth
// + dictionary + one frontier record), independent of how many versions
// the archive holds.
//
// Every query reads through the key directory: what it needs of the
// segments is a list of byte ranges, each decoded against its own
// segment's dictionary. A version reads the level-2 entries alive at it,
// an export each root's segments whole, and a selective query resolves
// keyed selector steps against the in-memory directory and seeks straight
// to the matching subtree, reading O(matched bytes). A root's own open tag
// and attributes come from its directory record.
//
// A view is one pinned generation: it stays valid while later Adds and
// Compacts run (its segment files are not deleted underneath it) and sees
// none of them. A QueryView answers one query at a time; open one view per
// concurrent query.
type QueryView struct {
	ar    *Archiver
	g     *generation // the pin to release at Close; nil once closed
	d     *keyDirectory
	names []string
	spec  *keys.Spec
}

// OpenQuery opens a consistent read view of the published generation. The
// caller must Close it. It is safe to call at any time, from any
// goroutine: beside a running Add or Compact it returns the generation
// committed before it.
func (ar *Archiver) OpenQuery() (*QueryView, error) {
	g := ar.pin()
	return &QueryView{ar: ar, g: g, d: g.d, names: g.names, spec: ar.spec}, nil
}

// Close releases the view: the pinned generation is unpinned (letting a
// superseded generation's segment files be deleted).
func (q *QueryView) Close() error {
	if q.g != nil {
		q.ar.unpin(q.g)
		q.g = nil
	}
	return nil
}

// Versions returns the number of versions visible in this view.
func (q *QueryView) Versions() int { return q.d.versions }

func (q *QueryView) name(id int) (string, error) {
	if id < 0 || id >= len(q.names) {
		return "", fmt.Errorf("extmem: tag id %d outside dictionary: %w", id, core.ErrCorruptArchive)
	}
	return q.names[id], nil
}
