package extmem

import (
	"fmt"
)

// Segment compaction: repeated small Adds leave runs of undersized
// neighbor segments (each Add's rewrite window ends in a partial file),
// and without maintenance the file count grows without bound. The
// compactor coalesces runs of adjacent undersized segments of one root
// into right-sized segments, copying the child subtrees token for token
// — the concatenated archive stream is unchanged down to the byte — and
// commits the new layout exactly like a merge: fresh segment files
// first, then the key directory rename as the commit point. Superseded
// segments are deleted only when no pinned query-view generation
// references them (the same refcount machinery Adds use), so open views
// keep answering from the layout they captured.
//
// Compaction runs opportunistically after Add under a byte budget
// (Config.CompactionBudget) and on demand via Compact.

// CompactStats reports the work of one compaction pass.
type CompactStats struct {
	Planned        int   // coalesce runs the planner found
	Executed       int   // runs rewritten this pass (≤ Planned under a budget)
	Coalesced      int   // undersized segments merged away
	Created        int   // right-sized segments written
	BytesRewritten int64 // payload bytes copied into new segments
}

// CompactionRun describes one planned coalesce run for inspection
// tooling (xarch compact -dry-run, xarch inspect).
type CompactionRun struct {
	Root     string // label of the owning top-level subtree
	Segments int    // adjacent undersized segments in the run
	Bytes    int64  // combined payload bytes
	Files    []string
}

// compactRun is one planned run inside the current directory: segments
// segs[lo:hi] of root index ri.
type compactRun struct {
	ri, lo, hi int
	bytes      int64
}

// repackFiles estimates how many segment files a coalesced rewrite of
// total payload bytes produces: the writer rolls at the target size but
// absorbs a final remainder smaller than minTail into the previous
// file, so the repack can never end in a fresh undersized tail.
func repackFiles(total, target, minTail int64) int {
	if total <= 0 {
		return 0
	}
	n := (total - minTail + target - 1) / target
	if n < 1 {
		n = 1
	}
	return int(n)
}

// undersized is the payload below which a segment counts as undersized
// for the planner, and the smallest final file a coalesced rewrite may
// leave: half the segment target. The coalescer's output files land at
// about the target, so it never marks its own output undersized again.
func undersized(target int64) int64 { return target / 2 }

// planCompaction finds the coalesce runs whose rewrite shrinks the
// layout. Every maximal run of adjacent undersized segments seeds a
// candidate; because the merge's roll policy tends to strand single small
// tails between right-sized neighbors, a run may annex one neighbor on
// either side when doing so lets the repack reduce the file count. A run
// is planned only when it strictly reduces the count, so compaction
// converges: a pass over an already-compacted layout plans nothing. Raw
// roots are never planned (a raw root stores its whole subtree in one
// segment).
func planCompaction(d *keyDirectory, target int64) []compactRun {
	under := undersized(target)
	var runs []compactRun
	for ri, r := range d.roots {
		if r.raw {
			continue
		}
		segs := r.segs
		prefix := make([]int64, len(segs)+1) // payload prefix sums
		for i, s := range segs {
			prefix[i+1] = prefix[i] + s.payload
		}
		floor := 0 // runs may not overlap an earlier claim
		si := 0
		for si < len(segs) {
			if segs[si].payload >= under {
				si++
				continue
			}
			lo, hi := si, si+1
			for hi < len(segs) && segs[hi].payload < under {
				hi++
			}
			// Candidates: the undersized run itself, and the run with one
			// right-sized neighbor annexed on either (or both) sides.
			best := compactRun{}
			bestGain := 0
			for _, c := range [][2]int{{lo, hi}, {lo - 1, hi}, {lo, hi + 1}, {lo - 1, hi + 1}} {
				cl, ch := c[0], c[1]
				if cl < floor || ch > len(segs) {
					continue
				}
				total := prefix[ch] - prefix[cl]
				gain := (ch - cl) - repackFiles(total, target, under)
				if gain > bestGain || (gain == bestGain && gain > 0 && total < best.bytes) {
					best = compactRun{ri: ri, lo: cl, hi: ch, bytes: total}
					bestGain = gain
				}
			}
			if bestGain > 0 {
				runs = append(runs, best)
				floor = best.hi
				si = best.hi
			} else {
				si = hi
			}
		}
	}
	return runs
}

// CompactionPlan reports the coalesce runs a compaction pass would
// rewrite, without touching any file.
func (ar *Archiver) CompactionPlan() []CompactionRun {
	return ar.compactionPlan(ar.current().d)
}

func (ar *Archiver) compactionPlan(d *keyDirectory) []CompactionRun {
	var out []CompactionRun
	for _, cr := range planCompaction(d, int64(ar.cfg.SegmentTarget)) {
		r := d.roots[cr.ri]
		run := CompactionRun{
			Root: keyLabel(r.name, r.key), Segments: cr.hi - cr.lo, Bytes: cr.bytes,
		}
		for _, s := range r.segs[cr.lo:cr.hi] {
			run.Files = append(run.Files, s.file)
		}
		out = append(out, run)
	}
	return out
}

// Compact coalesces every planned run of undersized adjacent segments
// into right-sized segments, commits the new layout, and installs it as
// the current directory generation. It blocks until done; the store
// layer serializes it with Add.
func (ar *Archiver) Compact() (CompactStats, error) {
	if err := ar.Degraded(); err != nil {
		return CompactStats{}, err
	}
	st, err := ar.compact(0)
	return st, ar.noteFatal(err)
}

// compact executes one compaction pass. A positive budget caps the
// payload bytes rewritten: runs are taken in directory order while they
// fit, and at least one run always executes so a pass can never stall
// behind a run larger than the budget.
func (ar *Archiver) compact(budget int64) (CompactStats, error) {
	d := ar.current().d
	runs := planCompaction(d, int64(ar.cfg.SegmentTarget))
	st := CompactStats{Planned: len(runs)}
	if len(runs) == 0 {
		return st, nil
	}
	var selected []compactRun
	var total int64
	for _, cr := range runs {
		if budget > 0 && len(selected) > 0 && total+cr.bytes > budget {
			continue
		}
		selected = append(selected, cr)
		total += cr.bytes
	}

	// Rewrite the selected runs root by root, splicing fresh segment
	// records into copies of the affected roots. Untouched roots (and
	// every untouched segment) are shared with the old directory — a
	// rootRecord is immutable once installed, so open views are safe.
	var newFiles []string
	onCreate := func(name string) { newFiles = append(newFiles, name) }
	fail := func(err error) (CompactStats, error) {
		if !isCommitFault(err) { // after one, the key directory may name them
			ar.removeSegments(newFiles)
		}
		return st, err
	}
	byRoot := map[int][]compactRun{}
	for _, cr := range selected {
		byRoot[cr.ri] = append(byRoot[cr.ri], cr)
	}
	out := &keyDirectory{versions: d.versions, rootTime: d.rootTime}
	for ri, r := range d.roots {
		crs := byRoot[ri]
		if len(crs) == 0 {
			out.roots = append(out.roots, r)
			continue
		}
		nr := &rootRecord{
			name: r.name, key: r.key, timeStr: r.timeStr, time: r.time,
			attrs: r.attrs, raw: r.raw,
		}
		next := 0
		for _, cr := range crs {
			nr.segs = append(nr.segs, r.segs[next:cr.lo]...)
			merged, copied, err := ar.coalesceRun(nr, r, cr.lo, cr.hi, onCreate)
			st.BytesRewritten += copied
			if err != nil {
				return fail(err)
			}
			nr.segs = append(nr.segs, merged...)
			st.Executed++
			st.Coalesced += cr.hi - cr.lo
			st.Created += len(merged)
			next = cr.hi
		}
		nr.segs = append(nr.segs, r.segs[next:]...)
		out.roots = append(out.roots, nr)
	}

	if err := ar.commitState(out); err != nil {
		return fail(err)
	}
	ar.last.Compact = st
	ar.publish(ar.newGeneration(out))
	return st, nil
}

// coalesceRun copies the child subtrees of segments old.segs[lo:hi]
// token for token into fresh right-sized segment files, re-deriving the
// entry table with rebased offsets. The token stream is unchanged — the
// concatenated archive stream, and every query answer, is identical
// before and after. Going through the segment writer re-interns the run
// into fresh per-file dictionaries and captures the postings of every
// output segment, exactly like a merge.
func (ar *Archiver) coalesceRun(newRoot, old *rootRecord, lo, hi int, onCreate func(string)) ([]*segmentRecord, int64, error) {
	var out []*segmentRecord
	sw := newSegmentSetWriter(ar, newRoot, false,
		func(sr *segmentRecord) { out = append(out, sr) }, onCreate)
	for si := lo; si < hi; si++ {
		sw.planned += old.segs[si].payload
	}
	sw.minTail = undersized(sw.target)
	var copied int64
	for si := lo; si < hi; si++ {
		seg := old.segs[si]
		tr := ar.readParts([]streamPart{segPart(seg)})
		err := copyChildrenVerbatim(sw, ar.dict, tr, len(seg.entries))
		tr.release()
		if err != nil {
			sw.fail(fmt.Errorf("extmem: compact %s: %w", seg.file, err))
			break
		}
		copied += seg.payload
	}
	if err := sw.finish(); err != nil {
		return nil, copied, err
	}
	return out, copied, nil
}
