package extmem

import (
	"fmt"
	"io"

	"xarch/internal/annotate"
	"xarch/internal/core"
	"xarch/internal/intervals"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// ---------------------------------------------------------------------------
// Version retrieval (§7.1) and the archive form (§2), streaming

// versionWalk is the one reader of the stored grammar above the frontier:
// it projects version v onto a sink, or with v 0 the archive itself, in a
// single pass of one token reader. A version builds nothing; memory is
// O(depth + one frontier record).
//
// The archive form is the projection with every version live: each entry
// is written, each explicit timestamp wraps its node in <T t>, and each
// frontier record is read into a node by subtreeANode and written by
// core.EmitNode, the in-memory engine's own layout of groups and
// attribute items. With stats set it also counts the archive on the way.
type versionWalk struct {
	q     *QueryView
	v     int // 0: the archive form
	sink  xmltree.Sink
	stats *core.Stats // the archive form's counters, or nil
	tr    *tokenReader

	// The tokens of one frontier record that are alive at v (emitFrontier).
	// hasText[i] is set when toks[i] opens an element with a text child;
	// stack holds the indexes of the open tokens not yet closed.
	toks    []token
	hasText []bool
	stack   []int
}

// streamVersion projects version v into the sink, walking the key
// directory: roots and level-2 entries whose interval summary excludes v
// are skipped without reading a byte of them, dead subtrees below are
// skipped undecoded, and live ones are emitted.
func (q *QueryView) streamVersion(v int, sink xmltree.Sink) error {
	if v < 1 || v > q.d.versions {
		return fmt.Errorf("extmem: version %d out of range 1..%d: %w", v, q.d.versions, core.ErrNoSuchVersion)
	}
	w := &versionWalk{q: q, v: v, sink: sink}
	emitted := false
	for _, r := range q.d.roots {
		eff := q.rootEff(r)
		if !eff.Contains(v) {
			continue
		}
		if emitted {
			return fmt.Errorf("extmem: multiple roots at version %d: %w", v, core.ErrCorruptArchive)
		}
		emitted = true
		if err := w.emitRoot(r, eff); err != nil {
			return err
		}
	}
	return nil
}

// writeArchive streams the indented archive form to w: the root
// timestamp's <T>, the synthetic <root>, and every root under it; with
// stats, the archive is counted on the same walk.
func (q *QueryView) writeArchive(w io.Writer, stats *core.Stats) error {
	bw, done := pooledWriter(w)
	defer done()
	sink := xmltree.NewWriter(bw, xmltree.WriteOptions{Indent: true})
	wk := &versionWalk{q: q, sink: sink, stats: stats}
	sink.Open(annotate.TimestampTag, false)
	sink.Attr("t", q.d.rootTime.String())
	sink.Open("root", false)
	for _, r := range q.d.roots {
		if err := wk.emitRoot(r, nil); err != nil {
			return err
		}
	}
	sink.Close()
	sink.Close()
	return bw.Flush()
}

// emitRoot emits a root from one stream: a raw root's whole subtree, or
// the byte ranges of the level-2 entries alive at v (every entry in the
// archive form). Entries that sit next to each other in a segment share a
// range, and the stream keeps a segment's file open from one range to the
// next, so a walk costs one open per segment, not one per entry.
func (w *versionWalk) emitRoot(r *rootRecord, eff *intervals.Set) error {
	up := w.q.spec.Cursor()
	var parts []streamPart
	wrapped := false
	if r.raw {
		parts = rootParts(r)
	} else {
		for _, s := range r.segs {
			for i := range s.entries {
				e := &s.entries[i]
				if w.v > 0 && !entryEff(e, eff).Contains(w.v) {
					continue // skipped without any I/O
				}
				if n := len(parts); n > 0 && parts[n-1].seg == s && parts[n-1].off+parts[n-1].n == e.offset {
					parts[n-1].n += e.size
				} else {
					parts = append(parts, streamPart{seg: s, off: e.offset, n: e.size})
				}
			}
		}
		rt := token{key: r.key, data: r.timeStr, time: r.time}
		if err := w.count(rt); err != nil {
			return err
		}
		wrapped = w.openTime(rt)
		up = up.Child(r.name)
		w.sink.Open(r.name, false)
		for _, a := range r.attrs {
			w.sink.Attr(a.name, a.value)
		}
		if w.stats != nil {
			w.stats.Attributes += len(r.attrs)
		}
	}
	w.tr = w.q.ar.readParts(parts)
	defer w.tr.release()
	for {
		t, ok := w.tr.take()
		if !ok {
			break
		}
		if t.op != tokOpen {
			return corruptf("unexpected token %#x at the head of a subtree of %s", t.op, r.name)
		}
		if err := w.emitNode(t, up); err != nil {
			return err
		}
	}
	if w.tr.err != nil {
		return w.tr.err
	}
	if !r.raw {
		w.sink.Close()
	}
	if wrapped {
		w.sink.Close()
	}
	return nil
}

// openTime opens the <T t> wrapper of a node whose open token, or root
// record, is t, when the walk writes the archive form and the node has a
// timestamp of its own. It reports whether it opened one.
func (w *versionWalk) openTime(t token) bool {
	if w.v > 0 || t.data == "" {
		return false
	}
	w.sink.Open(annotate.TimestampTag, false)
	w.sink.Attr("t", t.data)
	return true
}

// count takes the counters of a keyed-level node above the frontier whose
// open token, or root record, is t, when the walk counts.
func (w *versionWalk) count(t token) error {
	s := w.stats
	if s == nil {
		return nil
	}
	s.Elements++
	if t.key == nil {
		return nil
	}
	s.KeyedNodes++
	ts, err := tokenEff(t)
	if ts == nil {
		s.InheritedTimestamps++
	} else {
		s.ExplicitTimestamps++
		s.TimestampRuns += ts.RunCount()
	}
	return err
}

// dead reports whether the timestamp of an open or group-open token
// excludes v; a node without one lives as long as its parent, and in the
// archive form nothing is dead.
func (w *versionWalk) dead(t token) (bool, error) {
	if w.v == 0 || t.data == "" {
		return false, nil
	}
	ts, err := tokenEff(t)
	return err == nil && !ts.Contains(w.v), err
}

// emitNode projects the node whose open token t was just taken; up is the
// key spec's position at the node's parent.
func (w *versionWalk) emitNode(t token, up keys.Cursor) error {
	name, err := w.q.name(t.tag)
	if err != nil {
		return err
	}
	cur := up.Child(name)
	switch {
	case w.v == 0:
		return w.archiveNode(t, name, cur)
	case cur.Frontier():
		return w.emitFrontier(t)
	}
	return w.emitElement(name, cur)
}

// archiveNode writes the node emitNode took in the archive form: wrapped
// in <T t> when it has a timestamp of its own, and a frontier record
// through core (emitRecord).
func (w *versionWalk) archiveNode(t token, name string, cur keys.Cursor) error {
	wrapped := w.openTime(t)
	var err error
	if cur.Frontier() {
		err = w.emitRecord(t, name, cur)
	} else if err = w.count(t); err == nil {
		err = w.emitElement(name, cur)
	}
	if err == nil && wrapped {
		w.sink.Close()
	}
	return err
}

// emitElement projects a node above the frontier, named name at position
// cur of the key spec, whose open token was just taken: its start tag,
// attributes and children.
func (w *versionWalk) emitElement(name string, cur keys.Cursor) error {
	w.sink.Open(name, false)
	for {
		t, err := w.tr.mustTake(name)
		if err != nil {
			return err
		}
		switch t.op {
		case tokAttr: // the reader has refused one that follows a child
			an, err := w.q.name(t.tag)
			if err != nil {
				return err
			}
			w.sink.Attr(an, t.data)
			if w.stats != nil {
				w.stats.Attributes++
			}
		case tokOpen:
			dead, err := w.dead(t)
			if err != nil {
				return err
			}
			if dead {
				err = w.tr.discardSubtree()
			} else {
				err = w.emitNode(t, cur)
			}
			if err != nil {
				return err
			}
		case tokClose:
			w.sink.Close()
			return nil
		default:
			return corruptf("unexpected token %#x above the frontier", t.op)
		}
	}
}

// emitRecord writes, in the archive form, the frontier record whose open
// token t was just taken: subtreeANode reads it into a node, core counts
// it as the in-memory engine's Stats does, and core.EmitNode writes it.
func (w *versionWalk) emitRecord(t token, name string, cur keys.Cursor) error {
	n, err := w.q.subtreeANode(w.tr, name, t.key, cur)
	if err != nil {
		return err
	}
	if w.stats != nil {
		if n.Time, err = tokenEff(t); err != nil {
			return err
		}
		core.CountNode(n, w.stats)
	}
	core.EmitNode(w.sink, n)
	return nil
}

// emitFrontier projects the frontier record whose open token t was just
// taken: its shared content plus the content of every group alive at v, in
// stream order (which is the archive's group order). Indented XML writes an
// element on one line iff it has a text child, which its open token does
// not say, so the record's live tokens are collected and marked first and
// replayed as events after; groups dead at v are skipped undecoded.
func (w *versionWalk) emitFrontier(t token) error {
	w.toks, w.hasText, w.stack = append(w.toks[:0], t), append(w.hasText[:0], false), append(w.stack[:0], 0)
	inGroup := false
	for len(w.stack) > 0 {
		t, err := w.tr.mustTake("frontier content")
		if err != nil {
			return err
		}
		switch t.op {
		case tokTSOpen:
			if len(w.stack) != 1 || inGroup {
				return corruptf("nested timestamp group")
			}
			dead, err := w.dead(t)
			if err != nil {
				return err
			}
			if !dead {
				inGroup = true
			} else if err := w.tr.discardSubtree(); err != nil {
				return err
			}
			continue
		case tokTSClose:
			if len(w.stack) != 1 || !inGroup {
				return corruptf("unbalanced timestamp group")
			}
			inGroup = false
			continue
		case tokOpen:
			w.stack = append(w.stack, len(w.toks))
		case tokClose:
			w.stack = w.stack[:len(w.stack)-1]
		case tokText:
			w.hasText[w.stack[len(w.stack)-1]] = true
		case tokAttr:
			// The reader refuses an attribute after content in the stream;
			// this one follows content of another live group.
			if last := w.toks[len(w.toks)-1].op; last != tokOpen && last != tokAttr {
				return corruptf("attribute after content")
			}
		}
		w.toks = append(w.toks, t)
		w.hasText = append(w.hasText, false)
	}
	if inGroup {
		return corruptf("unterminated timestamp group")
	}
	for i, t := range w.toks {
		switch t.op {
		case tokOpen, tokAttr:
			name, err := w.q.name(t.tag)
			if err != nil {
				return err
			}
			if t.op == tokOpen {
				w.sink.Open(name, w.hasText[i])
			} else {
				w.sink.Attr(name, t.data)
			}
		case tokText:
			w.sink.Text(t.data)
		case tokClose:
			w.sink.Close()
		}
	}
	return nil
}

// Version reconstructs version v as a document tree from one stream. It
// returns (nil, nil) when version v was archived as an empty database.
func (q *QueryView) Version(v int) (*xmltree.Node, error) {
	var b xmltree.Builder
	if err := q.streamVersion(v, &b); err != nil {
		return nil, err
	}
	return b.Root, nil
}

// WriteArchiveXML streams the archive's XML form to w: the outer <T>
// carries the root timestamp; explicit node timestamps and content groups
// become nested <T> elements. The output is byte-identical to the
// in-memory engine's serialization of the same archive — the
// line-oriented layout the space experiments measure — and parses back
// with the in-memory loader.
func (q *QueryView) WriteArchiveXML(w io.Writer) error {
	return q.writeArchive(w, nil)
}

// Stats summarizes the archive's structure on the archive form's walk:
// the serialized size is counted as it is written, the nodes as they are
// read, never holding more than a frontier record in memory.
func (q *QueryView) Stats() (core.Stats, error) {
	s := core.Stats{Versions: q.d.versions, Elements: 1} // the synthetic root
	var cw core.CountWriter
	if err := q.writeArchive(&cw, &s); err != nil {
		return core.Stats{}, err
	}
	s.XMLBytes = cw.N
	return s, nil
}

// WriteVersion streams the XML of version v directly to w — the bytes are
// identical to serializing Version(v), but no version tree is built. An
// empty version writes nothing.
func (q *QueryView) WriteVersion(v int, w io.Writer, opts xmltree.WriteOptions) error {
	bw, done := pooledWriter(w)
	defer done()
	if err := q.streamVersion(v, xmltree.NewWriter(bw, opts)); err != nil {
		return err
	}
	return bw.Flush()
}
