package extmem

import (
	"fmt"
	"io"

	"xarch/internal/core"
	"xarch/internal/intervals"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// ---------------------------------------------------------------------------
// Version retrieval (§7.1, streaming)

// versionWalk is one projection of version v onto a sink: a single pass of
// one token reader over the bytes alive at v, building nothing. Memory is
// O(depth + one frontier record's tokens).
type versionWalk struct {
	q    *QueryView
	v    int
	sink xmltree.Sink
	tr   *tokenReader

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
	if v < 1 || v > q.versions {
		return fmt.Errorf("extmem: version %d out of range 1..%d: %w", v, q.versions, core.ErrNoSuchVersion)
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

// emitRoot emits a root alive at v from one stream: a raw root's whole
// subtree, or the byte ranges of the level-2 entries alive at v. Entries
// that sit next to each other in a segment share a range, and the stream
// keeps a segment's file open from one range to the next, so a version
// costs one open per segment, not one per entry.
func (w *versionWalk) emitRoot(r *rootRecord, eff *intervals.Set) error {
	up := w.q.spec.Cursor()
	var parts []streamPart
	if r.raw {
		parts = rootParts(r)
	} else {
		for _, s := range r.segs {
			for i := range s.entries {
				e := &s.entries[i]
				if !entryEff(e, eff).Contains(w.v) {
					continue // skipped without any I/O
				}
				if n := len(parts); n > 0 && parts[n-1].seg == s && parts[n-1].off+parts[n-1].n == e.offset {
					parts[n-1].n += e.size
				} else {
					parts = append(parts, streamPart{seg: s, off: e.offset, n: e.size})
				}
			}
		}
		up = up.Child(r.name)
		w.sink.Open(r.name, false)
		for _, a := range r.attrs {
			w.sink.Attr(a.name, a.value)
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
	return nil
}

// dead reports whether the timestamp of an open or group-open token
// excludes v; a node without one lives as long as its parent.
func (w *versionWalk) dead(t token) (bool, error) {
	if t.data == "" {
		return false, nil
	}
	ts, err := tokenEff(t)
	if err != nil {
		return false, corruptf("bad timestamp %q", t.data)
	}
	return !ts.Contains(w.v), nil
}

// emitNode projects the node whose open token t was just taken onto
// version v; up is the key spec's position at the node's parent.
func (w *versionWalk) emitNode(t token, up keys.Cursor) error {
	name, err := w.q.name(t.tag)
	if err != nil {
		return err
	}
	cur := up.Child(name)
	if cur.Frontier() {
		return w.emitFrontier(t)
	}
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
