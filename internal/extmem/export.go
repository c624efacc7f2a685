package extmem

import (
	"io"

	"xarch/internal/core"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// ---------------------------------------------------------------------------
// Stats (streaming)

// Stats summarizes the archive's structure with one streaming pass: the
// indented archive emitter runs over a counting writer (yielding the
// serialized XML size) while the structural counters ride along on the
// same token walk — never holding more than a frontier record in memory
// and never scanning the archive twice.
func (q *QueryView) Stats() (core.Stats, error) {
	s := core.Stats{Versions: q.versions, Elements: 1} // the synthetic root
	var cw core.CountWriter
	if err := q.writeArchiveIndented(&cw, &s); err != nil {
		return core.Stats{}, err
	}
	s.XMLBytes = cw.N
	return s, nil
}

// countNodeOpen accumulates the keyed-level counters of one open token.
func countNodeOpen(t token, s *core.Stats) error {
	s.Elements++
	if t.key == nil {
		return nil
	}
	s.KeyedNodes++
	if t.data == "" {
		s.InheritedTimestamps++
		return nil
	}
	ts, err := tokenEff(t)
	if err != nil {
		return corruptf("bad timestamp %q", t.data)
	}
	s.ExplicitTimestamps++
	s.TimestampRuns += ts.RunCount()
	return nil
}

// countFrontierBody accumulates the counters of one frontier body.
func countFrontierBody(body *fbody, s *core.Stats) {
	countToks := func(toks []token) {
		for _, t := range toks {
			switch t.op {
			case tokOpen:
				s.Elements++
			case tokText:
				s.TextNodes++
			case tokAttr:
				s.Attributes++
			}
		}
	}
	countToks(body.shared)
	for i := range body.groups {
		g := &body.groups[i]
		s.Groups++
		s.TimestampRuns += g.time.RunCount()
		countToks(g.tokens)
	}
}

// ---------------------------------------------------------------------------
// Archive XML (paper form, §2/Fig 5)

// WriteArchiveXML streams the archive's XML form to w: the outer <T>
// carries the root timestamp; explicit node timestamps and content groups
// become nested <T> elements. The output is byte-identical to the
// in-memory engine's serialization of the same archive — the
// line-oriented layout the space experiments measure — and parses back
// with the in-memory loader.
func (q *QueryView) WriteArchiveXML(w io.Writer) error {
	return q.writeArchiveIndented(w, nil)
}

// writeArchiveIndented emits the indented archive form; with a non-nil
// stats, the structural counters are accumulated on the same walk (the
// counting emitter behind Stats).
func (q *QueryView) writeArchiveIndented(w io.Writer, stats *core.Stats) error {
	bw, done := pooledWriter(w)
	defer done()
	out := xmltree.NewWriter(bw, xmltree.WriteOptions{Indent: true})
	out.Open("T", false)
	out.Attr("t", q.d.rootTime.String())
	out.Open("root", false)
	for _, r := range q.d.roots {
		if err := q.writeArchiveRoot(r, out, stats); err != nil {
			return err
		}
	}
	out.Close()
	out.Close()
	return bw.Flush()
}

// writeArchiveRoot emits one root from one stream over its segments. A raw
// root's stored subtree is emitted as it stands; any other root's wrapper,
// start tag and attributes come from its record, and its entries from the
// stream.
func (q *QueryView) writeArchiveRoot(r *rootRecord, out *xmltree.Writer, stats *core.Stats) error {
	tr := q.ar.readParts(rootParts(r))
	defer tr.release()
	up := q.spec.Cursor()
	if !r.raw {
		if err := openArchiveNode(token{key: r.key, data: r.timeStr, time: r.time}, out, stats); err != nil {
			return err
		}
		out.Open(r.name, false)
		for _, a := range r.attrs {
			if stats != nil {
				stats.Attributes++
			}
			out.Attr(a.name, a.value)
		}
		up = up.Child(r.name)
	}
	for {
		t, ok := tr.take()
		if !ok {
			break
		}
		if t.op != tokOpen {
			return corruptf("unexpected token %#x at the head of a subtree of %s", t.op, r.name)
		}
		if err := q.writeArchiveNode(tr, t, out, up, stats); err != nil {
			return err
		}
	}
	if tr.err != nil {
		return tr.err
	}
	if !r.raw {
		out.Close()
		if r.timeStr != "" {
			out.Close()
		}
	}
	return nil
}

// openArchiveNode counts a keyed-level node whose open token, or directory
// record, is t, and writes its <T> wrapper when it carries a timestamp.
func openArchiveNode(t token, out *xmltree.Writer, stats *core.Stats) error {
	if stats != nil {
		if err := countNodeOpen(t, stats); err != nil {
			return err
		}
	}
	if t.data != "" {
		out.Open("T", false)
		out.Attr("t", t.data)
	}
	return nil
}

// writeArchiveNode emits one keyed-level node (whose open token t has been
// consumed) in the indented archive form; up is the key spec's position at
// its parent.
func (q *QueryView) writeArchiveNode(tr *tokenReader, t token, out *xmltree.Writer, up keys.Cursor, stats *core.Stats) error {
	name, err := q.name(t.tag)
	if err != nil {
		return err
	}
	if err := openArchiveNode(t, out, stats); err != nil {
		return err
	}
	cur := up.Child(name)
	if cur.Frontier() {
		body, err := readFrontierBody(tr)
		if err != nil {
			return err
		}
		if stats != nil {
			stats.FrontierNodes++
			countFrontierBody(body, stats)
		}
		n, err := q.bodyToANode(name, body)
		if err != nil {
			return err
		}
		core.EmitNode(out, n)
	} else {
		out.Open(name, false)
		for closed := false; !closed; {
			ct, err := tr.mustTake(name)
			if err != nil {
				return err
			}
			switch ct.op {
			case tokAttr:
				if stats != nil {
					stats.Attributes++
				}
				an, err := q.name(ct.tag)
				if err != nil {
					return err
				}
				out.Attr(an, ct.data)
			case tokClose:
				out.Close()
				closed = true
			case tokOpen:
				if err := q.writeArchiveNode(tr, ct, out, cur, stats); err != nil {
					return err
				}
			default:
				return corruptf("unexpected token %#x above the frontier", ct.op)
			}
		}
	}
	if t.data != "" {
		out.Close()
	}
	return nil
}
