package extmem

import (
	"bufio"
	"fmt"
	"io"

	"xarch/internal/anode"
	"xarch/internal/core"
	"xarch/internal/intervals"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// rootEff returns a root's effective timestamp. Decoded directories
// carry the interval set pre-parsed; freshly-built ones fall back to
// parsing the string.
func (q *QueryView) rootEff(r *rootRecord) (*intervals.Set, error) {
	if r.timeStr == "" {
		return q.rootTime, nil
	}
	if r.time != nil {
		return r.time, nil
	}
	ts, err := intervals.Parse(r.timeStr)
	if err != nil {
		return nil, corruptf("bad timestamp %q", r.timeStr)
	}
	return ts, nil
}

// entryEff returns a child entry's effective timestamp under its root's.
func entryEff(e *childEntry, rootEff *intervals.Set) (*intervals.Set, error) {
	if e.timeStr == "" {
		return rootEff, nil
	}
	if e.time != nil {
		return e.time, nil
	}
	ts, err := intervals.Parse(e.timeStr)
	if err != nil {
		return nil, corruptf("bad timestamp %q", e.timeStr)
	}
	return ts, nil
}

func corruptf(format string, args ...any) error {
	args = append(args, core.ErrCorruptArchive)
	return fmt.Errorf("extmem: "+format+": %w", args...)
}

// pooledWriter borrows a pooled buffered writer over w; call done (after
// the final Flush) to return the buffer.
func pooledWriter(w io.Writer) (bw *bufio.Writer, done func()) {
	bw = tokenWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw, func() {
		bw.Reset(io.Discard)
		tokenWriterPool.Put(bw)
	}
}

// skipSubtree consumes tokens until (and including) the close balancing
// an already-consumed open, discarding payloads without decoding them.
func skipSubtree(tr *tokenReader) error {
	if err := tr.discardSubtree(); err != nil {
		return corruptf("%v", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Version retrieval (§7.1, streaming)

// versionSink receives the projection of one version during a scan. Above
// the frontier the projection streams element-by-element; each frontier
// element arrives as one bounded, fully-projected subtree.
type versionSink interface {
	open(name string)
	attr(name, value string)
	subtree(n *xmltree.Node)
	close(name string)
}

// streamVersion projects version v into the sink: dead subtrees are
// skipped, live ones are emitted. Memory is O(depth + one frontier
// record). With the key directory available, top-level children whose
// interval summary excludes v are skipped without reading a single byte
// of them; the output is byte-identical to the full scan.
func (q *QueryView) streamVersion(v int, sink versionSink) error {
	if v < 1 || v > q.versions {
		return fmt.Errorf("extmem: version %d out of range 1..%d: %w", v, q.versions, core.ErrNoSuchVersion)
	}
	if q.seek {
		return q.streamVersionSeek(v, sink)
	}
	return q.streamVersionScan(v, sink)
}

// streamVersionSeek walks the key directory, reading only the subtrees
// alive at v.
func (q *QueryView) streamVersionSeek(v int, sink versionSink) error {
	emitted := false
	for _, r := range q.d.roots {
		eff, err := q.rootEff(r)
		if err != nil {
			return err
		}
		if !eff.Contains(v) {
			continue
		}
		if emitted {
			return fmt.Errorf("extmem: multiple roots at version %d: %w", v, core.ErrCorruptArchive)
		}
		emitted = true
		if r.raw {
			tr := q.stream(rootParts(r))
			t, ok := tr.take()
			if !ok || t.op != tokOpen {
				tr.release()
				return corruptf("raw root %s has no open token", r.name)
			}
			err := q.emitNode(tr, r.name, v, []string{r.name}, sink)
			tr.release()
			if err != nil {
				return err
			}
			continue
		}
		sink.open(r.name)
		for _, a := range r.attrs {
			sink.attr(a.name, a.value)
		}
		for _, s := range r.segs {
			for i := range s.entries {
				e := &s.entries[i]
				ceff, err := entryEff(e, eff)
				if err != nil {
					return err
				}
				if !ceff.Contains(v) {
					continue // skipped without any I/O
				}
				tr := q.stream(entryParts(s, e))
				t, ok := tr.take()
				if !ok || t.op != tokOpen {
					tr.release()
					return corruptf("entry %s has no open token", e.name)
				}
				err = q.emitNode(tr, e.name, v, []string{r.name, e.name}, sink)
				tr.release()
				if err != nil {
					return err
				}
			}
		}
		sink.close(r.name)
	}
	return nil
}

// streamVersionScan is the directory-free path: one scan of the whole
// archive stream.
func (q *QueryView) streamVersionScan(v int, sink versionSink) error {
	tr, err := q.reader()
	if err != nil {
		return err
	}
	defer tr.release()
	emitted := false
	segs := make([]string, 0, 16)
	for {
		t, ok := tr.take()
		if !ok {
			break
		}
		if t.op != tokOpen {
			return corruptf("unexpected token %#x at archive root", t.op)
		}
		alive := q.rootTime.Contains(v)
		if t.data != "" {
			ts, err := tokenEff(t)
			if err != nil {
				return corruptf("bad timestamp %q", t.data)
			}
			alive = ts.Contains(v)
		}
		if !alive {
			if err := skipSubtree(tr); err != nil {
				return err
			}
			continue
		}
		if emitted {
			return fmt.Errorf("extmem: multiple roots at version %d: %w", v, core.ErrCorruptArchive)
		}
		emitted = true
		name, err := q.name(t.tag)
		if err != nil {
			return err
		}
		if err := q.emitNode(tr, name, v, append(segs, name), sink); err != nil {
			return err
		}
	}
	return tr.err
}

// emitNode projects the (already-opened) node onto version v.
func (q *QueryView) emitNode(tr *tokenReader, name string, v int, segs []string, sink versionSink) error {
	if q.spec.IsFrontier(keys.Path(segs)) {
		body, err := readFrontierBody(tr)
		if err != nil {
			return err
		}
		el, err := q.projectFrontier(name, body, v)
		if err != nil {
			return err
		}
		sink.subtree(el)
		return nil
	}
	sink.open(name)
	for {
		t, ok := tr.peek()
		if !ok || t.op != tokAttr {
			break
		}
		tr.take()
		an, err := q.name(t.tag)
		if err != nil {
			return err
		}
		sink.attr(an, t.data)
	}
	for {
		t, ok := tr.take()
		if !ok {
			return corruptf("truncated archive at %s", name)
		}
		switch t.op {
		case tokClose:
			sink.close(name)
			return nil
		case tokOpen:
			alive := true
			if t.data != "" {
				ts, err := tokenEff(t)
				if err != nil {
					return corruptf("bad timestamp %q", t.data)
				}
				alive = ts.Contains(v)
			}
			if !alive {
				if err := skipSubtree(tr); err != nil {
					return err
				}
				continue
			}
			cn, err := q.name(t.tag)
			if err != nil {
				return err
			}
			if err := q.emitNode(tr, cn, v, append(segs, cn), sink); err != nil {
				return err
			}
		default:
			return corruptf("unexpected token %#x above the frontier", t.op)
		}
	}
}

// projectFrontier builds the frontier element's value at version v: shared
// content plus the content of every group whose timestamp contains v, in
// stream order (which is the archive's group order).
func (q *QueryView) projectFrontier(name string, body *fbody, v int) (*xmltree.Node, error) {
	el := xmltree.Elem(name)
	if err := q.appendItems(el, body.shared, false); err != nil {
		return nil, err
	}
	for i := range body.groups {
		g := &body.groups[i]
		if g.time.Contains(v) {
			if err := q.appendItems(el, g.tokens, false); err != nil {
				return nil, err
			}
		}
	}
	return el, nil
}

// appendItems converts a balanced token sequence into children (and
// attributes) of el. With attrCarrier, a bare attribute item — one
// outside any nested element — becomes an <_attr n="name">value</_attr>
// wrapper, the archive-XML form of attributes inside timestamp groups
// (XML cannot hold a bare attribute as a child element).
func (q *QueryView) appendItems(el *xmltree.Node, toks []token, attrCarrier bool) error {
	stack := []*xmltree.Node{el}
	for _, t := range toks {
		top := stack[len(stack)-1]
		switch t.op {
		case tokOpen:
			n, err := q.name(t.tag)
			if err != nil {
				return err
			}
			c := xmltree.Elem(n)
			top.Append(c)
			stack = append(stack, c)
		case tokAttr:
			n, err := q.name(t.tag)
			if err != nil {
				return err
			}
			if attrCarrier && len(stack) == 1 {
				w := xmltree.Elem("_attr", xmltree.TextNode(t.data))
				w.SetAttr("n", n)
				top.Append(w)
			} else {
				top.Append(xmltree.AttrNode(n, t.data))
			}
		case tokText:
			top.Append(xmltree.TextNode(t.data))
		case tokClose:
			if len(stack) == 1 {
				return corruptf("unbalanced frontier content")
			}
			stack = stack[:len(stack)-1]
		default:
			return corruptf("unexpected token %#x in frontier content", t.op)
		}
	}
	if len(stack) != 1 {
		return corruptf("unbalanced frontier content")
	}
	return nil
}

// treeSink assembles the projected version as an xmltree document.
type treeSink struct {
	stack []*xmltree.Node
	root  *xmltree.Node
}

func (s *treeSink) place(n *xmltree.Node) {
	if len(s.stack) == 0 {
		s.root = n
	} else {
		s.stack[len(s.stack)-1].Append(n)
	}
}

func (s *treeSink) open(name string) {
	e := xmltree.Elem(name)
	s.place(e)
	s.stack = append(s.stack, e)
}

func (s *treeSink) attr(name, value string) {
	s.stack[len(s.stack)-1].Append(xmltree.AttrNode(name, value))
}

func (s *treeSink) subtree(n *xmltree.Node) { s.place(n) }

func (s *treeSink) close(string) { s.stack = s.stack[:len(s.stack)-1] }

// Version reconstructs version v as a document tree with one scan. It
// returns (nil, nil) when version v was archived as an empty database.
func (q *QueryView) Version(v int) (*xmltree.Node, error) {
	var s treeSink
	if err := q.streamVersion(v, &s); err != nil {
		return nil, err
	}
	return s.root, nil
}

// xmlSink streams the projected version as XML, writing byte-identically
// to xmltree's serializer without holding the version in memory: above the
// frontier only an open-element stack is kept, and each frontier subtree
// is serialized through the shared xmltree writer at its depth.
type xmlSink struct {
	w     *bufio.Writer
	opts  xmltree.WriteOptions
	depth int
	stack []xmlFrame
}

type xmlFrame struct {
	name    string
	started bool
}

// closeStart finishes the enclosing element's start tag before its first
// child is written.
func (s *xmlSink) closeStart() {
	if n := len(s.stack); n > 0 && !s.stack[n-1].started {
		s.w.WriteByte('>')
		if s.opts.Indent {
			s.w.WriteByte('\n')
		}
		s.stack[n-1].started = true
	}
}

func (s *xmlSink) indent() {
	if !s.opts.Indent {
		return
	}
	for i := 0; i < s.depth; i++ {
		s.w.WriteString(s.opts.IndentString)
	}
}

func (s *xmlSink) open(name string) {
	s.closeStart()
	s.indent()
	s.w.WriteByte('<')
	s.w.WriteString(name)
	s.stack = append(s.stack, xmlFrame{name: name})
	s.depth++
}

func (s *xmlSink) attr(name, value string) {
	s.w.WriteByte(' ')
	s.w.WriteString(name)
	s.w.WriteString(`="`)
	xmltree.EscapeAttr(s.w, value)
	s.w.WriteByte('"')
}

func (s *xmlSink) subtree(n *xmltree.Node) {
	s.closeStart()
	n.WriteDepth(s.w, s.opts, s.depth)
}

func (s *xmlSink) close(string) {
	fr := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	s.depth--
	if !fr.started {
		s.w.WriteString("/>")
	} else {
		s.indent()
		s.w.WriteString("</")
		s.w.WriteString(fr.name)
		s.w.WriteByte('>')
	}
	if s.opts.Indent {
		s.w.WriteByte('\n')
	}
}

// WriteVersion streams the XML of version v directly to w — the bytes are
// identical to serializing Version(v), but no version tree is built. An
// empty version writes nothing.
func (q *QueryView) WriteVersion(v int, w io.Writer, opts xmltree.WriteOptions) error {
	if opts.IndentString == "" {
		opts.IndentString = "  "
	}
	bw, done := pooledWriter(w)
	defer done()
	sink := &xmlSink{w: bw, opts: opts}
	if err := q.streamVersion(v, sink); err != nil {
		return err
	}
	return bw.Flush()
}

// ---------------------------------------------------------------------------
// History queries (§7.2, streaming)

// resolved carries the outcome of a selector resolution. err holds
// selector-semantic failures (no match, deeper ambiguity) that are only
// reported once the enclosing level has been scanned to the end — a later
// sibling match turns them into an ambiguity error at this level, exactly
// like the in-memory resolver that checks all siblings before descending.
type resolved struct {
	eff  *intervals.Set
	node *anode.Node // only populated when the caller asked for the body
	err  error
}

// History returns the versions in which the selected element exists,
// resolving the selector with one scan of the token file.
func (q *QueryView) History(selector string) (*intervals.Set, error) {
	steps, err := core.ParseSelector(selector)
	if err != nil {
		return nil, err
	}
	r, err := q.resolveSelector(steps, false)
	if err != nil {
		return nil, err
	}
	return r.eff.Clone(), nil
}

// ContentHistory returns, for a frontier element, the versions at which
// its content changed.
func (q *QueryView) ContentHistory(selector string) ([]int, error) {
	steps, err := core.ParseSelector(selector)
	if err != nil {
		return nil, err
	}
	r, err := q.resolveSelector(steps, true)
	if err != nil {
		return nil, err
	}
	return core.ContentChangeVersions(r.node, r.eff), nil
}

func (q *QueryView) resolveSelector(steps []core.SelectorStep, wantBody bool) (*resolved, error) {
	var res *resolved
	var err error
	if q.seek {
		res, err = q.resolveViaDirectory(steps, wantBody)
	} else {
		res, err = q.resolveViaScan(steps, wantBody)
	}
	if err != nil {
		return nil, err
	}
	if res.err != nil {
		return nil, res.err
	}
	return res, nil
}

// resolveViaScan resolves the selector with one scan of the whole
// archive stream (the directory-free path).
func (q *QueryView) resolveViaScan(steps []core.SelectorStep, wantBody bool) (*resolved, error) {
	tr, err := q.reader()
	if err != nil {
		return nil, err
	}
	defer tr.release()
	segs := make([]string, 0, 16)
	return q.resolveLevel(tr, steps, q.rootTime, "", segs, wantBody)
}

// resolveViaDirectory resolves the top two selector steps against the
// in-memory key directory — no I/O at all — and descends into at most
// one matched subtree by seeking straight to its bytes. Match order,
// ambiguity handling and error texts mirror resolveLevel exactly, so the
// two paths are indistinguishable to callers.
func (q *QueryView) resolveViaDirectory(steps []core.SelectorStep, wantBody bool) (*resolved, error) {
	step := &steps[0]
	stepPath := "/" + step.Tag
	var res *resolved
	var foundLabel string
	ambiguous := false
	for _, r := range q.d.roots {
		if ambiguous || r.name != step.Tag || !entryMatches(step, r.key) {
			continue
		}
		label := keyLabel(r.name, r.key)
		if res != nil {
			res = &resolved{err: core.AmbiguousSelectorError(stepPath, foundLabel, label)}
			ambiguous = true
			continue
		}
		foundLabel = label
		eff, err := q.rootEff(r)
		if err != nil {
			return nil, err
		}
		res, err = q.resolveRoot(r, eff, steps, stepPath, wantBody)
		if err != nil {
			return nil, err
		}
	}
	if res == nil {
		return &resolved{err: core.NoSuchElementError(stepPath)}, nil
	}
	return res, nil
}

// resolveRoot resolves the remaining steps inside a matched root record.
func (q *QueryView) resolveRoot(r *rootRecord, eff *intervals.Set, steps []core.SelectorStep, stepPath string, wantBody bool) (*resolved, error) {
	last := len(steps) == 1
	if r.raw {
		// Frontier root: its body must be read from the segment bytes.
		if last && !wantBody {
			return &resolved{eff: eff}, nil
		}
		tr := q.stream(rootParts(r))
		defer tr.release()
		if t, ok := tr.take(); !ok || t.op != tokOpen {
			return nil, corruptf("raw root %s has no open token", r.name)
		}
		body, err := readFrontierBody(tr)
		if err != nil {
			return nil, err
		}
		node, err := q.bodyToANode(r.name, body)
		if err != nil {
			return nil, err
		}
		if last {
			return &resolved{eff: eff, node: node}, nil
		}
		n, eff2, serr := core.ResolveFrom(node, eff, steps[1:], stepPath)
		if serr != nil {
			return &resolved{err: serr}, nil
		}
		return &resolved{eff: eff2, node: n}, nil
	}
	if last {
		return &resolved{eff: eff, node: &anode.Node{Kind: xmltree.Element, Name: r.name}}, nil
	}
	// Level 2: look the step up in the key directory. The entries are
	// sorted by (name, canonical key) across the root's segments, so the
	// lookup binary-searches instead of walking every entry; the first
	// match is resolved and a second match overrides the outcome with an
	// ambiguity error, exactly like the linear scan it replaces.
	step := &steps[1]
	childPath := stepPath + "/" + step.Tag
	matches := r.lookup(step)
	if len(matches) == 0 {
		return &resolved{err: core.NoSuchElementError(childPath)}, nil
	}
	m := matches[0]
	ceff, err := entryEff(m.e, eff)
	if err != nil {
		return nil, err
	}
	res, err := q.resolveEntry(r, m.seg, m.e, ceff, steps[1:], childPath, wantBody)
	if err != nil {
		return nil, err
	}
	if len(matches) > 1 {
		res = &resolved{err: core.AmbiguousSelectorError(childPath,
			keyLabel(m.e.name, m.e.key), keyLabel(matches[1].e.name, matches[1].e.key))}
	}
	return res, nil
}

// resolveEntry resolves the remaining steps inside one matched child
// entry, reading the child's bytes only when the answer needs them:
// History on a selective two-step selector is answered from the
// directory alone.
func (q *QueryView) resolveEntry(r *rootRecord, s *segmentRecord, e *childEntry, eff *intervals.Set, steps []core.SelectorStep, stepPath string, wantBody bool) (*resolved, error) {
	last := len(steps) == 1
	if last && !wantBody {
		return &resolved{eff: eff}, nil
	}
	frontier := q.spec.IsFrontier(keys.Path([]string{r.name, e.name}))
	if last && !frontier {
		// Above-frontier nodes have no content groups; ContentHistory
		// reports their first version.
		return &resolved{eff: eff, node: &anode.Node{Kind: xmltree.Element, Name: e.name}}, nil
	}
	if !frontier {
		// With a fresh attribute index the entry's direct children carry
		// byte spans: resolve the next step against that mini-index and
		// seek straight to the one matched child subtree, instead of
		// streaming every sibling of the entry.
		if res, ok, err := q.resolveViaKids(r, s, e, eff, steps, stepPath, wantBody); ok || err != nil {
			return res, err
		}
	}
	tr := q.stream(entryParts(s, e))
	defer tr.release()
	if t, ok := tr.take(); !ok || t.op != tokOpen {
		return nil, corruptf("entry %s has no open token", e.name)
	}
	if frontier {
		body, err := readFrontierBody(tr)
		if err != nil {
			return nil, err
		}
		node, err := q.bodyToANode(e.name, body)
		if err != nil {
			return nil, err
		}
		if last {
			return &resolved{eff: eff, node: node}, nil
		}
		n, eff2, serr := core.ResolveFrom(node, eff, steps[1:], stepPath)
		if serr != nil {
			return &resolved{err: serr}, nil
		}
		return &resolved{eff: eff2, node: n}, nil
	}
	drainAttrs(tr)
	sub, err := q.resolveLevel(tr, steps[1:], eff, stepPath, []string{r.name, e.name}, wantBody)
	if err != nil {
		return nil, err
	}
	if t, ok := tr.take(); !ok || t.op != tokClose {
		return nil, corruptf("missing close at %s", stepPath)
	}
	return sub, nil
}

// resolveViaKids resolves steps[1] against the attribute index's kid
// mini-index of the entry, seeking to the single matched child subtree.
// ok=false means no usable index (absent sidecar, scan-built postings
// without spans) and the caller falls back to streaming the entry. Match
// order, ambiguity handling and error texts mirror resolveLevel exactly.
func (q *QueryView) resolveViaKids(r *rootRecord, s *segmentRecord, e *childEntry, eff *intervals.Set, steps []core.SelectorStep, stepPath string, wantBody bool) (*resolved, bool, error) {
	if q.aidx == nil {
		return nil, false, nil
	}
	fi := q.aidx.files[s.file]
	if fi == nil {
		return nil, false, nil
	}
	var ent *idxEntry
	for i := range s.entries {
		if &s.entries[i] == e {
			if i < len(fi.entries) {
				ent = fi.entries[i]
			}
			break
		}
	}
	if ent == nil || !ent.hasKids {
		return nil, false, nil
	}
	step := &steps[1]
	kidPath := stepPath + "/" + step.Tag
	var first *idxKid
	var foundLabel string
	for ki := range ent.kids {
		k := &ent.kids[ki]
		if k.name != step.Tag || !entryMatches(step, k.key) {
			continue
		}
		if first != nil {
			return &resolved{err: core.AmbiguousSelectorError(kidPath, foundLabel, keyLabel(k.name, k.key))}, true, nil
		}
		first = k
		foundLabel = keyLabel(k.name, k.key)
	}
	if first == nil {
		return &resolved{err: core.NoSuchElementError(kidPath)}, true, nil
	}
	keff := eff
	if first.timeStr != "" {
		ts, err := intervals.Parse(first.timeStr)
		if err != nil {
			return nil, false, corruptf("attr index timestamp %q", first.timeStr)
		}
		keff = ts
	}
	tr := q.stream([]streamPart{{seg: s, off: e.offset + first.off, n: first.size}})
	defer tr.release()
	if t, ok := tr.take(); !ok || t.op != tokOpen {
		return nil, false, corruptf("kid %s has no open token", first.name)
	}
	res, err := q.resolveInto(tr, first.name, keff, steps[1:], kidPath, []string{r.name, e.name, first.name}, wantBody)
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
}

// resolveLevel scans the sibling sequence at the cursor (stopping at the
// balancing close, which it does not consume) for elements matching the
// first step. The first match is resolved immediately — the stream cannot
// be revisited — and a second match turns the outcome into an ambiguity
// error. Every selector-semantic outcome, including ambiguity, travels as
// a soft resolved.err: the in-memory resolver checks each level's
// siblings before descending, so an ambiguity at an enclosing level must
// override whatever resolving inside the first match produced, and only
// the outermost still-ambiguous level is reported.
func (q *QueryView) resolveLevel(tr *tokenReader, steps []core.SelectorStep, parentEff *intervals.Set, path string, segs []string, wantBody bool) (*resolved, error) {
	step := &steps[0]
	stepPath := path + "/" + step.Tag
	var res *resolved
	var foundLabel string
	ambiguous := false
	for {
		t, ok := tr.peek()
		if !ok || t.op == tokClose {
			break
		}
		if t.op != tokOpen {
			return nil, corruptf("unexpected token %#x at keyed level", t.op)
		}
		tr.take()
		name, err := q.name(t.tag)
		if err != nil {
			return nil, err
		}
		if ambiguous || name != step.Tag || !step.MatchesKey(keyDisplay(t.key)) {
			if err := skipSubtree(tr); err != nil {
				return nil, err
			}
			continue
		}
		label := keyLabel(name, t.key)
		if res != nil {
			res = &resolved{err: core.AmbiguousSelectorError(stepPath, foundLabel, label)}
			ambiguous = true
			if err := skipSubtree(tr); err != nil {
				return nil, err
			}
			continue
		}
		foundLabel = label
		eff := parentEff
		if t.data != "" {
			ts, err := tokenEff(t)
			if err != nil {
				return nil, corruptf("bad timestamp %q", t.data)
			}
			eff = ts
		}
		res, err = q.resolveInto(tr, name, eff, steps, stepPath, append(segs, name), wantBody)
		if err != nil {
			return nil, err
		}
	}
	if tr.err != nil {
		return nil, tr.err
	}
	if res == nil {
		return &resolved{err: core.NoSuchElementError(stepPath)}, nil
	}
	return res, nil
}

// resolveInto resolves the remaining steps inside the (already-opened)
// matched node and consumes the node's whole subtree.
func (q *QueryView) resolveInto(tr *tokenReader, name string, eff *intervals.Set, steps []core.SelectorStep, stepPath string, segs []string, wantBody bool) (*resolved, error) {
	last := len(steps) == 1
	if q.spec.IsFrontier(keys.Path(segs)) {
		if last && !wantBody {
			if err := skipSubtree(tr); err != nil {
				return nil, err
			}
			return &resolved{eff: eff}, nil
		}
		body, err := readFrontierBody(tr)
		if err != nil {
			return nil, err
		}
		node, err := q.bodyToANode(name, body)
		if err != nil {
			return nil, err
		}
		if last {
			return &resolved{eff: eff, node: node}, nil
		}
		// Selector tails that descend below the frontier resolve over the
		// materialized (record-sized) body with the shared core resolver.
		n, eff2, serr := core.ResolveFrom(node, eff, steps[1:], stepPath)
		if serr != nil {
			return &resolved{err: serr}, nil
		}
		return &resolved{eff: eff2, node: n}, nil
	}
	if last {
		if err := skipSubtree(tr); err != nil {
			return nil, err
		}
		// Above-frontier nodes have no content groups; ContentHistory
		// reports their first version.
		return &resolved{eff: eff, node: &anode.Node{Kind: xmltree.Element, Name: name}}, nil
	}
	drainAttrs(tr)
	sub, err := q.resolveLevel(tr, steps[1:], eff, stepPath, segs, wantBody)
	if err != nil {
		return nil, err
	}
	if t, ok := tr.take(); !ok || t.op != tokClose {
		return nil, corruptf("missing close at %s", stepPath)
	}
	return sub, nil
}

// bodyToANode converts a frontier body into an annotated node carrying the
// same shared-content/group structure the in-memory loader would build.
func (q *QueryView) bodyToANode(name string, body *fbody) (*anode.Node, error) {
	n := &anode.Node{Kind: xmltree.Element, Name: name, Frontier: true}
	shared, err := q.tokensToANodes(body.shared)
	if err != nil {
		return nil, err
	}
	if len(body.groups) == 0 {
		n.SetContentItems(shared)
		return n, nil
	}
	var groups []*anode.Group
	if len(shared) > 0 {
		groups = append(groups, &anode.Group{Content: shared}) // inherited time
	}
	for i := range body.groups {
		g := &body.groups[i]
		items, err := q.tokensToANodes(g.tokens)
		if err != nil {
			return nil, err
		}
		groups = append(groups, &anode.Group{Time: g.time, Content: items})
	}
	n.Groups = groups
	return n, nil
}

// tokensToANodes converts a balanced token sequence into annotated content
// items.
func (q *QueryView) tokensToANodes(toks []token) ([]*anode.Node, error) {
	var items []*anode.Node
	var stack []*anode.Node
	place := func(n *anode.Node) {
		if len(stack) == 0 {
			items = append(items, n)
		} else if top := stack[len(stack)-1]; n.Kind == xmltree.Attr {
			top.Attrs = append(top.Attrs, n)
		} else {
			top.Children = append(top.Children, n)
		}
	}
	for _, t := range toks {
		switch t.op {
		case tokOpen:
			tn, err := q.name(t.tag)
			if err != nil {
				return nil, err
			}
			n := &anode.Node{Kind: xmltree.Element, Name: tn}
			place(n)
			stack = append(stack, n)
		case tokAttr:
			tn, err := q.name(t.tag)
			if err != nil {
				return nil, err
			}
			place(&anode.Node{Kind: xmltree.Attr, Name: tn, Data: t.data})
		case tokText:
			place(&anode.Node{Kind: xmltree.Text, Data: t.data})
		case tokClose:
			if len(stack) == 0 {
				return nil, corruptf("unbalanced frontier content")
			}
			stack = stack[:len(stack)-1]
		default:
			return nil, corruptf("unexpected token %#x in frontier content", t.op)
		}
	}
	if len(stack) != 0 {
		return nil, corruptf("unbalanced frontier content")
	}
	return items, nil
}

// entryMatches evaluates a selector step's predicates against a key
// annotation, deriving display values only for the paths the predicates
// name — semantically identical to SelectorStep.MatchesKey over
// keyDisplay (the randomized seek-vs-scan property test pins this), but
// without materializing a display slice per directory entry.
func entryMatches(step *core.SelectorStep, k *tkey) bool {
	for _, p := range step.Preds {
		ok := false
		if k != nil {
			for i := range k.paths {
				if k.paths[i] == p.Path {
					ok = xmltree.DisplayFromCanonical(k.canon[i]) == p.Value
					break
				}
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// keyDisplay derives the key annotation's path names and display values
// from the canonical forms carried in the token stream, using the same
// derivation the in-memory annotator applies, so selectors match
// identically on both engines.
func keyDisplay(k *tkey) (paths, disp []string) {
	if k == nil {
		return nil, nil
	}
	disp = make([]string, len(k.canon))
	for i, c := range k.canon {
		disp[i] = xmltree.DisplayFromCanonical(c)
	}
	return k.paths, disp
}

// keyLabel renders "emp{fn=John,ln=Doe}" for error messages, matching the
// annotated-node Label format.
func keyLabel(name string, k *tkey) string {
	if k == nil || len(k.paths) == 0 {
		return name
	}
	paths, disp := keyDisplay(k)
	out := name + "{"
	for i := range paths {
		if i > 0 {
			out += ","
		}
		out += paths[i] + "=" + disp[i]
	}
	return out + "}"
}

// ---------------------------------------------------------------------------
// Stats (streaming)

// countWriter counts bytes written through it.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// Stats summarizes the archive's structure with one streaming pass: the
// indented archive emitter runs over a counting writer (yielding the
// serialized XML size) while the structural counters ride along on the
// same token walk — never holding more than a frontier record in memory
// and never scanning the archive twice.
func (q *QueryView) Stats() (core.Stats, error) {
	s := core.Stats{Versions: q.versions, Elements: 1} // the synthetic root
	var cw countWriter
	if err := q.writeArchiveIndented(&cw, &s); err != nil {
		return core.Stats{}, err
	}
	s.XMLBytes = cw.n
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
	opts := xmltree.WriteOptions{Indent: true, IndentString: "  "}
	tr, err := q.reader()
	if err != nil {
		return err
	}
	defer tr.release()

	fmt.Fprintf(bw, "<T t=\"%s\">\n", q.rootTime.String())
	if _, ok := tr.peek(); !ok {
		bw.WriteString("  <root/>\n")
	} else {
		bw.WriteString("  <root>\n")
		segs := make([]string, 0, 16)
		for {
			t, ok := tr.take()
			if !ok {
				break
			}
			if t.op != tokOpen {
				return corruptf("unexpected token %#x at archive root", t.op)
			}
			if err := q.writeArchiveNode(tr, t, bw, opts, 2, segs, stats); err != nil {
				return err
			}
		}
		if tr.err != nil {
			return tr.err
		}
		bw.WriteString("  </root>\n")
	}
	bw.WriteString("</T>\n")
	return bw.Flush()
}

// writeArchiveNode emits one keyed-level node (whose open token t has been
// consumed) in the indented archive form.
func (q *QueryView) writeArchiveNode(tr *tokenReader, t token, bw *bufio.Writer, opts xmltree.WriteOptions, depth int, segs []string, stats *core.Stats) error {
	name, err := q.name(t.tag)
	if err != nil {
		return err
	}
	if stats != nil {
		if err := countNodeOpen(t, stats); err != nil {
			return err
		}
	}
	segs = append(segs, name)
	indent := func(d int) {
		for i := 0; i < d; i++ {
			bw.WriteString(opts.IndentString)
		}
	}
	if t.data != "" {
		indent(depth)
		fmt.Fprintf(bw, "<T t=\"%s\">\n", t.data)
		depth++
	}
	if q.spec.IsFrontier(keys.Path(segs)) {
		body, err := readFrontierBody(tr)
		if err != nil {
			return err
		}
		if stats != nil {
			stats.FrontierNodes++
			countFrontierBody(body, stats)
		}
		el, err := q.bodyToArchiveXML(name, body)
		if err != nil {
			return err
		}
		el.WriteDepth(bw, opts, depth)
	} else {
		indent(depth)
		bw.WriteByte('<')
		bw.WriteString(name)
		started := false
		for {
			ct, ok := tr.take()
			if !ok {
				return corruptf("truncated archive at %s", name)
			}
			if ct.op == tokAttr {
				if stats != nil {
					stats.Attributes++
				}
				an, err := q.name(ct.tag)
				if err != nil {
					return err
				}
				bw.WriteByte(' ')
				bw.WriteString(an)
				bw.WriteString(`="`)
				xmltree.EscapeAttr(bw, ct.data)
				bw.WriteByte('"')
				continue
			}
			if ct.op == tokClose {
				if !started {
					bw.WriteString("/>\n")
				} else {
					indent(depth)
					bw.WriteString("</")
					bw.WriteString(name)
					bw.WriteString(">\n")
				}
				break
			}
			if ct.op != tokOpen {
				return corruptf("unexpected token %#x above the frontier", ct.op)
			}
			if !started {
				bw.WriteString(">\n")
				started = true
			}
			if err := q.writeArchiveNode(tr, ct, bw, opts, depth+1, segs, stats); err != nil {
				return err
			}
		}
	}
	if t.data != "" {
		depth--
		indent(depth)
		bw.WriteString("</T>\n")
	}
	return nil
}

// bodyToArchiveXML builds the archive-form XML tree of one frontier node:
// shared content inline, each timestamped group as a <T t="..."> element,
// attribute items inside groups carried by <_attr n="..."> wrappers (the
// same reserved names the in-memory serializer and loader use).
func (q *QueryView) bodyToArchiveXML(name string, body *fbody) (*xmltree.Node, error) {
	el := xmltree.Elem(name)
	if err := q.appendItems(el, body.shared, false); err != nil {
		return nil, err
	}
	for i := range body.groups {
		g := &body.groups[i]
		te := xmltree.Elem("T")
		te.SetAttr("t", g.time.String())
		if err := q.appendItems(te, g.tokens, true); err != nil {
			return nil, err
		}
		el.Append(te)
	}
	return el, nil
}
