package extmem

// The external sort of §6, second half (see decompose.go): bounded-memory
// sorted runs over the token file and key files of a streamed version,
// then one multi-way merge of the runs. Like decompose.go this serves
// WithValidation(false) readers only, and runs sequentially: decompose,
// then one run former, then the run merge.

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"xarch/internal/fsio"
	"xarch/internal/keys"
)

// SortStats reports the work of one external sort (§6.2). A version added
// as a tree is sorted in memory and reports none.
type SortStats struct {
	Runs      int // sorted runs formed
	RunTokens int // total tokens across runs (stem duplication included)
}

// scratchWriter is a scratch file being written as a token stream.
type scratchWriter struct {
	*tokenWriter
	f fsio.File
}

func createScratch(fs fsio.FS, path string) (*scratchWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("extmem: %w", err)
	}
	return &scratchWriter{newTokenWriter(f), f}, nil
}

// finish flushes the stream and closes the file.
func (w *scratchWriter) finish() error {
	err := w.flush()
	w.release()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// externalSort sorts the XML version streamed from r into sortedPath
// without ever holding it in memory: decompose into the token file and
// one key file per keyed-path pattern that occurs (§6.1), form sorted
// runs from those under the token budget, merge the runs (§6.2). It
// returns every scratch file it created, sortedPath included, also on
// failure.
func (ar *Archiver) externalSort(r io.Reader, sortedPath string) (stats SortStats, scratch []string, err error) {
	tokPath := ar.tmpPath("version.tok")
	scratch = append(scratch, tokPath)
	tokens, err := createScratch(ar.fs, tokPath)
	if err != nil {
		return stats, scratch, err
	}
	writers := []*scratchWriter{tokens}
	keyPaths := map[string]string{}
	err = decompose(r, ar.spec, ar.dict, tokens.tokenWriter, func(pattern string) (*tokenWriter, error) {
		p := ar.tmpPath("keys-" + sanitize(pattern) + ".key")
		scratch = append(scratch, p)
		w, err := createScratch(ar.fs, p)
		if err != nil {
			return nil, err
		}
		writers = append(writers, w)
		keyPaths[pattern] = p
		return w.tokenWriter, nil
	})
	for _, w := range writers {
		if ferr := w.finish(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		return stats, scratch, err
	}

	rf := &runFormer{fs: ar.fs, dict: ar.dict, spec: ar.spec, budget: max(ar.cfg.Budget, 16),
		dir: ar.dir, keyPaths: keyPaths, keyReaders: map[string]*keyReader{}}
	err = rf.formRuns(tokPath)
	scratch = append(scratch, rf.runs...)
	if err != nil {
		return stats, scratch, err
	}
	scratch = append(scratch, sortedPath)
	return rf.stats, scratch, mergeRunFiles(ar.fs, rf.runs, ar.dict, sortedPath)
}

// pnode is one node of a partial tree held by the run former.
type pnode struct {
	tag      int
	name     string
	key      *tkey
	frontier bool
	stem     bool // re-created by flushRun, not met in the document
	attrs    []token
	children []*pnode
	content  []token // raw content of a frontier node
}

// runFormer builds bounded-memory sorted runs from the token file of a
// streamed version, attaching to every keyed node the composite key value
// it pops from the §6.1 key file of the node's path pattern.
type runFormer struct {
	fs     fsio.FS
	dict   *dictionary
	spec   *keys.Spec
	budget int // max tokens held in a partial tree
	dir    string

	keyPaths   map[string]string // key file per keyed-path pattern
	keyReaders map[string]*keyReader

	runs       []string
	used       int
	root       *pnode
	stack      []*pnode
	path       []string
	inFrontier int      // depth inside frontier content (0 = at keyed levels)
	sorting    []string // path of the node writeSorted is at, to name errors
	stats      SortStats
}

// formRuns reads the token file at tokPath to its end, leaving the runs
// written — also on failure — in rf.runs.
func (rf *runFormer) formRuns(tokPath string) error {
	f, err := rf.fs.Open(tokPath)
	if err != nil {
		return fmt.Errorf("extmem: %w", err)
	}
	tr := newTokenReader(f)
	defer func() {
		tr.release()
		f.Close()
		for _, kr := range rf.keyReaders {
			kr.f.Close()
		}
	}()
	for {
		t, ok := tr.take()
		if !ok {
			break
		}
		if err := rf.feed(t); err != nil {
			return err
		}
	}
	if tr.err != nil {
		return tr.err
	}
	if len(rf.stack) != 0 {
		return fmt.Errorf("extmem: token stream ends inside an element")
	}
	if err := rf.flushRun(nil); err != nil {
		return err
	}
	rf.stats.Runs = len(rf.runs)
	return nil
}

func (rf *runFormer) top() *pnode {
	if len(rf.stack) == 0 {
		return nil
	}
	return rf.stack[len(rf.stack)-1]
}

func (rf *runFormer) feed(t token) error {
	rf.used++
	top := rf.top()

	// Inside frontier content, tokens are copied verbatim. At item
	// boundaries (depth 1) the partial tree may be flushed mid-content;
	// the run merge concatenates the parts back in run order.
	if rf.inFrontier > 0 {
		top.content = append(top.content, t)
		switch t.op {
		case tokOpen:
			rf.inFrontier++
		case tokClose:
			rf.inFrontier--
			if rf.inFrontier == 0 {
				// The frontier node itself closed: the last token belongs
				// to it, not its content.
				top.content = top.content[:len(top.content)-1]
				return rf.closeNode()
			}
		}
		if rf.inFrontier == 1 && rf.used >= rf.budget {
			return rf.flushRun(rf.stack)
		}
		return nil
	}

	switch t.op {
	case tokOpen:
		name, err := rf.dict.name(t.tag)
		if err != nil {
			return err
		}
		rf.path = append(rf.path, name)
		k := rf.spec.KeyFor(keys.Path(rf.path))
		if k == nil {
			return fmt.Errorf("extmem: unkeyed element %s above the frontier", pathString(rf.path))
		}
		key, err := rf.nextKey(k.Pattern())
		if err != nil {
			return fmt.Errorf("extmem: key file for %s: %w", k.Pattern(), err)
		}
		n := &pnode{tag: t.tag, name: name, key: key,
			frontier: rf.spec.IsFrontier(keys.Path(rf.path))}
		if top == nil {
			if rf.root != nil {
				return fmt.Errorf("extmem: multiple roots in token stream")
			}
			rf.root = n
		} else {
			top.children = append(top.children, n)
		}
		rf.stack = append(rf.stack, n)
		if n.frontier {
			rf.inFrontier = 1
		}
		return nil
	case tokAttr:
		if top == nil {
			return fmt.Errorf("extmem: attribute outside element")
		}
		top.attrs = append(top.attrs, t)
		return nil
	case tokText:
		return fmt.Errorf("extmem: text above the frontier")
	case tokClose:
		return rf.closeNode()
	default:
		return fmt.Errorf("extmem: unexpected token %#x at keyed level", t.op)
	}
}

// nextKey pops the next composite key value for the given path pattern.
func (rf *runFormer) nextKey(pattern string) (*tkey, error) {
	kr, ok := rf.keyReaders[pattern]
	if !ok {
		path, ok := rf.keyPaths[pattern]
		if !ok {
			return nil, fmt.Errorf("no key was written for the pattern")
		}
		f, err := rf.fs.Open(path)
		if err != nil {
			return nil, err
		}
		kr = &keyReader{newRawReader(f), f}
		rf.keyReaders[pattern] = kr
	}
	return readKeyRecord(kr.rawReader)
}

func (rf *runFormer) closeNode() error {
	if len(rf.stack) == 0 {
		return fmt.Errorf("extmem: unbalanced close")
	}
	rf.stack = rf.stack[:len(rf.stack)-1]
	rf.path = rf.path[:len(rf.path)-1]
	if rf.used >= rf.budget {
		return rf.flushRun(rf.stack)
	}
	return nil
}

// flushRun writes the current partial tree as a sorted run, then rebuilds
// a fresh stem for the still-open nodes.
func (rf *runFormer) flushRun(openStack []*pnode) error {
	if rf.root == nil {
		return nil
	}
	path := filepath.Join(rf.dir, fmt.Sprintf("tmp-run%04d.tok", len(rf.runs)))
	w, err := createScratch(rf.fs, path)
	if err != nil {
		return err
	}
	rf.runs = append(rf.runs, path)
	err = rf.writeSorted(w.tokenWriter, rf.root)
	if ferr := w.finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}

	// Duplicate the stem: re-create each still-open node, emptied.
	rf.root = nil
	rf.used = 0
	var parent *pnode
	newStack := make([]*pnode, 0, len(openStack))
	for _, old := range openStack {
		fresh := &pnode{tag: old.tag, name: old.name, key: old.key, frontier: old.frontier, stem: true}
		if !old.frontier {
			// Non-frontier stem nodes re-carry their attributes (merged
			// away again during the run merge); frontier content already
			// written stays in the earlier run.
			fresh.attrs = append(fresh.attrs, old.attrs...)
		}
		rf.used += 1 + len(fresh.attrs)
		if parent == nil {
			rf.root = fresh
		} else {
			parent.children = append(parent.children, fresh)
		}
		newStack = append(newStack, fresh)
		parent = fresh
	}
	rf.stack = newStack
	return nil
}

// writeSorted emits a pnode tree with keyed children sorted by label.
// Sorted, two siblings with one label are adjacent: a key violation,
// which the run merge would otherwise fuse into one node.
func (rf *runFormer) writeSorted(tw *tokenWriter, n *pnode) error {
	rf.sorting = append(rf.sorting, n.name)
	if n.stem {
		tw.openStem(n.tag, n.key)
	} else {
		tw.open(n.tag, n.key, "")
	}
	rf.stats.RunTokens++
	for _, a := range n.attrs {
		tw.writeToken(a)
		rf.stats.RunTokens++
	}
	if n.frontier {
		for _, t := range n.content {
			tw.writeToken(t)
			rf.stats.RunTokens++
		}
	} else {
		sort.SliceStable(n.children, func(i, j int) bool {
			return lessPNode(n.children[i], n.children[j])
		})
		for i, c := range n.children {
			if i > 0 && !lessPNode(n.children[i-1], c) {
				return fmt.Errorf("extmem: %s: more than one child %s", pathString(rf.sorting), keyLabel(c.name, c.key))
			}
			if err := rf.writeSorted(tw, c); err != nil {
				return err
			}
		}
	}
	tw.close()
	rf.stats.RunTokens++
	rf.sorting = rf.sorting[:len(rf.sorting)-1]
	return nil
}

func lessPNode(a, b *pnode) bool {
	if a.name != b.name {
		return a.name < b.name
	}
	return compareKeys(a.key, b.key) < 0
}

// mergeRunFiles merges sorted runs into one sorted token file (§6.2's
// multi-way merge; all runs are merged in one pass, which matches the
// paper's (M/B)-1 fan-in for the file counts arising at these scales).
func mergeRunFiles(fs fsio.FS, runPaths []string, dict *dictionary, outPath string) error {
	var files []fsio.File
	var cursors []*tokenReader
	for _, p := range runPaths {
		f, err := fs.Open(p)
		if err != nil {
			return fmt.Errorf("extmem: open run: %w", err)
		}
		files = append(files, f)
		cursors = append(cursors, newTokenReader(f))
	}
	defer func() {
		for _, c := range cursors {
			c.release()
		}
		for _, f := range files {
			f.Close()
		}
	}()

	out, err := createScratch(fs, outPath)
	if err != nil {
		return err
	}
	m := &runMerger{dict: dict, out: out.tokenWriter}
	// Every run repeats the root stem; merge from the top.
	live := cursors[:0:0]
	for _, c := range cursors {
		if _, ok := c.peek(); ok {
			live = append(live, c)
		}
	}
	if len(live) > 0 {
		err = m.mergeNodes(live)
	}
	for _, c := range cursors {
		if err == nil {
			err = c.err
		}
	}
	if ferr := out.finish(); err == nil {
		err = ferr
	}
	return err
}

type runMerger struct {
	dict *dictionary
	out  *tokenWriter
	path []string // names of the nodes being merged, to name errors
}

// mergeNodes merges the same-label node at the head of every cursor: the
// open/attrs are emitted once; keyed children are merged by ascending
// label; frontier content is concatenated in run-creation order.
//
// The cursors are in run order and a node spans consecutive runs: met in
// the document in the first, repeated as a stem (flagStem) by each run
// after it. A same-label open that is not a stem is therefore a second
// node with the first one's key, which the run former could not see
// because the two fell into different runs.
func (m *runMerger) mergeNodes(cursors []*tokenReader) error {
	var name string
	for i, c := range cursors {
		t, ok := c.take()
		if !ok || t.op != tokOpen {
			return fmt.Errorf("extmem: run cursor not at an open tag")
		}
		switch {
		case i == 0:
			m.out.writeToken(t)
			var err error
			if name, err = m.dict.name(t.tag); err != nil {
				return err
			}
		case !t.stem:
			return fmt.Errorf("extmem: %s: more than one child %s", pathString(m.path), keyLabel(name, t.key))
		}
	}
	m.path = append(m.path, name)
	defer func() { m.path = m.path[:len(m.path)-1] }()

	// Attributes: emit the first cursor's, drain the others'.
	first := true
	for _, c := range cursors {
		for {
			t, ok := c.peek()
			if !ok || t.op != tokAttr {
				break
			}
			c.take()
			if first {
				m.out.writeToken(t)
			}
		}
		first = false
	}

	// Frontier node: concatenate content verbatim in run order.
	if isFrontierContentNext(cursors) {
		for _, c := range cursors {
			if err := m.copyContent(c); err != nil {
				return err
			}
		}
		m.out.close()
		return nil
	}

	// Keyed children: repeated minimum-label merge.
	for {
		var minIdx []int
		var minName string
		var minKey *tkey
		for i, c := range cursors {
			t, ok := c.peek()
			if !ok || t.op != tokOpen {
				continue
			}
			n, err := m.dict.name(t.tag)
			if err != nil {
				return err
			}
			cmp := 1
			if len(minIdx) > 0 {
				if n != minName {
					if n < minName {
						cmp = -1
					}
				} else {
					cmp = compareKeys(t.key, minKey)
				}
			} else {
				cmp = -1
			}
			switch {
			case cmp < 0:
				minIdx = minIdx[:0]
				minIdx = append(minIdx, i)
				minName, minKey = n, t.key
			case cmp == 0:
				minIdx = append(minIdx, i)
			}
		}
		if len(minIdx) == 0 {
			break
		}
		sub := make([]*tokenReader, len(minIdx))
		for j, i := range minIdx {
			sub[j] = cursors[i]
		}
		if err := m.mergeNodes(sub); err != nil {
			return err
		}
	}

	// Consume the close of every cursor.
	for _, c := range cursors {
		t, ok := c.take()
		if !ok || t.op != tokClose {
			return fmt.Errorf("extmem: run cursor missing close tag")
		}
	}
	m.out.close()
	return nil
}

// isFrontierContentNext reports whether any cursor's next token is content
// (text, or an open immediately inside a frontier node is indistinguishable
// from a keyed child by opcode — frontier nodes are detected by their
// children carrying no keys).
func isFrontierContentNext(cursors []*tokenReader) bool {
	for _, c := range cursors {
		t, ok := c.peek()
		if !ok {
			continue
		}
		switch t.op {
		case tokText:
			return true
		case tokOpen:
			if t.key == nil {
				return true
			}
			return false
		case tokClose:
			continue
		}
	}
	return false
}

// copyContent copies tokens verbatim until (and including) the balancing
// close of the already-consumed open.
func (m *runMerger) copyContent(c *tokenReader) error {
	depth := 1
	for {
		t, ok := c.take()
		if !ok {
			return fmt.Errorf("extmem: truncated frontier content")
		}
		switch t.op {
		case tokOpen:
			depth++
		case tokClose:
			depth--
			if depth == 0 {
				return nil
			}
		}
		m.out.writeToken(t)
	}
}
