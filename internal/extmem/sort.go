package extmem

import (
	"fmt"
	"path/filepath"
	"sort"

	"xarch/internal/fsio"
	"xarch/internal/keys"
)

// SortStats reports the work of one external sort (§6.2).
type SortStats struct {
	Runs        int // sorted runs formed
	RunTokens   int // total tokens across runs (stem duplication included)
	MergePasses int
}

// pnode is one node of a partial tree held by the run former.
type pnode struct {
	tag      int
	name     string
	key      *tkey
	frontier bool
	attrs    []token
	children []*pnode
	content  []token // raw content of a frontier node
}

// stemInfo remembers an open node so the stem can be duplicated into the
// next run (§6.2's a1/.../am example).
type stemInfo struct {
	node  *pnode
	fresh *pnode // the re-created node in the current partial tree
}

// runFormer builds bounded-memory sorted runs from the internal token
// stream, attaching composite key values read from the §6.1 key files.
type runFormer struct {
	fs     fsio.FS
	dict   *dictionary
	spec   *keys.Spec
	budget int // max tokens held in a partial tree
	dir    string
	prefix string

	keyReaders map[string]*rawReader
	openKeys   func(pattern string) (*rawReader, error)

	runs       []string
	used       int
	root       *pnode
	stack      []*pnode
	path       []string
	inFrontier int // depth inside frontier content (0 = at keyed levels)
	stats      SortStats
}

// finish flushes the final partial tree and reports the runs formed.
func (rf *runFormer) finish() ([]string, SortStats, error) {
	if len(rf.stack) != 0 {
		return rf.runs, rf.stats, fmt.Errorf("extmem: token stream ends inside an element")
	}
	if rf.root != nil {
		if err := rf.flushRun(nil); err != nil {
			return rf.runs, rf.stats, err
		}
	}
	rf.stats.Runs = len(rf.runs)
	return rf.runs, rf.stats, nil
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
		n := &pnode{tag: t.tag, name: name, key: t.key,
			frontier: rf.spec.IsFrontier(keys.Path(rf.path))}
		if n.key == nil {
			k := rf.spec.KeyFor(keys.Path(rf.path))
			if k == nil {
				return fmt.Errorf("extmem: unkeyed element %s above the frontier", pathString(rf.path))
			}
			rec, err := rf.nextKey(k.Pattern())
			if err != nil {
				return fmt.Errorf("extmem: key file for %s: %w", k.Pattern(), err)
			}
			n.key = rec
		}
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
	rr, ok := rf.keyReaders[pattern]
	if !ok {
		var err error
		rr, err = rf.openKeys(pattern)
		if err != nil {
			return nil, err
		}
		rf.keyReaders[pattern] = rr
	}
	return readKeyRecord(rr)
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
	path := filepath.Join(rf.dir, fmt.Sprintf("%s-run%04d.tok", rf.prefix, len(rf.runs)))
	f, err := rf.fs.Create(path)
	if err != nil {
		return fmt.Errorf("extmem: create run: %w", err)
	}
	tw := newTokenWriter(f)
	rf.writeSorted(tw, rf.root)
	err = tw.flush()
	tw.release()
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rf.runs = append(rf.runs, path)

	// Duplicate the stem: re-create each still-open node, emptied.
	rf.root = nil
	rf.used = 0
	var parent *pnode
	newStack := make([]*pnode, 0, len(openStack))
	for _, old := range openStack {
		fresh := &pnode{tag: old.tag, name: old.name, key: old.key, frontier: old.frontier}
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
func (rf *runFormer) writeSorted(tw *tokenWriter, n *pnode) {
	tw.open(n.tag, n.key, "")
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
		for _, c := range n.children {
			rf.writeSorted(tw, c)
		}
	}
	tw.close()
	rf.stats.RunTokens++
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

	out, err := fs.Create(outPath)
	if err != nil {
		return fmt.Errorf("extmem: create sorted file: %w", err)
	}
	tw := newTokenWriter(out)
	defer tw.release()
	m := &runMerger{dict: dict, out: tw}
	// Every run repeats the root stem; merge from the top.
	live := cursors[:0:0]
	for _, c := range cursors {
		if _, ok := c.peek(); ok {
			live = append(live, c)
		}
	}
	if len(live) > 0 {
		if err := m.mergeNodes(live); err != nil {
			out.Close()
			return err
		}
	}
	for _, c := range cursors {
		if c.err != nil {
			out.Close()
			return c.err
		}
	}
	if err := tw.flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

type runMerger struct {
	dict *dictionary
	out  *tokenWriter
}

// mergeNodes merges the same-label node at the head of every cursor: the
// open/attrs are emitted once; keyed children are merged by ascending
// label; frontier content is concatenated in run-creation order.
func (m *runMerger) mergeNodes(cursors []*tokenReader) error {
	opens := make([]token, len(cursors))
	for i, c := range cursors {
		t, ok := c.take()
		if !ok || t.op != tokOpen {
			return fmt.Errorf("extmem: run cursor not at an open tag")
		}
		opens[i] = t
	}
	m.out.writeToken(opens[0])

	name, err := m.dict.name(opens[0].tag)
	if err != nil {
		return err
	}
	_ = name

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
