package extmem

import (
	"bufio"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// dictionary maps tag/attribute names to integers (§6.1: "a document with
// tag names replaced by integers"). One dictionary serves the archive and
// every version. It is safe for one writer (the decompose pass) and any
// number of readers (the run-former worker, query snapshots) to use it
// concurrently: entries are immutable once assigned, and a mutex guards
// the growing structures.
type dictionary struct {
	mu    sync.RWMutex
	ids   map[string]int
	names []string
}

func newDictionary() *dictionary {
	return &dictionary{ids: map[string]int{}}
}

func (d *dictionary) id(name string) int {
	d.mu.RLock()
	id, ok := d.ids[name]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[name]; ok {
		return id
	}
	id = len(d.names)
	d.ids[name] = id
	d.names = append(d.names, name)
	return id
}

func (d *dictionary) name(id int) (string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 0 || id >= len(d.names) {
		return "", fmt.Errorf("extmem: tag id %d outside dictionary", id)
	}
	return d.names[id], nil
}

// snapshot returns the current name table. Entries are immutable and the
// table is append-only, so the returned slice is a consistent point-in-time
// view that later id() calls never mutate.
func (d *dictionary) snapshot() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.names[:len(d.names):len(d.names)]
}

// save writes the dictionary as "id<TAB>name" lines.
func (d *dictionary) save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 32*1024)
	for i, n := range d.snapshot() {
		if _, err := fmt.Fprintf(bw, "%d\t%s\n", i, escapeNL(n)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func loadDictionary(r io.Reader) (*dictionary, error) {
	d := newDictionary()
	br := bufio.NewReaderSize(r, 32*1024)
	var id int
	var name string
	for {
		n, err := fmt.Fscanf(br, "%d\t%s\n", &id, &name)
		if err == io.EOF || n == 0 {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("extmem: dictionary: %w", err)
		}
		got := d.id(unescapeNL(name))
		if got != id {
			return nil, fmt.Errorf("extmem: dictionary ids out of order: %d != %d", got, id)
		}
	}
	return d, nil
}

func escapeNL(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	s = strings.ReplaceAll(s, "\t", `\t`)
	return s
}

func unescapeNL(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// memo is an in-flight memorization of a key-path value (the (**) steps of
// Annotate Keys, §4.1).
type memo struct {
	rec     *pendingKey
	pathIdx int
	depth   int // element depth at which the memorized subtree began
	b       strings.Builder
}

// pendingKey collects the key-path values of one open keyed node.
type pendingKey struct {
	key    *keys.Key
	depth  int
	filled []bool
	values []string
}

// decomposeBatch is the element interval at which the decomposer invokes
// its sync hook, publishing buffered bytes to the concurrent run former.
const decomposeBatch = 4096

// decomposer streams one XML document into the internal representation
// plus key files (§6.1), running the stack algorithm of §4.1. It is the
// only way in for a version larger than memory: a keyed node's key value
// is complete only at its close tag, after its open token has been
// written, so the values go to per-pattern key files that the run former
// pops in step. A version already held as a tree takes decomposeTree.
type decomposer struct {
	dict *dictionary

	tokens  *tokenWriter
	keyOut  map[string]*tokenWriter // key file per keyed-path pattern
	keyFile func(pattern string) (*tokenWriter, error)
	sync    func() error // periodic flush hook; may be nil

	path     []string
	cursors  []keys.Cursor // cursors[i] matches path[:i]; descends the spec with the document
	attrs    [][2]string   // scratch: the open element's attributes
	pendings []*pendingKey
	memos    []*memo
	textBuf  strings.Builder
	depth    int

	nodesSeen int
	sinceSync int
}

// decompose streams the XML document from r, writing the token stream to
// tokens and composite key values to per-pattern key files obtained from
// keyFile. Every decomposeBatch elements it calls sync (if non-nil) so a
// concurrent consumer sees the buffered bytes. It returns the node count.
func decompose(r io.Reader, spec *keys.Spec, dict *dictionary, tokens *tokenWriter,
	keyFile func(pattern string) (*tokenWriter, error), sync func() error) (int, error) {

	d := &decomposer{
		cursors: []keys.Cursor{spec.Cursor()},
		dict:    dict,
		tokens:  tokens,
		keyOut:  map[string]*tokenWriter{},
		keyFile: keyFile,
		sync:    sync,
	}
	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("extmem: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := d.start(t); err != nil {
				return 0, err
			}
		case xml.EndElement:
			if err := d.end(); err != nil {
				return 0, err
			}
		case xml.CharData:
			d.textBuf.Write(t)
		}
	}
	if d.depth != 0 {
		return 0, fmt.Errorf("extmem: unbalanced document")
	}
	for pattern, kw := range d.keyOut {
		if err := kw.flush(); err != nil {
			return 0, fmt.Errorf("extmem: flush key file %s: %w", pattern, err)
		}
	}
	return d.nodesSeen, nil
}

func (d *decomposer) flushText() {
	if d.textBuf.Len() == 0 {
		return
	}
	s := d.textBuf.String()
	d.textBuf.Reset()
	if strings.TrimSpace(s) == "" {
		return
	}
	d.tokens.text(s)
	d.nodesSeen++
	for _, m := range d.memos {
		m.b.WriteString("t(")
		xmltree.EscapeCanonical(&m.b, s)
		m.b.WriteByte(')')
	}
}

func (d *decomposer) start(t xml.StartElement) error {
	d.flushText()
	name := localName(t.Name)
	d.path = append(d.path, name)
	cur := d.cursors[len(d.cursors)-1].Child(name)
	d.cursors = append(d.cursors, cur)
	d.depth++
	d.nodesSeen++
	if d.sync != nil {
		if d.sinceSync++; d.sinceSync >= decomposeBatch {
			d.sinceSync = 0
			if err := d.sync(); err != nil {
				return err
			}
		}
	}

	// Sorted attributes (canonical order).
	attrs := d.attrs[:0]
	for _, a := range t.Attr {
		an := localName(a.Name)
		if isNamespaceDecl(an) {
			continue
		}
		attrs = append(attrs, [2]string{an, a.Value})
	}
	d.attrs = attrs
	if len(attrs) > 1 {
		slices.SortFunc(attrs, func(a, b [2]string) int {
			if c := strings.Compare(a[0], b[0]); c != 0 {
				return c
			}
			return strings.Compare(a[1], b[1])
		})
	}

	// Key-path values of enclosing keyed nodes that begin at this element
	// start memorizing here ((**) of §4.1); key paths ending at one of
	// this element's attributes fill directly from the start tag.
	for _, p := range d.pendings {
		rel := keys.Path(d.path[p.depth:])
		for pi, kp := range p.key.KeyPaths {
			if len(kp) == 0 {
				continue
			}
			if kp.Matches(rel) {
				d.memos = append(d.memos, &memo{rec: p, pathIdx: pi, depth: d.depth})
			}
			if len(rel) == len(kp)-1 && kp[:len(kp)-1].Matches(rel) {
				if err := fillFromAttrs(p, pi, kp[len(kp)-1], attrs); err != nil {
					return fmt.Errorf("extmem: %s: %w", pathString(d.path), err)
				}
			}
		}
	}

	// A keyed element opens its own pending record; an empty key path
	// ({\e}) memorizes the node's whole value, and single-segment key
	// paths may fill from the node's own attributes.
	if k := cur.Key(); k != nil {
		p := &pendingKey{
			key:    k,
			depth:  d.depth,
			filled: make([]bool, len(k.KeyPaths)),
			values: make([]string, len(k.KeyPaths)),
		}
		d.pendings = append(d.pendings, p)
		for pi, kp := range k.KeyPaths {
			if len(kp) == 0 {
				d.memos = append(d.memos, &memo{rec: p, pathIdx: pi, depth: d.depth})
				continue
			}
			if len(kp) == 1 {
				if err := fillFromAttrs(p, pi, kp[0], attrs); err != nil {
					return fmt.Errorf("extmem: %s: %w", pathString(d.path), err)
				}
			}
		}
	}

	// Every active memorization (old and new) receives this element's
	// canonical fragment: new memos start their value with it.
	for _, m := range d.memos {
		m.b.WriteString("e(")
		xmltree.EscapeCanonical(&m.b, name)
		for _, a := range attrs {
			m.b.WriteString("a(")
			xmltree.EscapeCanonical(&m.b, a[0])
			m.b.WriteByte('=')
			xmltree.EscapeCanonical(&m.b, a[1])
			m.b.WriteByte(')')
		}
	}

	d.tokens.open(d.dict.id(name), nil, "")
	for _, a := range attrs {
		d.tokens.attr(d.dict.id(a[0]), a[1])
		d.nodesSeen++
	}
	return nil
}

func (d *decomposer) end() error {
	d.flushText()

	// Close canonical fragments; finish memorizations that began here.
	remaining := d.memos[:0]
	for _, m := range d.memos {
		m.b.WriteByte(')')
		if m.depth == d.depth {
			if err := m.rec.fill(m.pathIdx, m.b.String()); err != nil {
				return fmt.Errorf("extmem: %s: %w", pathString(d.path), err)
			}
			continue
		}
		remaining = append(remaining, m)
	}
	d.memos = remaining

	// If the closing node is keyed, its pending record is complete: write
	// the composite key value to the key file of its path pattern.
	if len(d.pendings) > 0 && d.pendings[len(d.pendings)-1].depth == d.depth {
		p := d.pendings[len(d.pendings)-1]
		d.pendings = d.pendings[:len(d.pendings)-1]
		for pi, kp := range p.key.KeyPaths {
			if !p.filled[pi] {
				return fmt.Errorf("extmem: %s: key path %s of %s resolves to 0 nodes",
					pathString(d.path), kp, p.key)
			}
		}
		pattern := p.key.Pattern()
		kw, ok := d.keyOut[pattern]
		if !ok {
			var err error
			kw, err = d.keyFile(pattern)
			if err != nil {
				return err
			}
			d.keyOut[pattern] = kw
		}
		writeKeyRecord(kw, p)
	}

	d.tokens.close()
	d.path = d.path[:len(d.path)-1]
	d.cursors = d.cursors[:len(d.cursors)-1]
	d.depth--
	return nil
}

// fill records one key-path value, rejecting duplicates ("every path Pi
// exists uniquely").
func (p *pendingKey) fill(pi int, canon string) error {
	if p.filled[pi] {
		return fmt.Errorf("key path %s of %s resolves to more than one node", p.key.KeyPaths[pi], p.key)
	}
	p.filled[pi] = true
	p.values[pi] = canon
	return nil
}

// writeKeyRecord appends a composite key value: path names and canonical
// values sorted by path name (§4.2's lexicographic key-path order).
func writeKeyRecord(kw *tokenWriter, p *pendingKey) {
	names := p.key.SortedKeyPathNames()
	kw.varint(uint64(len(names)))
	for out, i := range p.key.KeyPathOrder() {
		kw.str(names[out])
		kw.str(p.values[i])
	}
}

// decomposeTree is decompose for a version already parsed into a tree: one
// walk of doc, in lockstep with the specification's compiled trie, hands
// the token stream straight to emit. A tree knows a keyed node's key value
// at its open tag, so the open token carries the composite key inline and
// no key files exist. The stream is token for token what decompose makes
// of the tree's serialization — adjacent text coalesced, whitespace-only
// text and namespace declarations dropped, attributes in canonical order,
// dictionary ids assigned in document order — except that names and
// values are taken from the tree as they are, not through an escape and
// re-parse.
func decomposeTree(doc *xmltree.Node, spec *keys.Spec, dict *dictionary, emit func(token) error) error {
	d := &treeDecomposer{dict: dict, emit: emit}
	return d.keyed(doc, spec.Cursor().Child(doc.Name))
}

type treeDecomposer struct {
	dict *dictionary
	emit func(token) error

	path  []string             // of the open keyed elements, to name errors
	canon xmltree.AppendBuffer // scratch for one key-path value
	attrs []*xmltree.Node      // scratch for attributes that need sorting
}

// keyed emits the subtree of x, an element at or above the frontier that
// the specification matches as cur.
func (d *treeDecomposer) keyed(x *xmltree.Node, cur keys.Cursor) error {
	d.path = append(d.path, x.Name)
	k := cur.Key()
	if k == nil {
		return fmt.Errorf("extmem: unkeyed element %s above the frontier", pathString(d.path))
	}
	key, err := d.keyValue(x, k)
	if err != nil {
		return err
	}
	if err := d.element(x, key, cur, !cur.Frontier()); err != nil {
		return err
	}
	d.path = d.path[:len(d.path)-1]
	return nil
}

// element emits x's open token (with key, if x is keyed), attributes,
// children and close token. Element children are keyed nodes matched
// through cur when keyedChildren is set, plain content otherwise.
func (d *treeDecomposer) element(x *xmltree.Node, key *tkey, cur keys.Cursor, keyedChildren bool) error {
	if err := d.emit(token{op: tokOpen, tag: d.dict.id(x.Name), key: key}); err != nil {
		return err
	}
	for _, a := range d.sortedAttrs(x) {
		if err := d.emit(token{op: tokAttr, tag: d.dict.id(a.Name), data: a.Data}); err != nil {
			return err
		}
	}
	for i := 0; i < len(x.Children); i++ {
		c := x.Children[i]
		var err error
		switch c.Kind {
		case xmltree.Text:
			var text string
			if text, i = textRun(x.Children, i); strings.TrimSpace(text) != "" {
				err = d.emit(token{op: tokText, data: text})
			}
		case xmltree.Element:
			if keyedChildren {
				err = d.keyed(c, cur.Child(c.Name))
			} else {
				err = d.element(c, nil, keys.Cursor{}, false)
			}
		}
		if err != nil {
			return err
		}
	}
	return d.emit(token{op: tokClose})
}

// textRun returns the concatenation of the run of text children that
// starts at children[i], and the index of the run's last node.
func textRun(children []*xmltree.Node, i int) (string, int) {
	text := children[i].Data
	for i+1 < len(children) && children[i+1].Kind == xmltree.Text {
		i++
		text += children[i].Data
	}
	return text, i
}

// sortedAttrs returns x's attributes in canonical (name, value) order
// without namespace declarations. The result is x.Attrs itself when that
// already qualifies, otherwise scratch valid until the next call.
func (d *treeDecomposer) sortedAttrs(x *xmltree.Node) []*xmltree.Node {
	ok := true
	for i, a := range x.Attrs {
		if isNamespaceDecl(a.Name) || (i > 0 && xmltree.Compare(x.Attrs[i-1], a) > 0) {
			ok = false
			break
		}
	}
	if ok {
		return x.Attrs
	}
	d.attrs = d.attrs[:0]
	for _, a := range x.Attrs {
		if !isNamespaceDecl(a.Name) {
			d.attrs = append(d.attrs, a)
		}
	}
	slices.SortFunc(d.attrs, xmltree.Compare) // attributes order by (name, value)
	return d.attrs
}

// keyValue computes the composite key of x under k: canonical key-path
// values in the key's precomputed §4.2 order.
func (d *treeDecomposer) keyValue(x *xmltree.Node, k *keys.Key) (*tkey, error) {
	key := &tkey{paths: k.SortedKeyPathNames()}
	if len(k.KeyPaths) > 0 {
		key.canon = make([]string, len(k.KeyPaths))
	}
	for out, i := range k.KeyPathOrder() {
		kp := k.KeyPaths[i]
		v, found := kp.ResolveUnique(x)
		if found != 1 {
			n := "more than one node"
			if found == 0 {
				n = "0 nodes"
			}
			return nil, fmt.Errorf("extmem: %s: key path %s of %s resolves to %s", pathString(d.path), kp, k, n)
		}
		d.canon.Reset()
		d.writeCanon(v)
		key.canon[out] = d.canon.String()
	}
	return key, nil
}

// writeCanon appends the canonical form of a key-path value (an element
// or attribute) to d.canon, as the streaming decomposer memorizes it:
// over the same normalized view of the tree that element emits.
func (d *treeDecomposer) writeCanon(n *xmltree.Node) {
	w := &d.canon
	if n.Kind == xmltree.Attr {
		w.WriteString("a(")
		xmltree.EscapeCanonical(w, n.Name)
		w.WriteByte('=')
		xmltree.EscapeCanonical(w, n.Data)
		w.WriteByte(')')
		return
	}
	w.WriteString("e(")
	xmltree.EscapeCanonical(w, n.Name)
	for _, a := range d.sortedAttrs(n) {
		d.writeCanon(a)
	}
	for i := 0; i < len(n.Children); i++ {
		c := n.Children[i]
		switch c.Kind {
		case xmltree.Text:
			var text string
			if text, i = textRun(n.Children, i); strings.TrimSpace(text) != "" {
				w.WriteString("t(")
				xmltree.EscapeCanonical(w, text)
				w.WriteByte(')')
			}
		case xmltree.Element:
			d.writeCanon(c)
		}
	}
	w.WriteByte(')')
}

// rawReader reads the varint/string records of key files.
type rawReader struct {
	r   *bufio.Reader
	err error
}

func newRawReader(r io.Reader) *rawReader {
	return &rawReader{r: bufio.NewReaderSize(r, 32*1024)}
}

func (rr *rawReader) varint() (uint64, error) {
	if rr.err != nil {
		return 0, rr.err
	}
	v, err := binary.ReadUvarint(rr.r)
	if err != nil {
		rr.err = err
	}
	return v, err
}

func (rr *rawReader) str() (string, error) {
	n, err := rr.varint()
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(rr.r, buf); err != nil {
		rr.err = err
		return "", err
	}
	return string(buf), nil
}

// readKeyRecord pops the next composite key value from a key file.
func readKeyRecord(rr *rawReader) (*tkey, error) {
	n, err := rr.varint()
	if err != nil {
		return nil, err
	}
	k := &tkey{}
	for i := uint64(0); i < n; i++ {
		p, err := rr.str()
		if err != nil {
			return nil, err
		}
		c, err := rr.str()
		if err != nil {
			return nil, err
		}
		k.paths = append(k.paths, p)
		k.canon = append(k.canon, c)
	}
	return k, nil
}

// fillFromAttrs fills key path pi of p from a matching attribute.
func fillFromAttrs(p *pendingKey, pi int, seg string, attrs [][2]string) error {
	for _, a := range attrs {
		if seg == a[0] || seg == keys.Wildcard {
			var b strings.Builder
			b.WriteString("a(")
			xmltree.EscapeCanonical(&b, a[0])
			b.WriteByte('=')
			xmltree.EscapeCanonical(&b, a[1])
			b.WriteByte(')')
			if err := p.fill(pi, b.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// isNamespaceDecl reports whether an attribute name declares a namespace;
// such attributes are not part of the data model (xmltree.Parse drops
// them too).
func isNamespaceDecl(name string) bool {
	return name == "xmlns" || strings.HasPrefix(name, "xmlns:")
}

func localName(n xml.Name) string {
	if n.Space == "" || strings.ContainsAny(n.Space, ":/") {
		return n.Local
	}
	return n.Space + ":" + n.Local
}

func pathString(p []string) string { return "/" + strings.Join(p, "/") }
