package extmem

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"xarch/internal/anode"
	"xarch/internal/core"
	"xarch/internal/intervals"
	"xarch/internal/qlang"
	"xarch/internal/xmltree"
)

// rootEff returns a root's effective timestamp. Every record carries its
// explicit timestamp parsed from the moment it is created.
func (q *QueryView) rootEff(r *rootRecord) *intervals.Set {
	if r.time == nil {
		return q.d.rootTime
	}
	return r.time
}

// entryEff returns a child entry's effective timestamp under its root's.
func entryEff(e *childEntry, rootEff *intervals.Set) *intervals.Set {
	if e.time == nil {
		return rootEff
	}
	return e.time
}

func corruptf(format string, args ...any) error {
	args = append(args, core.ErrCorruptArchive)
	return fmt.Errorf("extmem: "+format+": %w", args...)
}

// pooledWriter borrows a pooled buffered writer over w; call done (after
// the final Flush) to return the buffer.
func pooledWriter(w io.Writer) (bw *bufio.Writer, done func()) {
	bw = writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw, func() {
		bw.Reset(io.Discard)
		writerPool.Put(bw)
	}
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

// entryIdent is what History and Select derive from the name and key of a
// directory entry, a root or an indexed kid: the display values selector
// predicates compare, the label results and errors print, the KeyInfo a
// Record carries. A function of the immutable name and key alone, it is
// derived by the first query that asks — never at open or commit — and lives
// with what it describes: a segmentRecord's table is shared by every
// generation that re-links the segment, an idxEntry's kid table likewise.
type entryIdent struct {
	name   string
	label  string         // "emp{fn=John,ln=Doe}"
	key    *qlang.KeyInfo // nil for an unkeyed node; Paths alias the tkey's
	joined string         // the display values joined by NUL: dirIndex's sort key
	canon  *tkey          // the key as stored: the list order dirIndex verifies
}

func identOf(name string, k *tkey) entryIdent {
	if k == nil {
		return entryIdent{name: name, label: name}
	}
	paths, disp := keyDisplay(k)
	id := entryIdent{name: name, label: labelOf(name, paths, disp), key: &qlang.KeyInfo{Paths: paths, Disp: disp}, canon: k}
	id.joined = strings.Join(disp, "\x00") // XML text cannot contain NUL
	return id
}

// idents returns the entries' identities, index-aligned with entries.
func (s *segmentRecord) idents() []entryIdent {
	s.identOnce.Do(func() {
		s.ident = make([]entryIdent, len(s.entries))
		for i := range s.entries {
			s.ident[i] = identOf(s.entries[i].name, s.entries[i].key)
		}
	})
	return s.ident
}

func (r *rootRecord) ident() *entryIdent {
	r.identOnce.Do(func() { r.id = identOf(r.name, r.key) })
	return &r.id
}

// entryMatches evaluates a selector step's predicates against a decoded
// identity: core's one matching rule, with nothing derived per call.
func entryMatches(step *core.SelectorStep, id *entryIdent) bool {
	if id.name != step.Tag {
		return false
	}
	if id.key == nil {
		return len(step.Preds) == 0
	}
	return step.MatchesKey(id.key.Paths, id.key.Disp)
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
	paths, disp := keyDisplay(k)
	return labelOf(name, paths, disp)
}

func labelOf(name string, paths, disp []string) string {
	if len(paths) == 0 {
		return name
	}
	parts := make([]string, len(paths))
	for i := range paths {
		parts[i] = paths[i] + "=" + disp[i]
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}
