package extmem

import (
	"bufio"
	"fmt"
	"io"

	"xarch/internal/anode"
	"xarch/internal/core"
	"xarch/internal/intervals"
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
