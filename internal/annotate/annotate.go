// Package annotate implements the Annotate Keys module (§4.1 of Buneman et
// al., "Archiving Scientific Data"): it scans a document, identifies keyed
// nodes from the key specification, and annotates each with its key value
// (canonical form, display form and fingerprint). It also annotates
// archives, turning <T t="..."> timestamp elements back into timestamp
// annotations and frontier-content groups.
package annotate

import (
	"fmt"
	"strings"

	"xarch/internal/anode"
	"xarch/internal/fingerprint"
	"xarch/internal/intervals"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// TimestampTag is the reserved element name of timestamp wrappers.
// "We may assume that the tag T is in a separate namespace" (§2); here the
// name is reserved instead, and documents using it are rejected.
const TimestampTag = "T"

// AttrItemTag is the reserved element name used to serialize an attribute
// item inside a timestamp group (XML cannot hold a bare attribute as a
// child element).
const AttrItemTag = "_attr"

// Annotator annotates documents against one key specification, walking
// the specification's compiled trie in lockstep with the document, so
// annotating never rebuilds or re-matches path strings.
type Annotator struct {
	spec *keys.Spec
	fp   fingerprint.Func

	canon xmltree.AppendBuffer // scratch for canonical forms of key-path values
	stats Stats
}

// Stats counts work done by the annotator, for the §4.1 analysis benches.
type Stats struct {
	NodesVisited int
	KeyedNodes   int
	ValuesHashed int
}

// New returns an Annotator for the given specification. If fp is nil, the
// FNV fingerprint function is used.
func New(spec *keys.Spec, fp fingerprint.Func) *Annotator {
	if fp == nil {
		fp = fingerprint.FNV
	}
	return &Annotator{spec: spec, fp: fp}
}

// Spec returns the annotator's key specification.
func (a *Annotator) Spec() *keys.Spec { return a.spec }

// Stats returns cumulative annotation statistics.
func (a *Annotator) Stats() Stats { return a.stats }

// Version annotates one incoming version. The document must satisfy the
// specification; violations surface as errors here even without a prior
// CheckDocument call.
func (a *Annotator) Version(doc *xmltree.Node) (*anode.Node, error) {
	path := make(keys.Path, 1, 16)
	path[0] = doc.Name
	return a.annotateElem(doc, path, a.spec.Cursor().Child(doc.Name))
}

// annotateElem annotates the element x at path, which the specification
// matches as cur; path only names errors.
func (a *Annotator) annotateElem(x *xmltree.Node, path keys.Path, cur keys.Cursor) (*anode.Node, error) {
	a.stats.NodesVisited++
	if x.Name == TimestampTag || x.Name == AttrItemTag {
		return nil, fmt.Errorf("annotate: reserved element name %q at %s", x.Name, path.Absolute())
	}
	k := cur.Key()
	if k == nil {
		return nil, fmt.Errorf("annotate: unkeyed element above the frontier at %s", path.Absolute())
	}
	n := &anode.Node{Kind: xmltree.Element, Name: x.Name, Frontier: cur.Frontier()}
	kv, err := a.keyValue(x, k)
	if err != nil {
		return nil, fmt.Errorf("annotate: %s: %w", path.Absolute(), err)
	}
	n.Key = kv
	a.stats.KeyedNodes++

	if n.Frontier {
		// Content below the frontier is copied verbatim; reserved names in
		// content would corrupt the archive's XML form, so reject them.
		if len(x.Attrs) > 0 {
			n.Attrs = make([]*anode.Node, len(x.Attrs))
			for i, attr := range x.Attrs {
				n.Attrs[i] = anode.FromXML(attr)
			}
		}
		if len(x.Children) > 0 {
			n.Children = make([]*anode.Node, len(x.Children))
			for i, c := range x.Children {
				if err := checkReserved(c); err != nil {
					return nil, fmt.Errorf("annotate: below %s: %w", path.Absolute(), err)
				}
				n.Children[i] = anode.FromXML(c)
			}
		}
		return n, nil
	}

	for _, attr := range x.Attrs {
		if cur.Child(attr.Name).Key() == nil {
			return nil, fmt.Errorf("annotate: unkeyed attribute %s above the frontier", append(path, attr.Name).Absolute())
		}
		n.Attrs = append(n.Attrs, anode.FromXML(attr))
	}
	elems := 0
	for _, c := range x.Children {
		if c.Kind == xmltree.Element {
			elems++
		}
	}
	if elems > 0 {
		n.Children = make([]*anode.Node, 0, elems)
	}
	for _, c := range x.Children {
		switch c.Kind {
		case xmltree.Text:
			if strings.TrimSpace(c.Data) == "" {
				continue
			}
			return nil, fmt.Errorf("annotate: text content above the frontier at %s", path.Absolute())
		case xmltree.Element:
			path = append(path, c.Name)
			cn, err := a.annotateElem(c, path, cur.Child(c.Name))
			path = path[:len(path)-1]
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, cn)
		}
	}
	n.SortChildrenByLabel()
	// Duplicate key values are adjacent after the stable sort, so the
	// uniqueness check of §4.1 needs no side table.
	for i := 1; i < len(n.Children); i++ {
		if n.Children[i-1].CompareLabel(n.Children[i]) == 0 {
			c := n.Children[i]
			return nil, fmt.Errorf("annotate: duplicate key value for %s%s at %s",
				c.Name, c.Key.String(), path.Absolute())
		}
	}
	return n, nil
}

func checkReserved(x *xmltree.Node) error {
	var err error
	x.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Element && (n.Name == TimestampTag || n.Name == AttrItemTag) {
			err = fmt.Errorf("reserved element name %q in content", n.Name)
			return false
		}
		return true
	})
	return err
}

// keyValue computes the node's key value under key k: one entry per key
// path, sorted lexicographically by key-path name (§4.2). The sorted
// order is precomputed on the compiled key, value resolution allocates
// nothing, and canonical forms are built in the annotator's scratch
// buffer, so the only per-value allocations are the strings the
// annotation keeps.
func (a *Annotator) keyValue(x *xmltree.Node, k *keys.Key) (*anode.KeyValue, error) {
	np := len(k.KeyPaths)
	strs := make([]string, 3*np) // one backing array for Paths/Canon/Disp
	kv := &anode.KeyValue{
		Paths: strs[:np:np],
		Canon: strs[np : 2*np : 2*np],
		Disp:  strs[2*np:],
		FP:    make([]uint64, np),
	}
	for out, idx := range k.KeyPathOrder() {
		kp := k.KeyPaths[idx]
		node, found := kp.ResolveUnique(x)
		if found != 1 {
			return nil, fmt.Errorf("key path %s of %s resolves to %d nodes, want 1", kp, k, len(kp.Resolve(x)))
		}
		a.canon.Reset()
		xmltree.WriteCanonicalTo(&a.canon, node)
		kv.Paths[out] = k.SortedKeyPathNames()[out]
		kv.Canon[out] = a.canon.String()
		kv.Disp[out] = xmltree.DisplayFromCanonical(kv.Canon[out])
		kv.FP[out] = a.fp(kv.Canon[out])
		a.stats.ValuesHashed++
	}
	return kv, nil
}

// Display derivation lives in xmltree.DisplayFromCanonical: it works from
// the canonical form alone, so the external engine's streaming query path
// (which holds only canonical strings) matches selectors identically.

// Archive annotates a parsed archive document (the XML form of §2/Fig 5):
// the outermost <T> carries the root timestamp; nested <T> elements set
// keyed nodes' timestamps above the frontier and delimit content groups
// below it. It returns the archive's synthetic root node.
func (a *Annotator) Archive(doc *xmltree.Node) (*anode.Node, error) {
	if doc.Name != TimestampTag {
		return nil, fmt.Errorf("annotate: archive must start with <%s>, got <%s>", TimestampTag, doc.Name)
	}
	ts, err := timeOf(doc)
	if err != nil {
		return nil, err
	}
	var rootElem *xmltree.Node
	for _, c := range doc.Children {
		if c.Kind == xmltree.Element {
			if rootElem != nil {
				return nil, fmt.Errorf("annotate: archive root timestamp wraps multiple elements")
			}
			rootElem = c
		}
	}
	if rootElem == nil || rootElem.Name != "root" {
		return nil, fmt.Errorf("annotate: archive missing <root> element")
	}
	root := &anode.Node{Kind: xmltree.Element, Name: "root", Time: ts}
	for _, c := range rootElem.Children {
		if c.Kind != xmltree.Element {
			continue
		}
		children, err := a.archiveChild(c, nil, a.spec.Cursor(), ts)
		if err != nil {
			return nil, err
		}
		root.Children = append(root.Children, children...)
	}
	root.SortChildrenByLabel()
	return root, nil
}

// archiveChild converts one XML child at keyed level: either a keyed
// element, or a <T> wrapper around keyed elements that assigns an explicit
// timestamp. parent is the parent's position in the specification's trie
// and inherited its effective timestamp.
func (a *Annotator) archiveChild(x *xmltree.Node, parentPath keys.Path, parent keys.Cursor, inherited *intervals.Set) ([]*anode.Node, error) {
	if x.Name == TimestampTag {
		ts, err := timeOf(x)
		if err != nil {
			return nil, err
		}
		var out []*anode.Node
		for _, c := range x.Children {
			if c.Kind != xmltree.Element {
				continue
			}
			n, err := a.archiveElem(c, append(append(keys.Path{}, parentPath...), c.Name), parent.Child(c.Name), ts)
			if err != nil {
				return nil, err
			}
			n.Time = ts.Clone()
			out = append(out, n)
		}
		return out, nil
	}
	n, err := a.archiveElem(x, append(append(keys.Path{}, parentPath...), x.Name), parent.Child(x.Name), inherited)
	if err != nil {
		return nil, err
	}
	return []*anode.Node{n}, nil
}

// archiveElem converts a keyed archive element; eff is the node's
// effective timestamp (explicit or inherited).
func (a *Annotator) archiveElem(x *xmltree.Node, path keys.Path, cur keys.Cursor, eff *intervals.Set) (*anode.Node, error) {
	k := cur.Key()
	if k == nil {
		return nil, fmt.Errorf("annotate: unkeyed element above the frontier at %s in archive", path.Absolute())
	}
	n := &anode.Node{Kind: xmltree.Element, Name: x.Name, Frontier: cur.Frontier()}

	if n.Frontier {
		if err := a.archiveFrontierContent(x, n); err != nil {
			return nil, fmt.Errorf("%w at %s", err, path.Absolute())
		}
	} else {
		for _, attr := range x.Attrs {
			n.Attrs = append(n.Attrs, anode.FromXML(attr))
		}
		for _, c := range x.Children {
			if c.Kind != xmltree.Element {
				continue
			}
			children, err := a.archiveChild(c, path, cur, eff)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, children...)
		}
		n.SortChildrenByLabel()
	}

	// Key values never change for the life of a node (§1, temporal
	// invariance of keys), so computing them from the node's content at
	// its earliest version is sound and avoids reading timestamped
	// alternatives that would make key paths ambiguous.
	if eff.Empty() {
		return nil, fmt.Errorf("annotate: node at %s has empty timestamp", path.Absolute())
	}
	kv, err := a.keyValueAt(n, k, eff.Min())
	if err != nil {
		return nil, fmt.Errorf("annotate: %s: %w", path.Absolute(), err)
	}
	n.Key = kv
	return n, nil
}

// archiveFrontierContent parses the mixed plain/<T> content of a frontier
// node into shared content or ordered groups.
func (a *Annotator) archiveFrontierContent(x *xmltree.Node, n *anode.Node) error {
	hasT := false
	for _, c := range x.Children {
		if c.Kind == xmltree.Element && c.Name == TimestampTag {
			hasT = true
			break
		}
	}
	if !hasT {
		for _, attr := range x.Attrs {
			n.Attrs = append(n.Attrs, anode.FromXML(attr))
		}
		for _, c := range x.Children {
			n.Children = append(n.Children, anode.FromXML(c))
		}
		return nil
	}
	// Grouped content: the node's own attributes plus plain children form
	// inherited-time groups; each <T> child is an explicit group.
	var groups []*anode.Group
	var pending []*anode.Node
	for _, attr := range x.Attrs {
		pending = append(pending, anode.FromXML(attr))
	}
	flush := func() {
		if len(pending) > 0 {
			groups = append(groups, &anode.Group{Content: pending})
			pending = nil
		}
	}
	for _, c := range x.Children {
		if c.Kind == xmltree.Element && c.Name == TimestampTag {
			flush()
			ts, err := timeOf(c)
			if err != nil {
				return err
			}
			g := &anode.Group{Time: ts}
			for _, attr := range c.Attrs {
				if attr.Name == "t" {
					continue
				}
				return fmt.Errorf("annotate: unexpected attribute %q on timestamp group", attr.Name)
			}
			for _, item := range c.Children {
				if item.Kind == xmltree.Element && item.Name == AttrItemTag {
					name, ok := item.Attr("n")
					if !ok {
						return fmt.Errorf("annotate: %s item missing n attribute", AttrItemTag)
					}
					g.Content = append(g.Content, &anode.Node{Kind: xmltree.Attr, Name: name, Data: item.Text()})
					continue
				}
				g.Content = append(g.Content, anode.FromXML(item))
			}
			groups = append(groups, g)
			continue
		}
		pending = append(pending, anode.FromXML(c))
	}
	flush()
	n.Groups = groups
	return nil
}

// keyValueAt computes the key value of an archive node from its content at
// version v (the node's earliest version), resolving key paths through the
// timestamped structure.
func (a *Annotator) keyValueAt(n *anode.Node, k *keys.Key, v int) (*anode.KeyValue, error) {
	np := len(k.KeyPaths)
	kv := &anode.KeyValue{
		Paths: make([]string, np),
		Canon: make([]string, np),
		Disp:  make([]string, np),
		FP:    make([]uint64, np),
	}
	for out, idx := range k.KeyPathOrder() {
		kp := k.KeyPaths[idx]
		nodes := resolveAt(n, kp, v)
		if len(nodes) != 1 {
			return nil, fmt.Errorf("key path %s of %s resolves to %d nodes at version %d, want 1", kp, k, len(nodes), v)
		}
		x := ProjectAt(nodes[0], v)
		kv.Paths[out] = k.SortedKeyPathNames()[out]
		kv.Canon[out] = xmltree.Canonical(x)
		kv.Disp[out] = xmltree.DisplayFromCanonical(kv.Canon[out])
		kv.FP[out] = a.fp(kv.Canon[out])
		a.stats.ValuesHashed++
	}
	return kv, nil
}

// resolveAt evaluates a key path over the archive structure restricted to
// version v. The empty path resolves to n itself.
func resolveAt(n *anode.Node, kp keys.Path, v int) []*anode.Node {
	cur := []*anode.Node{n}
	for i, seg := range kp {
		var next []*anode.Node
		for _, c := range cur {
			if c.Kind != xmltree.Element {
				continue
			}
			for _, item := range contentAt(c, v) {
				switch item.Kind {
				case xmltree.Element:
					if item.Name == seg || seg == keys.Wildcard {
						next = append(next, item)
					}
				case xmltree.Attr:
					if i == len(kp)-1 && (item.Name == seg || seg == keys.Wildcard) {
						next = append(next, item)
					}
				}
			}
		}
		cur = next
	}
	return cur
}

// contentAt returns the items (attrs then children) of an archive node
// alive at version v.
func contentAt(n *anode.Node, v int) []*anode.Node {
	var out []*anode.Node
	out = append(out, n.Attrs...)
	if n.Groups != nil {
		for _, g := range n.Groups {
			if g.Time == nil || g.Time.Contains(v) {
				out = append(out, g.Content...)
			}
		}
		return out
	}
	for _, c := range n.Children {
		if c.Time == nil || c.Time.Contains(v) {
			out = append(out, c)
		}
	}
	return out
}

// ProjectAt converts an archive subtree to its plain xmltree value at
// version v, selecting timestamped children and groups that contain v.
func ProjectAt(n *anode.Node, v int) *xmltree.Node {
	switch n.Kind {
	case xmltree.Text:
		return xmltree.TextNode(n.Data)
	case xmltree.Attr:
		return xmltree.AttrNode(n.Name, n.Data)
	}
	e := xmltree.Elem(n.Name)
	for _, item := range contentAt(n, v) {
		if item.Kind == xmltree.Attr {
			e.Append(xmltree.AttrNode(item.Name, item.Data))
		} else {
			e.Append(ProjectAt(item, v))
		}
	}
	return e
}

func timeOf(x *xmltree.Node) (*intervals.Set, error) {
	t, ok := x.Attr("t")
	if !ok {
		return nil, fmt.Errorf("annotate: <%s> element missing t attribute", TimestampTag)
	}
	ts, err := intervals.Parse(t)
	if err != nil {
		return nil, fmt.Errorf("annotate: bad timestamp %q: %w", t, err)
	}
	return ts, nil
}
