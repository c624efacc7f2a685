package core

import (
	"xarch/internal/anode"
	"xarch/internal/xmltree"
)

// Stats summarizes an archive's structure, quantifying the paper's space
// arguments: how many timestamps are stored explicitly versus inherited
// (§1, "inheritance of timestamps") and how fragmented the stored
// timestamps are (§2, interval encoding).
type Stats struct {
	Versions      int
	Elements      int // element nodes, including frontier content
	TextNodes     int
	Attributes    int
	KeyedNodes    int // nodes carrying key annotations
	FrontierNodes int
	// ExplicitTimestamps counts nodes with their own timestamp;
	// InheritedTimestamps counts keyed nodes that inherit. Their ratio is
	// the saving from timestamp inheritance.
	ExplicitTimestamps  int
	InheritedTimestamps int
	// TimestampRuns sums interval counts over explicit timestamps: the
	// total storage cost of time in the archive.
	TimestampRuns int
	// Groups counts timestamped content alternatives below frontier nodes.
	Groups int
	// XMLBytes is the size of the indented XML serialization, the number
	// the space experiments report.
	XMLBytes int
}

// Stats computes archive statistics in one pass plus one serialization,
// which is counted and not kept.
func (a *Archive) Stats() Stats {
	s := Stats{Versions: a.versions}
	CountNode(a.root, &s)
	var cw CountWriter
	_ = a.WriteXML(&cw, true) // a CountWriter never fails
	s.XMLBytes = cw.N
	return s
}

// CountWriter counts the bytes written through it: both engines' Stats
// take XMLBytes from one.
type CountWriter struct{ N int }

func (w *CountWriter) Write(p []byte) (int, error) { w.N += len(p); return len(p), nil }

// CountNode adds n and everything below it to s: its element, text or
// attribute, its key and timestamp, and its content groups. The external
// engine counts each frontier record through it.
func CountNode(n *anode.Node, s *Stats) {
	switch n.Kind {
	case xmltree.Element:
		s.Elements++
	case xmltree.Text:
		s.TextNodes++
	case xmltree.Attr:
		s.Attributes++
	}
	if n.Key != nil {
		s.KeyedNodes++
		if n.Time != nil {
			s.ExplicitTimestamps++
			s.TimestampRuns += n.Time.RunCount()
		} else {
			s.InheritedTimestamps++
		}
	}
	if n.Frontier {
		s.FrontierNodes++
	}
	for _, attr := range n.Attrs {
		CountNode(attr, s)
	}
	for _, c := range n.Children {
		CountNode(c, s)
	}
	for _, g := range n.Groups {
		s.Groups++
		if g.Time != nil {
			s.TimestampRuns += g.Time.RunCount()
		}
		for _, it := range g.Content {
			CountNode(it, s)
		}
	}
}
