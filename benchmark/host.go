package main

import (
	"sort"
	"strconv"
	"syscall"
	"time"
)

// The sandbox is a few cores of a shared host whose speed moves by tens of
// percent for seconds or minutes at a time, whatever the archiver does. A
// run therefore measures the host beside the program: between operations it
// times refWork, a fixed piece of work no change to the archiver can touch,
// and reports every duration at the speed of a quiet host, that is divided
// by the slowdown the reference saw in the same round. README.md, "How a
// latency metric is computed", has the measurements behind this.

// refNominalNS is what one refWork call takes on this sandbox when the host
// is quiet. It only sets the scale: on a quiet host a reported latency
// equals the measured one.
const refNominalNS = 130e3

// A burst of reference calls runs before an operation once refEvery has
// passed since the last one: one call per refSpacing of that gap, so the
// samples cover a round's time evenly however long its operations are.
const (
	refEvery    = 10 * time.Millisecond
	refSpacing  = 3 * time.Millisecond
	refBurstMin = 3
	refBurstMax = 16
)

type refNode struct {
	key  string
	kids []*refNode
	n    int
}

var refSink int

// refWork builds, indexes, sorts and walks a small tree of heap nodes:
// allocation, map probes, string compares and pointer chasing, the mix the
// archiver's own operations are made of (an arithmetic loop does not slow
// when the host is busy; this does). It uses the standard library only.
func refWork() time.Duration {
	t0 := time.Now()
	root := &refNode{}
	idx := make(map[string]*refNode)
	for i := 0; i < 400; i++ {
		n := &refNode{key: "k" + strconv.Itoa(i*7919%1000), n: i}
		idx[n.key] = n
		parent := root
		if p := idx["k"+strconv.Itoa(i/3*7919%1000)]; p != nil && i > 0 {
			parent = p
		}
		parent.kids = append(parent.kids, n)
	}
	var walk func(n *refNode) int
	walk = func(n *refNode) int {
		sort.Slice(n.kids, func(a, b int) bool { return n.kids[a].key < n.kids[b].key })
		s := n.n
		for _, k := range n.kids {
			s += walk(k)
		}
		return s
	}
	refSink += walk(root)
	return time.Since(t0)
}

// hostProbe collects reference timings over a stretch of a run.
type hostProbe struct {
	samples []float64 // nanoseconds per refWork call
	last    time.Time
}

// tick runs a burst when one is due.
func (p *hostProbe) tick() {
	if gap := time.Since(p.last); gap >= refEvery {
		p.burst(min(max(int(gap/refSpacing), refBurstMin), refBurstMax))
	}
}

func (p *hostProbe) burst(n int) {
	for i := 0; i < n; i++ {
		p.samples = append(p.samples, float64(refWork()))
	}
	p.last = time.Now()
}

// slowdown is how much slower than a quiet host the probe found this one:
// the mean of the middle four fifths of its samples over the nominal time.
// A stretch without samples (a traced round) reports 1.
func (p *hostProbe) slowdown() float64 {
	n := len(p.samples)
	if n == 0 {
		return 1
	}
	s := append([]float64(nil), p.samples...)
	sort.Float64s(s)
	return mean(s[n/10:n-n/10]) / refNominalNS
}

// quiesce flushes what earlier work left dirty in the page cache and the
// journal before a timed stretch starts. Without it the first rounds of a
// run pay for the files the previous run (or the previous round's clean-up)
// wrote and never synced: measured on serve-mixed after a query-mix run, an
// add took 6.4-7.4 ms for the first four rounds and 4.6 ms with this call.
func (r *runner) quiesce() {
	t0 := time.Now()
	syscall.Sync()
	r.phases.sync += time.Since(t0)
}

// phases says where a run's wall clock went, for the output's last
// diagnostic line: a run that takes long outside its rounds shows here.
type phases struct{ setup, rounds, verify, sync time.Duration }
