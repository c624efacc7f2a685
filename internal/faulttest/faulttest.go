// Package faulttest is the one crash-matrix driver every crash test of the
// archive replays through, with the directory helpers those tests share.
// A matrix traces one clean run of an operation, replays it once per crash
// point — the process killed, or the network cut, after its k-th operation
// — and hands what each outage mode leaves of the directory under test to
// the caller's check, which reopens it and says which generation it holds.
// The crash point is armed on an fsio.Failpoints — a FaultFS's to kill the
// process, a segstore.FaultTransport's to cut the network — and the outage
// is read off the FaultFS that tracks the directory. It exists for tests;
// nothing outside a _test.go file imports it.
package faulttest

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"xarch/internal/fsio"
)

// The outage modes a matrix checks each crashed directory under.
var (
	// Kill is the process killed while the machine stays up.
	Kill = []fsio.PowerLossMode{fsio.ProcessKill}
	// PowerLoss is the three power-failure modes.
	PowerLoss = []fsio.PowerLossMode{fsio.PowerLossStrict, fsio.PowerLossNamesAhead, fsio.PowerLossLastNameOnly}
	// AllModes is every mode: what a replica directory must survive.
	AllModes = append(append([]fsio.PowerLossMode{}, Kill...), PowerLoss...)
)

// Run is one fresh copy of the operation, set up and ready to go.
type Run struct {
	Faults *fsio.Failpoints // where the crash point is armed: a FaultFS's or a FaultTransport's
	Disk   *fsio.FaultFS    // tracks the directory under test (TrackDurability)
	Op     func() error     // the operation
}

// Point names one check of a matrix: the crash point, whether the write
// there was torn, the outage mode, and what the operation returned.
type Point struct {
	K    int // the operation the run was killed at; -1: the clean run
	Torn bool
	Mode fsio.PowerLossMode
	Err  error
}

func (p Point) String() string {
	if p.K < 0 {
		return fmt.Sprintf("no crash %v", p.Mode)
	}
	return fmt.Sprintf("k=%d torn=%v %v", p.K, p.Torn, p.Mode)
}

// Matrix is one operation's crash matrix.
type Matrix struct {
	// Setup copies the fixture into a fresh directory and returns the run
	// over it. Operations Setup itself makes are not crash points.
	Setup func(t *testing.T) Run
	// Modes are the outages each run's directory is checked under.
	Modes []fsio.PowerLossMode
	// Check reopens dir, what the outage of p.Mode left, fails t unless it
	// holds exactly the pre- or the post-operation generation, and
	// reports whether it holds the post-operation one.
	Check func(t *testing.T, p Point, dir string) (post bool)
	// MinOps fails a trace shorter than this: the seam is not routing.
	MinOps int
}

// Result counts what a matrix saw.
type Result struct {
	Ops   int // operations in the traced run: the crash points
	Runs  int // runs: one per crash point and torn replay, and the clean one
	Acked int // runs whose operation returned nil
	Pre   int // checks that recovered to the pre-operation generation
	Post  int // checks that recovered to the post-operation generation
}

// Run traces one clean run, then replays the operation once per crash
// point k, and once more torn where operation k moves bytes; each run's
// directory is checked under every mode. A run whose operation returned
// nil — the clean one, or one killed only after its commit — must recover
// to the post-operation generation under every mode: acknowledged is
// durable.
func (m Matrix) Run(t *testing.T) Result {
	t.Helper()
	var res Result
	check := func(r Run, k int, torn bool, opErr error) {
		t.Helper()
		res.Runs++
		if opErr == nil {
			res.Acked++
		}
		for _, mode := range m.Modes {
			p := Point{K: k, Torn: torn, Mode: mode, Err: opErr}
			out := t.TempDir()
			if err := r.Disk.PowerLoss(out, mode); err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			post := m.Check(t, p, out)
			if post {
				res.Post++
			} else {
				res.Pre++
			}
			if opErr == nil && !post {
				t.Errorf("%v: the operation returned nil but the outage lost it", p)
			}
		}
	}

	traced := m.Setup(t)
	start := traced.Faults.OpCount()
	if err := traced.Op(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	res.Ops = traced.Faults.OpCount() - start
	if res.Ops < m.MinOps {
		t.Fatalf("suspiciously short trace (%d ops); seam not routing I/O?", res.Ops)
	}
	t.Logf("trace: %d ops", res.Ops)
	tears := make([]bool, res.Ops)
	for k := range tears {
		tears[k] = traced.Faults.Tears(start + k)
	}
	check(traced, -1, false, nil)

	for k := 0; k < res.Ops; k++ {
		for _, torn := range []bool{false, true} {
			if torn && !tears[k] {
				continue
			}
			r := m.Setup(t)
			r.Faults.CrashAfter(r.Faults.OpCount()+k, torn)
			err := r.Op()
			if !r.Faults.Crashed() {
				t.Fatalf("k=%d torn=%v: crash point never hit; the matrix does not cover the operation", k, torn)
			}
			check(r, k, torn, err)
		}
	}
	return res
}

// Tracked returns a FaultFS tracking dir's durability, dir's files now
// counting as durable.
func Tracked(t testing.TB, dir string) *fsio.FaultFS {
	t.Helper()
	ffs := fsio.NewFaultFS(nil)
	if err := ffs.TrackDurability(dir); err != nil {
		t.Fatal(err)
	}
	return ffs
}

// CopyDir copies the regular files of src into dst, creating dst.
func CopyDir(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range Files(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Files maps every regular file in dir to its bytes.
func Files(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// Transient lists the files in dir an interrupted operation can strand
// (fsio.Transient): what a reopen must sweep.
func Transient(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if fsio.Transient(e.Name()) {
			out = append(out, e.Name())
		}
	}
	return out
}
