package segstore_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"xarch/internal/fsio"
	"xarch/internal/segstore"
)

// faultSeam is one fault seam driven through two operations on one
// failpoint class: move, which moves 8 bytes (a write on the disk, a
// download on the network), and still, which moves none (an fsync, a
// HEAD). Both are counted operations.
type faultSeam struct {
	fp                    *fsio.Failpoints
	movePoint, moveKind   string
	stillPoint, stillKind string
	move                  func() (int, error) // bytes that arrived, and the error
	still                 func() error
}

const seamPayload = "8 bytes!"

func diskSeam(t *testing.T) faultSeam {
	ffs := fsio.NewFaultFS(nil)
	f, err := ffs.Create(filepath.Join(t.TempDir(), "seg-1.tok"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ffs.ResetTrace()
	return faultSeam{
		fp:        &ffs.Failpoints,
		movePoint: "segment.write", moveKind: "write",
		stillPoint: "segment.sync", stillKind: "sync",
		move:  func() (int, error) { return f.Write([]byte(seamPayload)) },
		still: f.Sync,
	}
}

func netSeam(t *testing.T) faultSeam {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(seamPayload)))
		io.WriteString(w, seamPayload)
	}))
	t.Cleanup(ts.Close)
	ft := segstore.NewFaultTransport(ts.Client().Transport)
	client := &http.Client{Transport: ft}
	url := ts.URL + "/v1/segments/seg-1.tok"
	return faultSeam{
		fp:        &ft.Failpoints,
		movePoint: "segment.get", moveKind: "get",
		stillPoint: "segment.head", stillKind: "head",
		move: func() (int, error) {
			resp, err := client.Get(url)
			if err != nil {
				return 0, err
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			return len(b), err
		},
		still: func() error {
			resp, err := client.Head(url)
			if err == nil {
				resp.Body.Close()
			}
			return err
		},
	}
}

// TestFailpointRuleBothSeams runs the one failpoint rule — After, Count,
// the bare-kind fallback, Crash, CrashAfter with and without tearing, an
// Err on a torn fault, Tears and ResetTrace — through the disk seam and
// the network seam, which must agree on every step.
func TestFailpointRuleBothSeams(t *testing.T) {
	errMine := errors.New("mine")
	cases := []struct {
		name  string
		arm   func(s faultSeam)
		steps string // m: move, s: still, r: ResetTrace
		want  string // one outcome per m or s
		ops   int    // OpCount at the end
	}{
		{"After skips, Count caps", func(s faultSeam) {
			s.fp.SetFault(s.movePoint, fsio.Fault{After: 1, Count: 2})
		}, "mmmms", "ok inj inj ok ok", 3},
		{"a bare kind is every class's fallback", func(s faultSeam) {
			s.fp.SetFault(s.stillKind, fsio.Fault{Count: 1})
		}, "msm", "ok inj ok", 2},
		{"a named point shadows its bare kind", func(s faultSeam) {
			s.fp.SetFault(s.moveKind, fsio.Fault{})
			s.fp.SetFault(s.movePoint, fsio.Fault{After: 1, Count: 1})
		}, "mmm", "ok inj ok", 2},
		{"a torn fault returns its own Err", func(s faultSeam) {
			s.fp.SetFault(s.movePoint, fsio.Fault{Torn: true, Err: errMine, Count: 1})
		}, "mm", "mine/torn ok", 1},
		{"a torn fault on an op that moves no bytes", func(s faultSeam) {
			s.fp.SetFault(s.stillPoint, fsio.Fault{Torn: true, Count: 1})
		}, "ss", "inj ok", 1},
		{"a Crash fault kills the seam", func(s faultSeam) {
			s.fp.SetFault(s.movePoint, fsio.Fault{Crash: true, After: 1})
		}, "mms", "ok crash crash", 1},
		{"CrashAfter", func(s faultSeam) { s.fp.CrashAfter(2, false) }, "smms", "ok ok crash crash", 2},
		{"CrashAfter torn", func(s faultSeam) { s.fp.CrashAfter(1, true) }, "mm", "ok crash/torn", 1},
		{"CrashAfter torn where nothing moves", func(s faultSeam) { s.fp.CrashAfter(1, true) }, "ms", "ok crash", 1},
		{"CrashAfter(-1) disarms", func(s faultSeam) {
			s.fp.CrashAfter(0, false)
			s.fp.CrashAfter(-1, false)
		}, "m", "ok", 1},
		{"ResetTrace keeps faults and the switch", func(s faultSeam) {
			s.fp.CrashAfter(1, false)
			s.fp.SetFault(s.stillPoint, fsio.Fault{After: 1})
		}, "srmsm", "ok ok inj crash", 1},
	}
	outcome := func(moved int, err error) string {
		var o string
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, fsio.ErrCrashed):
			o = "crash"
		case errors.Is(err, fsio.ErrInjected):
			o = "inj"
		case errors.Is(err, errMine):
			o = "mine"
		default:
			return err.Error()
		}
		switch moved {
		case 0:
			return o
		case len(seamPayload) / 2:
			return o + "/torn"
		}
		return fmt.Sprintf("%s/%d bytes", o, moved)
	}
	for _, seam := range []struct {
		name string
		new  func(*testing.T) faultSeam
	}{{"disk", diskSeam}, {"net", netSeam}} {
		for _, c := range cases {
			t.Run(seam.name+"/"+c.name, func(t *testing.T) {
				s := seam.new(t)
				c.arm(s)
				var got []string
				for _, step := range c.steps {
					switch step {
					case 'm':
						moved, err := s.move()
						if err == nil && moved != len(seamPayload) {
							t.Fatalf("a clean move moved %d bytes", moved)
						}
						got = append(got, outcome(moved, err))
					case 's':
						got = append(got, outcome(0, s.still()))
					case 'r':
						s.fp.ResetTrace()
					}
				}
				if g := strings.Join(got, " "); g != c.want {
					t.Errorf("outcomes %q, want %q", g, c.want)
				}
				if n := s.fp.OpCount(); n != c.ops || len(s.fp.Ops()) != n {
					t.Errorf("OpCount %d, %d ops traced; want %d", n, len(s.fp.Ops()), c.ops)
				}
				if s.fp.Crashed() != strings.Contains(c.want, "crash") {
					t.Errorf("Crashed() = %v after %q", s.fp.Crashed(), c.want)
				}
				for i, op := range s.fp.Ops() {
					if op.Index != i || s.fp.Tears(i) != (op.Point == s.movePoint) {
						t.Errorf("op %d %+v: Tears %v", i, op, s.fp.Tears(i))
					}
				}
				s.fp.ResetTrace()
				if s.fp.OpCount() != 0 || len(s.fp.Ops()) != 0 || s.fp.Tears(0) {
					t.Errorf("ResetTrace left %d ops", s.fp.OpCount())
				}
			})
		}
	}
}
