package fsio

import (
	"errors"
	"sync"
	"time"
)

// ErrCrashed is returned by every operation of a fault seam that has hit
// its crash point: from then on the seam behaves as if the process had
// been killed — or, for the network seam, the link cut — and nothing
// further is applied, including the cleanup removes error paths normally
// run, so the directory is left exactly as a real kill would leave it.
var ErrCrashed = errors.New("fsio: simulated crash")

// ErrInjected is the default error of a triggered failpoint: a failed
// operation, or a reset connection on the network seam.
var ErrInjected = errors.New("fsio: injected fault")

// Fault configures one failpoint. The zero value (with nothing set)
// injects ErrInjected on the first hit and every hit after.
type Fault struct {
	// Err is returned instead of performing the operation. Defaults to
	// ErrInjected; use syscall.ENOSPC etc. for specific conditions.
	// When only Delay or Hold is set, the operation proceeds afterwards.
	Err error
	// Torn makes a triggered operation that moves bytes move only half
	// of them before it fails — a short write on disk, a transfer cut
	// mid-body on the network.
	Torn bool
	// Crash switches the whole seam into the crashed state when the point
	// triggers: this and every later operation fails ErrCrashed.
	Crash bool
	// Delay is injected latency before the operation proceeds (slow
	// fsync/IO simulation). With no Err and no Crash the operation then
	// succeeds normally.
	Delay time.Duration
	// Hold parks a triggered operation until the channel is closed, then
	// lets it proceed like a Delay would; FaultFS.Held says when it has
	// arrived. Tests assert on order with it instead of sleeping.
	// FaultFS only.
	Hold <-chan struct{}
	// Status, when non-zero, answers a request with this HTTP status
	// (5xx bursts, 429 backpressure) without reaching the server, and
	// RetryAfter attaches a Retry-After header to the answer.
	// FaultTransport only.
	Status     int
	RetryAfter time.Duration
	// After skips the first After hits of the point before triggering.
	After int
	// Count caps how many times the point triggers; 0 = every hit once
	// triggering starts.
	Count int
}

// Op is one recorded operation of a fault seam: a mutating filesystem
// operation, or a request.
type Op struct {
	Index int    // position in the trace, 0-based
	Point string // failpoint name, e.g. "keydir.rename", "segment.get"
	Path  string // file path, or URL path
	// Bytes is what the operation moves: a write's payload or an
	// upload's body length; -1 for a download, whose length only its
	// response tells; 0 for an operation that moves no bytes.
	Bytes int
}

// Failpoints is the failpoint registry both fault seams — FaultFS on the
// disk, segstore.FaultTransport on the network — embed: named points
// with the After/Count firing rule and a bare-kind fallback, a
// crash-after-op-k switch, and a trace of every counted operation. The
// seam names each operation's point and says whether it counts and what
// bytes it moves; Failpoints decides its fate. The zero value is ready to
// use, and it is safe for concurrent use.
type Failpoints struct {
	mu         sync.Mutex
	faults     map[string]*faultState
	trace      []Op
	crashArmed bool
	crashAfter int // with crashArmed: crash once this many counted ops applied
	crashTorn  bool
	crashed    bool
}

type faultState struct {
	f    Fault
	hits int
	done int // times triggered
}

// SetFault registers (or replaces) the fault at a point. A point named by
// a bare operation kind ("sync", "get") matches that kind on every class.
func (p *Failpoints) SetFault(point string, fault Fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.faults == nil {
		p.faults = map[string]*faultState{}
	}
	p.faults[point] = &faultState{f: fault}
}

// ClearFault removes the fault at a point.
func (p *Failpoints) ClearFault(point string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.faults, point)
}

// ClearFaults removes every registered fault (crash state persists).
func (p *Failpoints) ClearFaults() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults = nil
}

// CrashAfter arms the crash switch: the first k counted operations apply
// normally, the k-th (0-based) and everything after fail with ErrCrashed.
// With torn set, an operation that moves bytes at the crash point moves
// half of them first — a torn final write or transfer. A negative k
// disarms the switch.
func (p *Failpoints) CrashAfter(k int, torn bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashArmed, p.crashAfter, p.crashTorn = k >= 0, k, torn
	p.crashed = false
}

// Crashed reports whether the crash point has been hit.
func (p *Failpoints) Crashed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// Ops returns a copy of the trace so far.
func (p *Failpoints) Ops() []Op {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Op(nil), p.trace...)
}

// OpCount returns the number of counted operations applied so far.
func (p *Failpoints) OpCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.trace)
}

// Tears reports whether a torn crash at counted op i (numbered as
// CrashAfter numbers them) would cut bytes short: only an operation that
// moves bytes can be torn; a torn crash anywhere else is the untorn one.
func (p *Failpoints) Tears(i int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return i >= 0 && i < len(p.trace) && p.trace[i].Bytes != 0
}

// ResetTrace clears the trace and counter (faults and crash arming are
// untouched).
func (p *Failpoints) ResetTrace() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trace = nil
}

// Decision is the fate of one operation.
type Decision struct {
	Err error
	// Torn: move half the operation's bytes, then fail with Err.
	Torn bool
	// Status and RetryAfter: answer with this status instead (Err is nil).
	Status     int
	RetryAfter time.Duration
	// Hold: park the operation until the channel closes, then proceed.
	Hold <-chan struct{}
}

// Gate decides the fate of op, whose Point names its failpoint; kind is
// the bare point it falls back to. A counted operation that proceeds
// advances the trace and the crash switch. A triggered Delay is slept
// here, before Gate returns.
func (p *Failpoints) Gate(kind string, op Op, counted bool) Decision {
	p.mu.Lock()
	if p.crashed {
		p.mu.Unlock()
		return Decision{Err: ErrCrashed}
	}
	var d Decision
	var delay time.Duration
	st := p.faults[op.Point]
	if st == nil {
		st = p.faults[kind]
	}
	if st != nil {
		st.hits++
		if st.hits > st.f.After && (st.f.Count == 0 || st.done < st.f.Count) {
			st.done++
			f := st.f
			delay, d.Hold = f.Delay, f.Hold
			switch {
			case f.Crash:
				p.crashed = true
				d.Err = ErrCrashed
			case f.Status != 0:
				d.Status, d.RetryAfter = f.Status, f.RetryAfter
			case f.Err != nil:
				d.Err = f.Err
			case f.Torn || f.Delay == 0 && f.Hold == nil:
				d.Err = ErrInjected
			}
			d.Torn = f.Torn && d.Err != nil && op.Bytes != 0
		}
	}
	if counted && d.Err == nil && d.Status == 0 {
		if p.crashArmed && len(p.trace) >= p.crashAfter {
			p.crashed = true
			d.Err = ErrCrashed
			d.Torn = p.crashTorn && op.Bytes != 0
		} else {
			op.Index = len(p.trace)
			p.trace = append(p.trace, op)
		}
	}
	p.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return d
}
