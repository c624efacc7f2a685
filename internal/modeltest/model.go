// Package modeltest is the model test of the archive's stores. A script — a
// corpus, a seed and a list of steps: adds, batches, compactions, reopens,
// injected faults, crashes and replica pulls — is played against every
// store kind, and each store is judged against a MemStore fed exactly the
// versions it holds: the paper's §2 contract, that every version ever
// added comes back identical, as a property over any sequence of
// operations. A failing script is shrunk and printed in its text form,
// which a test replays from a file. It exists for tests; nothing outside a
// _test.go file imports it.
package modeltest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"xarch"
	"xarch/internal/faulttest"
	"xarch/internal/fsio"
	"xarch/internal/repl"
	"xarch/internal/segstore"
	"xarch/internal/xmltree"
)

// Corpus is a named source of fixtures.
type Corpus struct {
	Name    string
	Fixture func(seed int64) Fixture
}

// Fixture is what a seed of a corpus gives a script: the spec, the
// documents its steps number from 1, and the selectors (History and
// ContentHistory) and expressions (Select) every full check asks.
type Fixture struct {
	Spec      *xarch.KeySpec
	Docs      []*xarch.Document
	Selectors []string
	Exprs     []string
}

type kind struct {
	name string
	opts []xarch.Option
}

// budget is the streamed store's memory budget, in nodes.
const budget = 16

// kinds are the stores every script is played against.
var kinds = []kind{
	{"default", nil},
	{"noindex", []xarch.Option{xarch.WithQueryIndex(false)}},
	// An xml add is checked and sorted in pieces of budget nodes.
	{"stream", []xarch.Option{xarch.WithMemoryBudget(budget), xarch.WithSegmentTargetSize(2048)}},
	{"compacting", []xarch.Option{xarch.WithSegmentTargetSize(512), xarch.WithCompactionBudget(4096)}},
	{"mem", []xarch.Option{xarch.WithIndexes(false)}},
}

// Model plays scripts over the built-in datagen corpora and any others.
type Model struct {
	// ExtOptions are given to every external store and replica after the
	// store kind's own.
	ExtOptions []xarch.Option

	corpora  []Corpus
	fixtures map[string]*fixture
}

// New returns a model over the built-in corpora and extra.
func New(extra ...Corpus) *Model {
	return &Model{corpora: append(slices.Clone(builtin), extra...), fixtures: map[string]*fixture{}}
}

// Failure is a broken invariant: the check, and where and how it broke.
type Failure struct{ Check, Msg string }

func (f *Failure) Error() string { return f.Check + ": " + f.Msg }

// fixture is a Fixture with its documents by their names in a step — n,
// and !n for document n's invalid twin, its first root child repeated at
// its end — and whether the key check takes them.
type fixture struct {
	Fixture
	doc map[string]*xarch.Document
	ok  map[string]bool
}

// Fixture returns the fixture of a corpus's seed.
func (m *Model) Fixture(t testing.TB, corpus string, seed int64) Fixture {
	return m.fixture(t, corpus, seed).Fixture
}

func (m *Model) fixture(t testing.TB, name string, seed int64) *fixture {
	key := fmt.Sprint(name, "/", seed)
	i := slices.IndexFunc(m.corpora, func(c Corpus) bool { return c.Name == name })
	if fx := m.fixtures[key]; fx != nil {
		return fx
	} else if i < 0 {
		t.Fatalf("modeltest: no corpus %q", name)
	}
	fx := &fixture{Fixture: m.corpora[i].Fixture(seed), doc: map[string]*xarch.Document{}, ok: map[string]bool{"": true}}
	for i, d := range fx.Docs {
		twin := d.Clone()
		if k := slices.IndexFunc(twin.Children, func(c *xmltree.Node) bool { return c.Kind == xmltree.Element }); k >= 0 {
			twin.Append(twin.Children[k].Clone())
		}
		n := strconv.Itoa(i + 1)
		for name, doc := range map[string]*xarch.Document{n: d, "!" + n: twin} {
			fx.doc[name], fx.ok[name] = doc, xarch.ValidateDocument(fx.Spec, doc) == nil
		}
	}
	m.fixtures[key] = fx
	return fx
}

// Generate draws the random script of a seed: a corpus, one of its first
// four fixtures, 4 to 14 steps, every store kind.
func (m *Model) Generate(t testing.TB, seed int64) *Script {
	rng := rand.New(rand.NewSource(seed))
	sc := &Script{Corpus: m.corpora[rng.Intn(len(m.corpora))].Name, Seed: int64(rng.Intn(4))}
	generate(rng, sc, len(m.fixture(t, sc.Corpus, sc.Seed).Docs))
	return sc
}

// inst is one store under judgement: its handle (nil until a step opens
// an external store), directory and filesystem (nil for the MemStore), the
// documents of the versions it holds ("" for an empty one), and its
// replica's directory and version count.
type inst struct {
	kind
	s    xarch.Store
	dir  string
	ffs  *fsio.FaultFS
	hist []string
	rdir string
	rn   int
}

type run struct {
	t      testing.TB
	fx     *fixture
	base   string
	step   int
	oracle map[string][]string // answers by history
	ext    []xarch.Option      // Model.ExtOptions
}

// Run plays sc once and returns the first broken invariant.
func (m *Model) Run(t testing.TB, sc *Script) *Failure {
	r := &run{t: t, fx: m.fixture(t, sc.Corpus, sc.Seed), oracle: map[string][]string{}, ext: m.ExtOptions}
	for _, st := range sc.Steps {
		if slices.ContainsFunc(st.docs(), func(d string) bool { return r.fx.doc[d] == nil }) {
			t.Fatalf("modeltest: %s: the fixture has %d documents", st, len(r.fx.Docs))
		}
	}
	var err error
	if r.base, err = os.MkdirTemp("", "modeltest-"); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(r.base)
	var insts []*inst
	defer func() {
		for _, in := range insts {
			if in.s != nil {
				in.s.Close()
			}
		}
	}()
	for _, k := range kinds {
		in := &inst{kind: k}
		if len(sc.Stores) > 0 && !slices.Contains(sc.Stores, k.name) {
			continue
		} else if k.name == "mem" {
			in.s = xarch.NewStore(r.fx.Spec, k.opts...)
		} else {
			in.dir = r.fresh()
			in.ffs = faulttest.Tracked(t, in.dir)
		}
		insts = append(insts, in)
	}
	var fault, crash Step
	for i, st := range sc.Steps {
		switch r.step = i; st[0] {
		case "fault":
			fault = st
		case "crash":
			crash = st
		default:
			for _, in := range insts {
				if f := r.play(in, st, fault, crash); f != nil {
					return f
				}
			}
			fault, crash = nil, nil
		}
	}
	r.step = len(sc.Steps)
	for _, in := range insts {
		if err := r.open(in); err != nil {
			return r.fail(in, "open", "%v", err)
		} else if f := r.check(in, in.s, in.hist); f != nil {
			return f
		}
		err := in.s.Close()
		if in.s = nil; err != nil {
			return r.fail(in, "close", "%v", err)
		}
		for _, dir := range []string{in.dir, in.rdir} {
			if rep, err := xarch.CheckStore(dir); dir != "" && (err != nil || !rep.Clean) {
				return r.fail(in, "clean", "%v %+v", err, rep)
			}
		}
	}
	return nil
}

func (r *run) fresh() string {
	dir, err := os.MkdirTemp(r.base, "d")
	if err != nil {
		r.t.Fatal(err)
	}
	return dir
}

func (r *run) fail(in *inst, check, format string, args ...any) *Failure {
	return &Failure{check, fmt.Sprintf("step %d, store %s: ", r.step+1, in.name) + fmt.Sprintf(format, args...)}
}

// open opens an external store that is not open.
func (r *run) open(in *inst) error {
	if in.s != nil {
		return nil
	}
	s, err := xarch.OpenStore(in.dir, r.fx.Spec, slices.Concat([]xarch.Option{xarch.WithFS(in.ffs)}, in.opts, r.ext)...)
	if err == nil {
		in.s = s
	}
	return err
}

// arm clears ffs's fault and crash point and sets the given ones for the
// next operation.
func arm(ffs *fsio.FaultFS, fault, crash Step) {
	if ffs == nil {
		return
	}
	ffs.CrashAfter(-1, false)
	ffs.ClearFaults()
	if fault != nil {
		after, _ := strconv.Atoi(fault[len(fault)-1])
		ffs.SetFault(fault[1], fsio.Fault{Err: syscall.EIO, After: after, Count: 1})
	}
	if crash != nil {
		k, _, torn := crash.crash()
		ffs.CrashAfter(ffs.OpCount()+k, torn)
	}
}

// outage writes what crash's outage leaves of ffs's directory into a
// fresh one and returns it.
func (r *run) outage(ffs *fsio.FaultFS, crash Step) (string, error) {
	dir := r.fresh()
	_, mode, _ := crash.crash()
	return dir, ffs.PowerLoss(dir, mode)
}

// class is what an add's error says of a document: ok, refused as a key
// violation, failed by the filesystem underneath, or failed otherwise,
// which no oracle expects.
func class(err error) string {
	var kv *xarch.KeyViolationError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, xarch.ErrDegraded), errors.Is(err, fsio.ErrCrashed), errors.Is(err, syscall.EIO):
		return "io"
	case errors.As(err, &kv):
		return "refused"
	}
	return "failed"
}

// play runs st on one store under the fault and crash armed before it,
// and checks the invariants every step keeps.
func (r *run) play(in *inst, st, fault, crash Step) *Failure {
	if in.ffs == nil { // a MemStore has no filesystem to fail
		fault, crash = nil, nil
	}
	if st[0] == "pull" {
		return r.pull(in, fault, crash)
	}
	pre := len(in.hist)
	arm(in.ffs, fault, crash)
	errs, err := r.exec(in, st)
	hit, restart := in.ffs != nil && in.ffs.Crashed(), in.s == nil
	arm(in.ffs, nil, nil)
	if ext, ok := in.s.(*xarch.ExtStore); ok {
		restart = ext.Degraded() != nil
		// The streamed store sorts in runs an xml add whose root and root
		// children but the last fill a piece, unless the key check needs
		// the root whole: that is read in one piece.
		if d := r.fx.doc[st[len(st)-1]]; in.name == "stream" && st[0] == "add" && st[1] == "xml" && err == nil && errs[0] == nil &&
			r.fx.Spec.Cursor().Child(d.Name).Piecewise() &&
			d.CountNodes()-d.Children[len(d.Children)-1].CountNodes() >= budget && ext.SortRuns() < 2 {
			return r.fail(in, "runs", "%s was sorted in %d runs", st, ext.SortRuns())
		}
	}
	// What the oracle and the store say of each version the step adds.
	docs := st.docs()
	if st[0] == "empty" {
		docs = []string{""}
	}
	want, got := make([]string, len(docs)), make([]string, len(docs))
	for i, d := range docs {
		if want[i], got[i] = "ok", class(err); !r.fx.ok[d] {
			want[i] = "refused"
		}
		if err == nil && i < len(errs) {
			got[i] = class(errs[i])
		}
	}
	failed := err != nil || slices.Contains(got, "io")
	if !hit && (failed || restart) && (fault == nil || err != nil && class(err) != "io") {
		return r.fail(in, "error", "%s: %v %v", st, err, errs)
	}
	for i := range got {
		if !hit && !restart && got[i] != want[i] && got[i] != "io" {
			return r.fail(in, "refusal", "%s: %v, the oracle %v (%v)", st, got, want, errs)
		} else if (hit || restart) && (st[0] != "batch" || err != nil || got[i] != "io") {
			// A commit of the step carries every version the oracle takes,
			// but one a batch failed on its own.
			got[i] = want[i]
		}
	}
	if !hit && !restart && crash == nil {
		if in.hist = append(in.hist, oks(docs, got)...); in.s.Versions() != len(in.hist) {
			return r.fail(in, "versions", "%d versions after %s, the oracle %d", in.s.Versions(), st, len(in.hist))
		} else if st[0] == "reopen" {
			return r.check(in, in.s, in.hist)
		}
		return nil
	}
	// The process dies — at the crash point, or right after the step if it
	// never came — or an operator restarts a failed one: the handle is
	// abandoned, and the store reopens on what the outage left of its
	// directory, repaired if the process was still up.
	if in.s != nil {
		in.s.Close()
		in.s = nil
	}
	var e error
	if crash != nil {
		in.dir, e = r.outage(in.ffs, crash)
	}
	if e == nil && restart && !hit {
		if rep, err := xarch.RepairStore(in.dir, r.fx.Spec); err != nil || !rep.Clean {
			e = fmt.Errorf("repair after the fault: %v %+v", err, rep)
		}
	}
	if in.ffs = faulttest.Tracked(r.t, in.dir); e == nil {
		e = r.open(in)
	}
	if e != nil {
		return r.fail(in, "recover", "after the %s: %v", st, e)
	}
	added := oks(docs, got)
	if f := r.counted(in, st, in.s.Versions(), pre, pre+len(added), !failed); f != nil {
		return f
	} else if in.s.Versions() > pre {
		in.hist = append(in.hist, added...)
	}
	return r.check(in, in.s, in.hist)
}

// counted checks the versions a store or replica holds after an outage: the
// step's pre or post count, and post if the step returned nil.
func (r *run) counted(in *inst, st Step, v, pre, post int, acked bool) *Failure {
	if v != pre && v != post {
		return r.fail(in, "count", "%d versions after the %s, want %d or %d", v, st, pre, post)
	} else if v != post && acked {
		return r.fail(in, "durable", "the %s returned nil but the outage lost it: %d versions, want %d", st, v, post)
	}
	return nil
}

// oks are the docs whose class is ok: the versions a step added.
func oks(docs, classes []string) (added []string) {
	for i, c := range classes {
		if c == "ok" {
			added = append(added, docs[i])
		}
	}
	return added
}

// exec performs st, opening the store first if it is not open, and
// returns the error of each version it adds, or of the step.
func (r *run) exec(in *inst, st Step) ([]error, error) {
	if err := r.open(in); err != nil {
		return nil, err
	}
	s := in.s
	if st.docs() != nil || st[0] == "empty" {
		// A reader beside the writer, as a server has one.
		var wg sync.WaitGroup
		defer wg.Wait()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Snapshot(io.Discard)
		}()
	}
	ext, _ := s.(*xarch.ExtStore)
	switch {
	case st[0] == "empty":
		return []error{s.Add(nil)}, nil
	case st[0] == "add" && st[1] == "xml":
		return []error{s.AddReader(strings.NewReader(r.fx.doc[st[2]].IndentedXML()))}, nil
	case st[0] == "add":
		return []error{s.Add(r.fx.doc[st[2]])}, nil
	case st[0] == "batch":
		var docs []*xarch.Document
		for _, d := range st.docs() {
			docs = append(docs, r.fx.doc[d])
		}
		items, err := s.AddBatch(docs)
		errs := make([]error, len(items))
		for i, it := range items {
			errs[i] = it.Err
		}
		return errs, err
	case ext == nil: // a MemStore neither compacts nor reopens
	case st[0] == "compact":
		_, err := ext.Compact()
		return nil, err
	case st[0] == "reopen":
		err := s.Close()
		if in.s = nil; err == nil {
			err = r.open(in)
		}
		return nil, err
	}
	return nil, nil
}

// pull syncs the store's directory into its replica's through two
// segstore.Locals, the replica's filesystem under the fault and crash, and
// judges the replica and the store. A MemStore's pull is its full check.
func (r *run) pull(in *inst, fault, crash Step) *Failure {
	if in.ffs == nil {
		return r.check(in, in.s, in.hist)
	} else if err := r.open(in); err != nil {
		return r.fail(in, "open", "%v", err)
	} else if in.rdir == "" {
		in.rdir = r.fresh()
	}
	rfs := faulttest.Tracked(r.t, in.rdir)
	src, err := segstore.NewLocal(nil, in.dir)
	dst, err2 := segstore.NewLocal(rfs, in.rdir)
	if err != nil || err2 != nil {
		return r.fail(in, "pull", "%v %v", err, err2)
	}
	arm(rfs, fault, crash)
	_, err = repl.Sync(context.Background(), src, dst, repl.Options{Retry: segstore.RetryPolicy{MaxAttempts: 1}})
	if err != nil && fault == nil && !rfs.Crashed() {
		return r.fail(in, "pull", "%v", err)
	} else if crash != nil {
		if in.rdir, err2 = r.outage(rfs, crash); err2 != nil {
			return r.fail(in, "recover", "%v", err2)
		}
	}
	rs, e := xarch.OpenStore(in.rdir, r.fx.Spec, slices.Concat(in.opts, r.ext)...)
	if e != nil {
		return r.fail(in, "replica-open", "after a pull that returned %v: %v", err, e)
	}
	defer rs.Close()
	f := r.counted(in, Step{"pull"}, rs.Versions(), in.rn, len(in.hist), err == nil)
	if in.rn = rs.Versions(); f == nil {
		f = r.check(in, rs, in.hist[:in.rn])
	}
	if f != nil {
		f.Check = "replica-" + f.Check
		return f
	}
	return r.check(in, in.s, in.hist)
}

// show renders an answer, or an error as its class — which sentinels it
// wraps — and its text.
func show(v any, err error) string {
	if err == nil {
		return fmt.Sprint(v)
	}
	var class []bool
	for _, c := range []error{xarch.ErrNoSuchVersion, xarch.ErrNoSuchElement, xarch.ErrAmbiguousSelector,
		xarch.ErrBadSelector, xarch.ErrBadQuery, xarch.ErrCorruptArchive} {
		class = append(class, errors.Is(err, c))
	}
	return fmt.Sprintf("error %v: %v", class, err)
}

// collect reads every answer of the full check from s, one line each. It
// fails only when the store disagrees with itself: Version(v) must be the
// parse of the bytes WriteVersion(v) wrote.
func (r *run) collect(s xarch.Store) ([]string, error) {
	out := []string{fmt.Sprint("Versions ", s.Versions())}
	for v := 1; v <= s.Versions(); v++ {
		var b strings.Builder
		err := s.WriteVersion(v, &b)
		doc, verr := s.Version(v)
		out = append(out, fmt.Sprintf("WriteVersion(%d) %s Version %s", v, show(b.String(), err), show("", verr)))
		parsed, perr := xarch.ParseXMLString(b.String())
		if b.Len() == 0 {
			parsed, perr = nil, nil
		}
		if err == nil && verr == nil && (perr != nil || (doc == nil) != (parsed == nil) || doc != nil && !xmltree.Equal(doc, parsed)) {
			return nil, fmt.Errorf("Version(%d) is not the parse of WriteVersion(%d): %v", v, v, perr)
		}
	}
	for _, sel := range r.fx.Selectors {
		h, err := s.History(sel)
		c, cerr := s.ContentHistory(sel)
		out = append(out, "History("+sel+") "+show(h, err), "ContentHistory("+sel+") "+show(c, cerr))
	}
	for _, expr := range r.fx.Exprs {
		rs, err := s.Select(expr)
		var b strings.Builder
		for _, x := range rs {
			fmt.Fprintf(&b, "%s=%s;", x.Path, x.Versions)
		}
		out = append(out, "Select("+expr+") "+show(b.String(), err))
	}
	st, err := s.Stats()
	var b strings.Builder
	serr := s.Snapshot(&b)
	return append(out, "Stats "+show(fmt.Sprintf("%+v", st), err), "Snapshot "+show(b.String(), serr)), nil
}

// check is the full check of s against a default MemStore fed hist.
func (r *run) check(in *inst, s xarch.Store, hist []string) *Failure {
	key := fmt.Sprintf("%q", hist)
	if r.oracle[key] == nil {
		o := xarch.NewStore(r.fx.Spec)
		defer o.Close()
		for _, d := range hist {
			if err := o.Add(r.fx.doc[d]); err != nil { // nil, for an empty version
				return r.fail(in, "oracle", "version %d: %v", o.Versions()+1, err)
			}
		}
		want, err := r.collect(o)
		if err != nil {
			return r.fail(in, "oracle", "%v", err)
		}
		r.oracle[key] = want
	}
	got, err := r.collect(s)
	if err != nil {
		return r.fail(in, "self", "%v", err)
	} else if ms, ok := s.(*xarch.MemStore); ok {
		if p, n := ms.ProbeStats(); p+n != 0 {
			return r.fail(in, "probes", "ProbeStats with indexes off = %d/%d, want zeros", p, n)
		}
	}
	for i, want := range r.oracle[key][:min(len(got), len(r.oracle[key]))] {
		if got[i] != want {
			return r.fail(in, "answers", "\n got  %.600s\n want %.600s", got[i], want)
		}
	}
	return nil
}

// Shrink delta-debugs a failing script while the same check keeps
// failing: it drops halves, quarters, … single steps, then lowers each
// crash's operation number.
func (m *Model) Shrink(t testing.TB, sc *Script, f *Failure) (*Script, *Failure) {
	try := func(steps []Step) bool {
		c := *sc
		c.Steps = steps
		if g := m.Run(t, &c); g != nil && g.Check == f.Check {
			sc, f = &c, g
			return true
		}
		return false
	}
	for n := len(sc.Steps) / 2; n >= 1; n /= 2 {
		for i := 0; i+n <= len(sc.Steps); {
			if !try(slices.Delete(slices.Clone(sc.Steps), i, i+n)) {
				i += n
			}
		}
	}
	for i, st := range sc.Steps {
		if st[0] != "crash" {
			continue
		}
		k, _, _ := st.crash()
		for d := k; d >= 1; d /= 2 { // lower k by d while that fails, then by half d
			for k >= d && try(slices.Replace(slices.Clone(sc.Steps), i, i+1, append(Step{"crash", strconv.Itoa(k - d)}, st[2:]...))) {
				k -= d
			}
		}
	}
	return sc, f
}

// Seed parses a script — a test's fixed corpus, seed, store set and steps,
// or a file's — checks that its text form round-trips, and replays it.
func (m *Model) Seed(t testing.TB, text string) {
	t.Helper()
	sc, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	} else if again, _ := Parse(sc.String()); again == nil || again.String() != sc.String() {
		t.Fatalf("the text form does not round-trip:\n%s", sc)
	}
	m.Replay(t, sc)
}

// Replay plays a script and fails t with its shrunk form if an invariant
// breaks.
func (m *Model) Replay(t testing.TB, sc *Script) {
	t.Helper()
	if f := m.Run(t, sc); f != nil {
		small, sf := m.Shrink(t, sc, f)
		t.Fatalf("%v\nshrunk to %d steps (%v):\n%s", f, len(small.Steps), sf, small)
	}
}

// Soak plays the random scripts of seeds first, first+1, … until the time
// box closes, and returns how many it played.
func (m *Model) Soak(t testing.TB, first int64, box time.Duration) int {
	t.Helper()
	start := time.Now()
	n := 0
	for seed := first; n == 0 || time.Since(start) < box; seed++ {
		if sc := m.Generate(t, seed); m.Run(t, sc) != nil {
			t.Errorf("seed %d, found after %.1fs", seed, time.Since(start).Seconds())
			m.Replay(t, sc)
		}
		n++
	}
	return n
}
