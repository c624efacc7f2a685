package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"xarch/internal/datagen"
	"xarch/internal/fingerprint"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// evolver generates a random company database and mutates it version by
// version, exercising insertions, deletions, content modification,
// telephone churn and occasional empty versions.
type evolver struct {
	rng  *rand.Rand
	next int // fresh-name counter
}

func (e *evolver) name() string {
	e.next++
	return fmt.Sprintf("n%d", e.next)
}

func (e *evolver) newEmp() *xmltree.Node {
	emp := xmltree.Elem("emp",
		xmltree.ElemText("fn", e.name()),
		xmltree.ElemText("ln", e.name()),
	)
	if e.rng.Intn(2) == 0 {
		emp.Append(xmltree.ElemText("sal", fmt.Sprintf("%dK", 50+e.rng.Intn(100))))
	}
	for i := e.rng.Intn(3); i > 0; i-- {
		emp.Append(xmltree.ElemText("tel", e.name()))
	}
	return emp
}

func (e *evolver) newDept() *xmltree.Node {
	d := xmltree.Elem("dept", xmltree.ElemText("name", e.name()))
	for i := 1 + e.rng.Intn(3); i > 0; i-- {
		d.Append(e.newEmp())
	}
	return d
}

func (e *evolver) initial() *xmltree.Node {
	db := xmltree.Elem("db")
	for i := 1 + e.rng.Intn(3); i > 0; i-- {
		db.Append(e.newDept())
	}
	return db
}

// mutate returns a new version derived from doc.
func (e *evolver) mutate(doc *xmltree.Node) *xmltree.Node {
	if doc == nil || e.rng.Intn(12) == 0 {
		if e.rng.Intn(2) == 0 {
			return nil // empty version
		}
		return e.initial()
	}
	out := doc.Clone()
	depts := out.ChildrenNamed("dept")
	for _, d := range depts {
		switch e.rng.Intn(6) {
		case 0: // add an employee
			d.Append(e.newEmp())
		case 1: // remove an employee
			emps := d.ChildrenNamed("emp")
			if len(emps) > 0 {
				removeChild(d, emps[e.rng.Intn(len(emps))])
			}
		case 2: // change a salary
			emps := d.ChildrenNamed("emp")
			if len(emps) > 0 {
				emp := emps[e.rng.Intn(len(emps))]
				if sal := emp.Child("sal"); sal != nil {
					sal.Children = []*xmltree.Node{xmltree.TextNode(fmt.Sprintf("%dK", 50+e.rng.Intn(100)))}
				} else {
					emp.Append(xmltree.ElemText("sal", "60K"))
				}
			}
		case 3: // churn telephones
			emps := d.ChildrenNamed("emp")
			if len(emps) > 0 {
				emp := emps[e.rng.Intn(len(emps))]
				tels := emp.ChildrenNamed("tel")
				if len(tels) > 0 && e.rng.Intn(2) == 0 {
					removeChild(emp, tels[e.rng.Intn(len(tels))])
				} else {
					emp.Append(xmltree.ElemText("tel", e.name()))
				}
			}
		}
	}
	switch e.rng.Intn(8) {
	case 0:
		out.Append(e.newDept())
	case 1:
		if len(depts) > 1 {
			removeChild(out, depts[e.rng.Intn(len(depts))])
		}
	}
	return out
}

func removeChild(parent, child *xmltree.Node) {
	for i, c := range parent.Children {
		if c == child {
			parent.Children = append(parent.Children[:i], parent.Children[i+1:]...)
			return
		}
	}
}

// runEvolution archives nVersions random versions and verifies every
// archive guarantee: invariants, per-version round trip, history
// consistency, and XML reload equivalence.
func runEvolution(t *testing.T, seed int64, nVersions int, opts Options) {
	t.Helper()
	e := &evolver{rng: rand.New(rand.NewSource(seed))}
	spec := keys.MustParseSpec(companySpec)
	a := New(spec, opts)
	var versions []*xmltree.Node
	var doc *xmltree.Node
	for i := 0; i < nVersions; i++ {
		doc = e.mutate(doc)
		var toAdd *xmltree.Node
		if doc != nil {
			toAdd = doc.Clone()
		}
		if err := a.Add(toAdd); err != nil {
			t.Fatalf("seed %d: Add v%d: %v", seed, i+1, err)
		}
		versions = append(versions, doc.Clone())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for i, want := range versions {
		got, err := a.Version(i + 1)
		if err != nil {
			t.Fatalf("seed %d: Version(%d): %v", seed, i+1, err)
		}
		same, err := a.SameVersion(want, got)
		if err != nil {
			t.Fatalf("seed %d v%d compare: %v", seed, i+1, err)
		}
		if !same {
			t.Fatalf("seed %d: version %d mismatch\nwant: %s\ngot:  %s",
				seed, i+1, xmlOrEmpty(want), xmlOrEmpty(got))
		}
	}
	// The archive form comes out the same written straight from the
	// archive as from the tree the same walk builds.
	if got, want := a.XML(), a.ToXMLTree().IndentedXML(); got != want {
		t.Fatalf("seed %d: WriteXML differs from ToXMLTree().Write:\n%s\n--- want\n%s", seed, got, want)
	}
	// Reload from XML and re-verify a sample of versions.
	reparsed, err := xmltree.ParseString(a.XML())
	if err != nil {
		t.Fatalf("seed %d: reparse: %v", seed, err)
	}
	b, err := Load(reparsed, spec, opts)
	if err != nil {
		t.Fatalf("seed %d: reload: %v", seed, err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("seed %d reloaded: %v", seed, err)
	}
	for i := 0; i < len(versions); i += 1 + len(versions)/4 {
		got, err := b.Version(i + 1)
		if err != nil {
			t.Fatalf("seed %d: reloaded Version(%d): %v", seed, i+1, err)
		}
		same, err := a.SameVersion(versions[i], got)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Fatalf("seed %d: reloaded version %d mismatch", seed, i+1)
		}
	}
}

func xmlOrEmpty(n *xmltree.Node) string {
	if n == nil {
		return "(empty)"
	}
	return n.XML()
}

func TestQuickEvolutionPlain(t *testing.T) {
	f := func(seed int64) bool {
		runEvolution(t, seed, 12, Options{})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEvolutionWeave(t *testing.T) {
	f := func(seed int64) bool {
		runEvolution(t, seed, 12, Options{FurtherCompaction: true})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEvolutionWeakFingerprints forces fingerprint collisions with an
// 8-bit hash: merges must still be correct because canonical forms break
// ties (§4.3).
func TestQuickEvolutionWeakFingerprints(t *testing.T) {
	f := func(seed int64) bool {
		runEvolution(t, seed, 10, Options{Fingerprint: fingerprint.Weak8})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestLongEvolution runs one deep evolution to accumulate fragmented
// timestamps, resurrected elements and repeated divergence.
func TestLongEvolution(t *testing.T) {
	runEvolution(t, 424242, 60, Options{})
	runEvolution(t, 424242, 60, Options{FurtherCompaction: true})
}

// buildArchiveXML archives docs under opts, checks invariants, and
// returns the archive's XML form.
func buildArchiveXML(t *testing.T, spec *keys.Spec, docs []*xmltree.Node, opts Options) string {
	t.Helper()
	a := New(spec, opts)
	for i, d := range docs {
		if err := a.Add(d); err != nil {
			t.Fatalf("Add v%d: %v", i+1, err)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return a.XML()
}

// assertFastMatchesReference builds the same version sequence with the
// fingerprint-first comparison layer and with the reference
// canonical-string comparison (the pre-fingerprint semantics), across
// plain/weave modes and strong/collision-prone fingerprint functions, and
// requires byte-identical archives: the optimization must never alter
// output (§4.3 — fingerprints are an efficiency device only).
func assertFastMatchesReference(t *testing.T, spec *keys.Spec, docs []*xmltree.Node) bool {
	t.Helper()
	ok := true
	for _, weave := range []bool{false, true} {
		for _, fp := range []struct {
			name string
			fn   fingerprint.Func
		}{{"fnv", nil}, {"weak8", fingerprint.Weak8}} {
			fast := buildArchiveXML(t, spec, docs, Options{
				FurtherCompaction: weave, Fingerprint: fp.fn})
			ref := buildArchiveXML(t, spec, docs, Options{
				FurtherCompaction: weave, Fingerprint: fp.fn, referenceCompare: true})
			if fast != ref {
				t.Errorf("weave=%v fp=%s: fingerprint-first archive differs from reference", weave, fp.name)
				ok = false
			}
		}
	}
	return ok
}

// TestQuickFingerprintFirstMatchesReference runs the differential check
// over random company evolutions, including empty versions and
// resurrections.
func TestQuickFingerprintFirstMatchesReference(t *testing.T) {
	spec := keys.MustParseSpec(companySpec)
	f := func(seed int64) bool {
		e := &evolver{rng: rand.New(rand.NewSource(seed))}
		var docs []*xmltree.Node
		var doc *xmltree.Node
		for i := 0; i < 10; i++ {
			doc = e.mutate(doc)
			if doc == nil {
				docs = append(docs, nil)
			} else {
				docs = append(docs, doc.Clone())
			}
		}
		return assertFastMatchesReference(t, spec, docs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintFirstMatchesReferenceOMIM runs the differential check
// over OMIM-like accretive version sequences.
func TestFingerprintFirstMatchesReferenceOMIM(t *testing.T) {
	for _, seed := range []int64{1, 7, 62} {
		g := datagen.NewOMIM(datagen.OMIMConfig{Seed: seed, Records: 30,
			DeleteFrac: 0.05, InsertFrac: 0.08, ModifyFrac: 0.08})
		var docs []*xmltree.Node
		for i := 0; i < 5; i++ {
			docs = append(docs, g.Next())
		}
		assertFastMatchesReference(t, datagen.OMIMSpec(), docs)
	}
}

// TestFingerprintFirstMatchesReferenceXMark runs the differential check
// over XMark sequences under both §5.3 change simulators.
func TestFingerprintFirstMatchesReferenceXMark(t *testing.T) {
	for _, keyMod := range []bool{false, true} {
		g := datagen.NewXMark(datagen.XMarkConfig{Seed: 11, Items: 30,
			People: 20, Categories: 6, OpenAucts: 10, ClosedAucts: 6})
		doc := g.Document()
		docs := []*xmltree.Node{doc}
		for i := 0; i < 4; i++ {
			if keyMod {
				doc = g.KeyModChanges(doc, 0.1)
			} else {
				doc = g.RandomChanges(doc, 0.1)
			}
			docs = append(docs, doc)
		}
		assertFastMatchesReference(t, datagen.XMarkSpec(), docs)
	}
}
