package keyindex

import (
	"fmt"
	"strings"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

func companyArchive(t *testing.T) *core.Archive {
	t.Helper()
	a := core.New(datagen.CompanySpec(), core.Options{})
	for i, d := range datagen.CompanyVersions() {
		if err := a.Add(d.Clone()); err != nil {
			t.Fatalf("add v%d: %v", i+1, err)
		}
	}
	return a
}

func TestHistoryMatchesCore(t *testing.T) {
	a := companyArchive(t)
	ix := Build(a)
	selectors := []string{
		"/db",
		"/db/dept[name=finance]",
		"/db/dept[name=marketing]",
		"/db/dept[name=finance]/emp[fn=John,ln=Doe]",
		"/db/dept[name=finance]/emp[fn=Jane,ln=Smith]",
		"/db/dept[name=finance]/emp[fn=Jane,ln=Smith]/sal",
		"/db/dept[name=finance]/emp[fn=John,ln=Doe]/tel[.=123-4567]",
	}
	for _, sel := range selectors {
		want, err := a.History(sel)
		if err != nil {
			t.Fatalf("core History(%s): %v", sel, err)
		}
		got, err := ix.History(sel)
		if err != nil {
			t.Fatalf("index History(%s): %v", sel, err)
		}
		if !want.Equal(got) {
			t.Errorf("History(%s): index %q, core %q", sel, got, want)
		}
	}
}

func TestHistoryErrors(t *testing.T) {
	ix := Build(companyArchive(t))
	if _, err := ix.History("/db/dept[name=nosuch]"); err == nil || !strings.Contains(err.Error(), "no element") {
		t.Errorf("missing element: %v", err)
	}
	if _, err := ix.History("/db/dept"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous selector: %v", err)
	}
	if _, err := ix.History("not-a-selector"); err == nil {
		t.Error("bad selector accepted")
	}
}

// TestPartialPredicate: naming only one of two key paths still resolves
// when unambiguous (via the linear fallback).
func TestPartialPredicate(t *testing.T) {
	a := companyArchive(t)
	ix := Build(a)
	got, err := ix.History("/db/dept[name=finance]/emp[fn=Jane]")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "2,4" {
		t.Errorf("partial predicate history = %q, want 2,4", got)
	}
}

// TestBinarySearchCost: on a wide archive the fully-specified lookup cost
// grows like log d, far below d.
func TestBinarySearchCost(t *testing.T) {
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 31, Records: 512})
	a := core.New(datagen.OMIMSpec(), core.Options{SkipValidation: true})
	doc := g.Next()
	if err := a.Add(doc); err != nil {
		t.Fatal(err)
	}
	ix := Build(a)
	// Look up a record by Num.
	num := doc.Child("Record").ChildText("Num")
	ix.ResetSearches()
	if _, err := ix.History("/ROOT/Record[Num=" + num + "]"); err != nil {
		t.Fatal(err)
	}
	// Two steps: ROOT (1 entry) + Record among 512: ~log2(512)=9 plus the
	// first step. Require well under a linear scan.
	if ix.SearchCount() > 40 {
		t.Errorf("lookup cost %d comparisons; expected O(log d) ~ 10", ix.SearchCount())
	}
	t.Logf("searches=%d for 512 records", ix.SearchCount())
}

// TestHistoryAfterEvolution: the index reflects the archive it was built
// from, including terminated elements.
func TestHistoryAfterEvolution(t *testing.T) {
	a := companyArchive(t)
	ix := Build(a)
	h, err := ix.History("/db/dept[name=marketing]/emp[fn=John,ln=Doe]")
	if err != nil {
		t.Fatal(err)
	}
	if h.String() != "3" {
		t.Errorf("marketing John = %q, want 3", h)
	}
}

// TestHistoryMatchesScanOnKeyOrder: over 70 records whose keys display in
// another order than they are stored in, and a structured key whose
// display is another record's text, the index answers what the archive
// scan answers, error texts included.
func TestHistoryMatchesScanOnKeyOrder(t *testing.T) {
	spec, err := keys.ParseSpecString("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (v, {}))")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("<db><rec><id><b/></id><v>s</v></rec>")
	for _, id := range []string{"a(", "aB", "x=y", `p\q`, "e(ide(b))"} {
		fmt.Fprintf(&b, "<rec><id>%s</id><v>%s</v></rec>", id, id)
	}
	for i := range 64 {
		fmt.Fprintf(&b, "<rec><id>r%02d</id><v>%d</v></rec>", i, i)
	}
	b.WriteString("</db>")
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(spec, core.Options{})
	if err := a.Add(doc); err != nil {
		t.Fatal(err)
	}
	ix := Build(a)
	for _, sel := range []string{"/db/rec", `/db/rec[id="e(ide(b))"]`, `/db/rec[id="e(ide(b))"]/v`, "/db/rec[id=a(]",
		"/db/rec[id=aB]", `/db/rec[id="x=y"]`, `/db/rec[id=p\q]`, "/db/rec[id=r07]/v", "/db/rec[id=nosuch]", "/db/rec[nosuch=x]"} {
		want, werr := a.History(sel)
		got, gerr := ix.History(sel)
		if fmt.Sprint(got, gerr) != fmt.Sprint(want, werr) {
			t.Errorf("History(%s): index %v %v, scan %v %v", sel, got, gerr, want, werr)
		}
	}
}
