package xarch

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/xmltree"
)

// selectSpec extends the department schema with keyed attribute slots
// (region on dept, grade on emp) so queries can exercise attribute
// predicates above the frontier as well as inside frontier subtrees.
const selectSpec = `
(/, (db, {}))
(/db, (dept, {name}))
(/db/dept, (region, {.}))
(/db/dept, (emp, {fn, ln}))
(/db/dept/emp, (grade, {.}))
(/db/dept/emp, (sal, {}))
(/db/dept/emp, (tel, {.}))
`

func mustSelectSpec(t *testing.T) *KeySpec {
	t.Helper()
	spec, err := ParseKeySpec(selectSpec)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// selectVersion generates one random version document: a subset of
// departments and employees per version (driving lifespan variability),
// salaries that drift across versions (driving changed sets), and
// attributes inside the frontier that vary freely. Attributes above the
// frontier (region, grade) must be identical across every appearance of
// the same keyed element, so they are deterministic functions of the key.
func selectVersion(rng *rand.Rand) string {
	return selectDoc(rng, 4, 3)
}

// selectDoc is selectVersion scaled: depts departments of emps employees
// each, with the same key-derived attribute rules, so the benchmarks can
// build archives large enough for byte accounting to mean something.
func selectDoc(rng *rand.Rand, depts, emps int) string {
	var b strings.Builder
	b.WriteString("<db>")
	for d := 1; d <= depts; d++ {
		if rng.Intn(4) == 0 {
			continue
		}
		b.WriteString("<dept")
		if d%4 != 3 {
			fmt.Fprintf(&b, ` region="r%d"`, 1+d%2)
		}
		fmt.Fprintf(&b, "><name>d%d</name>", d)
		for e := 1; e <= emps; e++ {
			if rng.Intn(3) == 0 {
				continue
			}
			b.WriteString("<emp")
			if (d+e)%2 == 0 {
				fmt.Fprintf(&b, ` grade="g%d"`, 1+(d*e)%2)
			}
			fmt.Fprintf(&b, "><fn>F%d</fn><ln>L%d</ln>", e, e)
			fmt.Fprintf(&b, `<sal band="b%d">%dK</sal>`, 1+rng.Intn(2), 50+10*rng.Intn(3))
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "<tel>555-%d</tel>", rng.Intn(3))
			}
			b.WriteString("</emp>")
		}
		b.WriteString("</dept>")
	}
	b.WriteString("</db>")
	return b.String()
}

// buildSelectArchive writes a deterministic attribute-rich department
// archive (depts×emps elements per version, nv versions) into dir and
// closes it, ready for index-vs-scan reopens.
func buildSelectArchive(tb testing.TB, dir string, depts, emps, nv int) {
	tb.Helper()
	spec, err := ParseKeySpec(selectSpec)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := OpenStore(dir, spec, WithValidation(false))
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	for v := 0; v < nv; v++ {
		if err := s.AddReader(strings.NewReader(selectDoc(rng, depts, emps))); err != nil {
			tb.Fatalf("add v%d: %v", v+1, err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
}

// selectBenchExprs are the queries the byte-accounting benchmark and the
// ratio test run: a fact-only boolean, an index-assisted path seek, and a
// pure time predicate.
var selectBenchExprs = []string{
	"(@grade=g2 AND changed 2..) OR /db/dept[name=d7]/emp",
	"@region=r1 AND in 2..",
	"changed 3..",
}

// TestSelectIndexBytesRead pins the sidecar's reason to exist: the
// indexed Select path must answer the benchmark queries identically to
// the forced streaming scan while reading at least 10x fewer archive
// bytes.
func TestSelectIndexBytesRead(t *testing.T) {
	dir := t.TempDir()
	buildSelectArchive(t, dir, 48, 6, 4)
	measure := func(opts ...Option) (string, int64) {
		t.Helper()
		s, err := OpenStore(dir, mustSelectSpec(t), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var out strings.Builder
		start := s.BytesRead()
		for _, expr := range selectBenchExprs {
			fmt.Fprintf(&out, "-- %s\n%s", expr, mustSelect(t, s, expr))
		}
		return out.String(), s.BytesRead() - start
	}
	idxOut, idxBytes := measure()
	scanOut, scanBytes := measure(WithQueryIndex(false))
	if idxOut != scanOut {
		t.Fatalf("indexed and scan answers disagree:\nindexed:\n%s\nscan:\n%s", idxOut, scanOut)
	}
	if scanBytes == 0 {
		t.Fatal("scan path read no archive bytes; the measurement is broken")
	}
	if scanBytes < 10*idxBytes {
		t.Fatalf("indexed Select read %d bytes vs %d scanned: less than the promised 10x win", idxBytes, scanBytes)
	}
	t.Logf("indexed=%d bytes scan=%d bytes (%.1fx)", idxBytes, scanBytes, float64(scanBytes)/float64(max(idxBytes, 1)))
}

// selectLeaves is the pool of leaf predicates the random expression
// generator draws from; together they cover every predicate form and both
// hit and miss cases.
var selectLeaves = []string{
	"/db",
	"/db/dept",
	"/db/dept[name=d1]",
	"/db/dept[name=d3]",
	"/db/dept[name=nosuch]",
	"/db/dept/emp",
	"/db/dept[name=d2]/emp[fn=F1,ln=L1]",
	"/db/dept/emp[fn=F2,ln=L2]",
	"/db/dept/emp/sal",
	"/db/dept[name=d1]/emp/sal",
	"/db/dept/emp[fn=F3,ln=L3]/tel",
	"/db/dept/emp/nosuch",
	"@region",
	"@region=r1",
	"@region=zzz",
	"@grade",
	"@grade=g2",
	"@band=b1",
	"@nosuch",
	"in 2..",
	"in ..3",
	"in 2..4",
	"at 1",
	"at 3",
	"at 99",
	"changed",
	"changed 2..",
	"changed ..2",
}

// randExpr builds a random boolean expression of bounded depth from the
// leaf pool and keyed record paths.
func randExpr(rng *rand.Rand, depth int) string {
	if depth == 0 || rng.Intn(3) == 0 {
		return selectLeaves[rng.Intn(len(selectLeaves))]
	}
	switch rng.Intn(5) {
	case 0:
		return "NOT (" + randExpr(rng, depth-1) + ")"
	case 1:
		return "(" + randExpr(rng, depth-1) + ") AND (" + randExpr(rng, depth-1) + ")"
	case 2:
		// A keyed two-step path on a conjunctive spine — the plan that
		// narrows by path when this is the top of the expression, and must
		// not when it ends up under a NOT or an OR. d5 names no department.
		return fmt.Sprintf("/db/dept[name=d%d] AND (%s)", 1+rng.Intn(5), randExpr(rng, depth-1))
	default:
		return "(" + randExpr(rng, depth-1) + ") OR (" + randExpr(rng, depth-1) + ")"
	}
}

func renderResults(rs []SelectResult) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s=%s\n", r.Path, r.Versions)
	}
	return b.String()
}

func mustSelect(t *testing.T, s Store, expr string) string {
	t.Helper()
	rs, err := s.Select(expr)
	if err != nil {
		t.Fatalf("Select(%q): %v", expr, err)
	}
	return renderResults(rs)
}

// selectDepth3 are selectors that descend below the level-2 records: on
// an indexed store they seek through the sidecar's kid spans instead of
// streaming the records.
var selectDepth3 = []string{
	"/db/dept/emp[fn=F2,ln=L2]",
	"/db/dept[name=d1]/emp/sal",
}

// narrowSpec archives three kinds of root across versions — two keyed
// libraries, an unkeyed db that reuses the tag `book` under another key
// shape, and raw memos — so a path predicate can miss at the root, at the
// record, or only below it.
const narrowSpec = `
(/, (lib, {name}))
(/lib, (book, {isbn}))
(/lib/book, (title, {}))
(/lib, (shelf, {row, col}))
(/lib/shelf, (note, {}))
(/lib, (misc, {}))
(/, (db, {}))
(/db, (book, {code}))
(/db/book, (title, {}))
(/, (memo, {.}))
`

// narrowLib renders one library version: books b000.. (more than
// dirIndexMinEntries of them in the main library, so a keyed step is a
// binary search there and a compare in the annex), one whose key needs
// escaping in its canonical form, a 2x2 grid of shelves and one unkeyed
// entry. drop names a book left out; rev varies the titles.
func narrowLib(name string, books, drop, rev int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<lib><name>%s</name>", name)
	for i := 0; i < books; i++ {
		if i == drop {
			continue
		}
		lang := "en"
		if i%5 == 0 {
			lang = "fr"
		}
		fmt.Fprintf(&b, `<book><isbn>b%03d</isbn><title lang="%s">title %d.%d</title></book>`, i, lang, i, rev*(i%3))
	}
	b.WriteString(`<book><isbn>9(7) x</isbn><title lang="la">odd key</title></book>`)
	for row := 1; row <= 2; row++ {
		for col := 1; col <= 2; col++ {
			fmt.Fprintf(&b, "<shelf><row>%d</row><col>%d</col><note>n%d</note></shelf>", row, col, rev)
		}
	}
	b.WriteString("<misc>loose leaves</misc></lib>")
	return b.String()
}

// TestSelectPathNarrowing holds the Select plan's path narrowing to the
// in-memory engine, with the attribute sidecar and without it: every query
// here puts a path predicate where the planner must use it (the
// conjunctive spine) or must not (beside OR, under NOT, one step long), and
// the three answers must agree.
func TestSelectPathNarrowing(t *testing.T) {
	spec := func() *KeySpec {
		s, err := ParseKeySpec(narrowSpec)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	open := func(opts ...Option) *ExtStore {
		s, err := OpenStore(t.TempDir(), spec(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	mem := NewStore(spec())
	defer mem.Close()
	planned, unindexed := open(), open(WithQueryIndex(false))
	for _, src := range []string{
		narrowLib("main", 70, -1, 0),
		narrowLib("main", 70, 8, 1),
		narrowLib("annex", 12, -1, 0),
		`<db><book><code>b007</code><title>other shape</title></book><book><code>c1</code><title>t</title></book></db>`,
		`<memo priority="high"><x>ship it</x></memo>`,
		narrowLib("main", 70, 8, 2),
	} {
		for _, s := range []Store{mem, planned, unindexed} {
			addString(t, s, src)
		}
	}
	for _, c := range []struct{ expr, why string }{
		{`/lib[name=main]/book[isbn=b007] AND in 1..`, "fully keyed at both levels: the lookup"},
		{`/lib[name=main]/book[isbn=b007]/title AND changed`, "the lookup, then a walk below the record"},
		{`/lib[name=main]/book[isbn=b008] AND in 2..`, "the record is gone from every version asked for"},
		{`/lib[name=main]/book[isbn=b007] OR @lang=la`, "beside OR: no spine"},
		{`NOT /lib[name=main]/book[isbn=b007]`, "under NOT: no spine"},
		{`at 1 AND NOT /lib[name=main]/book[isbn=b007]`, "under NOT inside AND: the path is not on the spine"},
		{`/lib[name=nosuch]/book[isbn=b007] AND in 1..`, "root key mismatch"},
		{`/lib/book[isbn=b007] AND in 1..`, "unkeyed root step: both libraries"},
		{`/lib[name=annex]/book[isbn=b007] AND in 1..`, "a root below the index threshold: compare, not seek"},
		{`/lib[name=main]/shelf[row=1] AND in 1..`, "partially keyed level-2 step"},
		{`/lib[name=main]/shelf[col=2,row=1] AND in 1..`, "two key paths, given out of order"},
		{`/lib[name=main]/shelf[row=1,row=1] AND in 1..`, "a repeated predicate is not a full key"},
		{`/lib[name=main]/book AND changed 2..`, "unkeyed level-2 step"},
		{`/lib[name=main]/misc AND in 1..`, "unkeyed entry"},
		{`/lib[name=main]/misc[x=1] AND in 1..`, "keyed step against an unkeyed entry"},
		{`/db/book[code=b007] AND in 1..`, "the same tag under another root, its own key shape"},
		{`/db/book[isbn=b007] AND in 1..`, "the other root's key shape: nothing"},
		{`/lib[name=main]/book[code=b007] AND in 1..`, "and the other way round"},
		{`/lib[name=main]/book[isbn="9(7) x"] AND in 1..`, "display form differs from the canonical form"},
		{`/lib[name=main]/book[isbn=b007] AND /lib[name=main]/book[isbn=b009]`, "two spine paths, two records: empty"},
		{`/lib[name=main]/book[isbn=b007] AND /lib/book/title AND @lang=en`, "two spine paths and an attribute, one record"},
		{`/lib[name=main]/book AND /lib/shelf[row=2,col=2]`, "an unkeyed spine path beside a keyed one that excludes it"},
		{`/lib AND in 3..`, "one step: narrows nothing"},
		{`/memo AND in 1..`, "raw root, one step"},
		{`/memo/x AND in 1..`, "raw root, two steps: step 0 matches, the rest is inside"},
		{`/lib[name=main]/book[isbn=b007] AND /memo`, "a raw root and a record cannot both match"},
		{`/nosuch/book[isbn=b007] AND in 1..`, "no such root"},
	} {
		want := mustSelect(t, mem, c.expr)
		if got := mustSelect(t, unindexed, c.expr); got != want {
			t.Errorf("%s (%s): the store without a sidecar disagrees with mem:\nmem:\n%s\nunindexed:\n%s", c.expr, c.why, want, got)
		}
		if got := mustSelect(t, planned, c.expr); got != want {
			t.Errorf("%s (%s): the planned store disagrees with mem:\nmem:\n%s\nplanned:\n%s", c.expr, c.why, want, got)
		}
	}
	// The table is only worth its name if some of it matches something.
	if got := mustSelect(t, planned, `/lib[name=main]/book[isbn=b007] AND in 1..`); got != "/lib{name=main}/book{isbn=b007}=1-2,6\n" {
		t.Errorf("keyed select answered %q", got)
	}
}

// buildOMIMStore archives nv versions of an OMIM-like database of the given
// size — one root, one level-2 entry per record, the shape of the
// benchmark's ingest-accrete workload — with a grade attribute on every
// record's title (OMIM itself has no attributes), and returns the store and
// the record keys of version 1.
func buildOMIMStore(tb testing.TB, records, nv int) (*ExtStore, []string) {
	tb.Helper()
	cfg := datagen.DefaultOMIM()
	cfg.Seed, cfg.Records = 3, records
	g := datagen.NewOMIM(cfg)
	st, err := OpenStore(tb.TempDir(), g.Spec())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	var nums []string
	for v := 0; v < nv; v++ {
		doc := g.Next()
		for i, rec := range doc.ChildrenNamed("Record") {
			if v == 0 {
				nums = append(nums, rec.ChildText("Num"))
			}
			rec.Child("Title").Attrs = []*xmltree.Node{xmltree.AttrNode("grade", fmt.Sprintf("g%d", i%16))}
		}
		if err := st.Add(doc); err != nil {
			tb.Fatal(err)
		}
	}
	return st, nums
}

// omimSelects are the three shapes of Select over that store: a keyed
// record (narrowed by the path spine to a lookup), an attribute (narrowed by
// the sidecar's postings to one record in sixteen), and one that nothing
// narrows, so every record is evaluated.
func omimSelects(num string) map[string]string {
	return map[string]string{
		"keyed":      "/ROOT/Record[Num=" + num + "] AND in 2..3",
		"attr":       "@grade=g3 AND in 2..",
		"unnarrowed": "changed 2..3",
	}
}

// TestSelectAllocations pins what a read costs in allocations on a
// 450-record root, the size at which a Select that built a Record per
// directory entry made 5,499 of them: a keyed Select and a two-step History
// are lookups, and a Select that must look at every record pays per record
// only for what it evaluates.
func TestSelectAllocations(t *testing.T) {
	const records = 450
	st, nums := buildOMIMStore(t, records, 4)
	exprs := omimSelects(nums[records/2])
	selector := "/ROOT/Record[Num=" + nums[records/3] + "]"
	for _, c := range []struct {
		name string
		max  float64
		op   func() error
	}{
		{"keyed Select", 64, func() error { _, err := st.Select(exprs["keyed"]); return err }},
		{"two-step History", 24, func() error { _, err := st.History(selector); return err }},
		{"unnarrowed Select, per record", 2 * records, func() error { _, err := st.Select(exprs["unnarrowed"]); return err }},
	} {
		if err := c.op(); err != nil { // also builds what is built once: identities, the entry index
			t.Fatalf("%s: %v", c.name, err)
		}
		got := testing.AllocsPerRun(20, func() {
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, got, c.max)
		}
		t.Logf("%s: %.0f allocations", c.name, got)
	}
}

// TestSelectRawRoots covers raw (frontier-at-depth-1) records: each
// version's root is a value-keyed memo, so every distinct text is its own
// record.
func TestSelectRawRoots(t *testing.T) {
	spec, err := ParseKeySpec("(/, (memo, {.}))")
	if err != nil {
		t.Fatal(err)
	}
	mem := NewStore(spec)
	defer mem.Close()
	spec2, err := ParseKeySpec("(/, (memo, {.}))")
	if err != nil {
		t.Fatal(err)
	}
	ext, err := OpenStore(t.TempDir(), spec2, WithMemoryBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	for _, src := range []string{
		`<memo priority="high">ship it</memo>`,
		`<memo priority="high">ship it</memo>`,
		`<memo>hold off</memo>`,
	} {
		addString(t, mem, src)
		addString(t, ext, src)
	}
	for _, expr := range []string{
		"/memo",
		"@priority=high",
		"@priority",
		"changed",
		"at 3",
		"NOT at 3",
		"/memo AND in 1..2",
	} {
		want := mustSelect(t, mem, expr)
		got := mustSelect(t, ext, expr)
		if got != want {
			t.Fatalf("raw roots disagree on %q:\nmem:\n%s\next:\n%s", expr, want, got)
		}
	}
}

// TestSelectErrors checks parse-error reporting parity across engines.
func TestSelectErrors(t *testing.T) {
	bothEngines(t, func(t *testing.T, s Store) {
		addString(t, s, deptVersion(2))
		for _, expr := range []string{"", "((", "@", "at x", "/db AND", "in"} {
			if _, err := s.Select(expr); !errors.Is(err, ErrBadQuery) {
				t.Errorf("Select(%q) err = %v, want ErrBadQuery", expr, err)
			}
		}
		if _, err := s.Select("/db"); err != nil {
			t.Errorf("valid query failed: %v", err)
		}
	})
}
