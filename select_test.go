package xarch

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
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
	scanOut, scanBytes := measure(WithQueryIndex(false), WithDirectorySeek(false))
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
// leaf pool.
func randExpr(rng *rand.Rand, depth int) string {
	if depth == 0 || rng.Intn(3) == 0 {
		return selectLeaves[rng.Intn(len(selectLeaves))]
	}
	switch rng.Intn(4) {
	case 0:
		return "NOT (" + randExpr(rng, depth-1) + ")"
	case 1:
		return "(" + randExpr(rng, depth-1) + ") AND (" + randExpr(rng, depth-1) + ")"
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

// TestSelectDifferential archives identical random version sequences into
// the in-memory engine and five external-engine configurations (indexed,
// forced streaming scan, compressed segments, and a fragmented layout —
// raw and compressed — that is then compacted) and requires every random
// boolean query to answer byte-identically everywhere — before
// compaction, after compaction, and after a close/reopen that reloads
// the persistent sidecar. Compaction must also keep the index path:
// depth-≥3 selects read no more bytes from the compacted store than they
// did from the fragmented one.
func TestSelectDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3; trial++ {
		trial := trial
		seed := rng.Int63()
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			trng := rand.New(rand.NewSource(seed))
			mem := NewStore(mustSelectSpec(t))
			defer mem.Close()
			open := func(dir string, opts ...Option) *ExtStore {
				t.Helper()
				s, err := OpenStore(dir, mustSelectSpec(t), append([]Option{WithMemoryBudget(64)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			// The compacted variants ingest under a segment target smaller
			// than any department, so every level-2 record lands in its
			// own file; reopened under the default target the whole layout
			// is one coalesce run.
			fragment := WithSegmentTargetSize(64)
			dirs := map[string]string{}
			for _, name := range []string{"indexed", "scan", "compressed", "compacted", "compressed+compacted"} {
				dirs[name] = t.TempDir()
			}
			exts := map[string]*ExtStore{
				"indexed":              open(dirs["indexed"]),
				"scan":                 open(dirs["scan"], WithQueryIndex(false), WithDirectorySeek(false)),
				"compressed":           open(dirs["compressed"], WithSegmentCompression(true)),
				"compacted":            open(dirs["compacted"], fragment),
				"compressed+compacted": open(dirs["compressed+compacted"], fragment, WithSegmentCompression(true)),
			}
			defer func() {
				for _, s := range exts {
					s.Close()
				}
			}()
			reopen := func(name string, opts ...Option) {
				t.Helper()
				if err := exts[name].Close(); err != nil {
					t.Fatal(err)
				}
				exts[name] = open(dirs[name], opts...)
			}

			nv := 3 + trng.Intn(3)
			for v := 0; v < nv; v++ {
				src := selectVersion(trng)
				addString(t, mem, src)
				for name, s := range exts {
					if err := s.AddReader(strings.NewReader(src)); err != nil {
						t.Fatalf("%s add v%d: %v", name, v+1, err)
					}
				}
			}

			exprs := make([]string, 0, 24)
			exprs = append(exprs, selectLeaves[:8]...)
			for i := 0; i < 16; i++ {
				exprs = append(exprs, randExpr(trng, 2))
			}

			check := func(phase string) {
				t.Helper()
				for _, expr := range exprs {
					want := mustSelect(t, mem, expr)
					for name, s := range exts {
						if got := mustSelect(t, s, expr); got != want {
							t.Fatalf("%s: %s disagrees on %q:\nmem:\n%s\n%s:\n%s", phase, name, expr, want, name, got)
						}
					}
				}
			}
			depth3Bytes := func(s *ExtStore) int64 {
				t.Helper()
				start := s.BytesRead()
				for _, expr := range selectDepth3 {
					mustSelect(t, s, expr)
				}
				return s.BytesRead() - start
			}
			check("fresh")
			fragmentedBytes := depth3Bytes(exts["compacted"])

			reopen("compacted")
			reopen("compressed+compacted", WithSegmentCompression(true))
			for _, name := range []string{"indexed", "compressed", "compacted", "compressed+compacted"} {
				st, err := exts[name].Compact()
				if err != nil {
					t.Fatalf("%s compact: %v", name, err)
				}
				if strings.HasSuffix(name, "compacted") && (st.Executed == 0 || st.Created >= st.Coalesced) {
					t.Fatalf("%s: compaction coalesced nothing: %+v", name, st)
				}
			}
			check("compacted")

			// Reopen so segment dictionaries are warm again, as they were
			// for the fragmented measurement.
			reopen("indexed")
			reopen("compacted")
			reopen("compressed+compacted", WithSegmentCompression(true))
			check("reopened")
			if got := depth3Bytes(exts["compacted"]); got > fragmentedBytes {
				t.Errorf("depth-3 selects read %d bytes after compaction, %d before: compacted segments lost the index path", got, fragmentedBytes)
			}
		})
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
