package qlang

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"xarch/internal/anode"
	"xarch/internal/intervals"
	"xarch/internal/xmltree"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		`/gene[name=BRCA2]`,
		`/gene[name=BRCA2] AND @chromosome=7`,
		`@id`,
		`@id="has space"`,
		`@"weird name"="a\"b\\c"`,
		`in 3..9`,
		`in ..9`,
		`in 3..`,
		`at 7`,
		`changed`,
		`changed 40..`,
		`changed 1..5`,
		`NOT @deleted`,
		`NOT NOT @x`,
		`@a AND @b AND @c`,
		`@a OR @b OR @c`,
		`@a AND (@b OR @c)`,
		`(@a OR @b) AND @c`,
		`@a OR @b AND @c`,
		`NOT (@a AND @b)`,
		`NOT @a AND @b`,
		`@a AND (@b AND @c)`,
		`@a OR (@b OR @c)`,
		`/db/dept[name=finance]/emp[fn=John,ln=Doe] OR at 1`,
		`/db/dept[name="has )paren"] AND @x`,
		`/plain/path`,
		`changed AND @a`,
	}
	for _, src := range cases {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		s := e.String()
		e2, err := Parse(s)
		if err != nil {
			t.Fatalf("reparse Parse(%q) (from %q): %v", s, src, err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("round-trip mismatch for %q: %q reparsed differently", src, s)
		}
		if s2 := e2.String(); s2 != s {
			t.Fatalf("String not a fixed point: %q -> %q", s, s2)
		}
	}
}

func TestParseCanonical(t *testing.T) {
	cases := [][2]string{
		{`@a and @b`, `@a AND @b`},
		{`not @a`, `NOT @a`},
		{`( @a )`, `@a`},
		{`@a AND ( @b AND @c )`, `@a AND (@b AND @c)`},
		{`in 007..9`, `in 7..9`},
		{`@x="bare"`, `@x=bare`},
	}
	for _, c := range cases {
		e, err := Parse(c[0])
		if err != nil {
			t.Fatalf("Parse(%q): %v", c[0], err)
		}
		if got := e.String(); got != c[1] {
			t.Fatalf("Parse(%q).String() = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`AND`,
		`@a AND`,
		`(@a`,
		`@a)`,
		`in`,
		`in ..`,
		`at`,
		`at x`,
		`@`,
		`@=v`,
		`@a="unterminated`,
		`/gene[`,
		`/gene[name="unterminated`,
		`bogusword`,
		`@a @b`,
		`5`,
		`..7`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q): expected error", src)
		} else if !errors.Is(err, ErrBadQuery) {
			t.Fatalf("Parse(%q): error %v does not wrap ErrBadQuery", src, err)
		}
	}
}

func TestParseDepthLimit(t *testing.T) {
	deep := ""
	for i := 0; i < 10*maxDepth; i++ {
		deep += "NOT "
	}
	deep += "@x"
	if _, err := Parse(deep); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("deep NOT chain: want ErrBadQuery, got %v", err)
	}
	parens := ""
	for i := 0; i < 10*maxDepth; i++ {
		parens += "("
	}
	if _, err := Parse(parens + "@x"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("deep paren chain: want ErrBadQuery, got %v", err)
	}
}

// testRecord builds a record over a small hand-made subtree:
//
//	<emp status=active>          (inherits record lifespan 1..10)
//	  <addr t=3..5 city=Rome/>   (explicit time)
//	  <addr t=7..9 city=Oslo/>
//	</emp>
func testRecord() *Record {
	addr1 := &anode.Node{Kind: xmltree.Element, Name: "addr", Time: intervals.FromRange(3, 5)}
	addr1.Attrs = []*anode.Node{{Kind: xmltree.Attr, Name: "city", Data: "Rome"}}
	addr2 := &anode.Node{Kind: xmltree.Element, Name: "addr", Time: intervals.FromRange(7, 9)}
	addr2.Attrs = []*anode.Node{{Kind: xmltree.Attr, Name: "city", Data: "Oslo"}}
	emp := &anode.Node{Kind: xmltree.Element, Name: "emp"}
	emp.Attrs = []*anode.Node{{Kind: xmltree.Attr, Name: "status", Data: "active"}}
	emp.Children = []*anode.Node{addr1, addr2}
	return &Record{
		RootName:  "db",
		RootLabel: "db",
		Name:      "emp",
		Key:       &anode.KeyValue{Paths: []string{"id"}, Disp: []string{"7"}},
		Label:     "emp{id=7}",
		Life:      intervals.FromRange(1, 10),
		Versions:  10,
		Src:       (*NodeSource)(emp),
	}
}

func evalStr(t *testing.T, rec *Record, src string) string {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	s, err := EvalRecord(e, rec)
	if err != nil {
		t.Fatalf("EvalRecord(%q): %v", src, err)
	}
	return s.String()
}

func TestEvalRecord(t *testing.T) {
	rec := testRecord()
	cases := [][2]string{
		{`@status=active`, `1-10`},
		{`@status=retired`, ``},
		{`@city`, `3-5,7-9`},
		{`@city=Rome`, `3-5`},
		{`@city=Rome OR @city=Oslo`, `3-5,7-9`},
		{`@city=Rome AND @city=Oslo`, ``},
		{`NOT @city`, `1-2,6,10`},
		{`in 4..8`, `4-8`},
		{`in ..3`, `1-3`},
		{`in 8..`, `8-10`},
		{`at 7`, `7`},
		{`at 11`, ``},
		{`changed`, `1`},
		{`changed 2..`, ``},
		{`/db/emp[id=7]`, `1-10`},
		{`/db/emp[id=8]`, ``},
		{`/db`, `1-10`},
		{`/other`, ``},
		{`/db/emp[id=7]/addr`, `3-5,7-9`},
		{`/db/emp[id=7]/addr AND in ..6`, `3-5`},
		{`NOT (/db/emp[id=7]/addr)`, `1-2,6,10`},
		{`@city=Oslo AND changed`, ``},
	}
	for _, c := range cases {
		if got := evalStr(t, rec, c[0]); got != c[1] {
			t.Fatalf("eval %q = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestChangeSetGroups(t *testing.T) {
	// Frontier record with three groups: explicit 2-4, inherited, explicit 8.
	n := &anode.Node{Kind: xmltree.Element, Name: "rec", Groups: []*anode.Group{
		{Time: intervals.FromRange(2, 4)},
		{},
		{Time: intervals.New(8)},
	}}
	f := FactsOf(n)
	if !f.HasGroups || len(f.Changes) != 3 {
		t.Fatalf("facts = %+v", f)
	}
	life := intervals.FromRange(1, 9)
	if got := ChangeSet(f, life, 0, math.MaxInt).String(); got != "1-2,8" {
		t.Fatalf("ChangeSet = %q, want %q", got, "1-2,8")
	}
	if got := ChangeSet(f, life, 2, 7).String(); got != "2" {
		t.Fatalf("ChangeSet within 2..7 = %q, want %q", got, "2")
	}
	// Empty lifespan: inherited group contributes nothing.
	if got := ChangeSet(f, intervals.New(), 0, math.MaxInt).String(); got != "2,8" {
		t.Fatalf("ChangeSet(empty life) = %q, want %q", got, "2,8")
	}
}

func TestRequiredAttrs(t *testing.T) {
	e, err := Parse(`@a=1 AND (@b OR @c) AND NOT @d AND @e`)
	if err != nil {
		t.Fatal(err)
	}
	got := RequiredAttrs(e)
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "e" {
		t.Fatalf("RequiredAttrs = %+v", got)
	}
}

func TestRequiredPaths(t *testing.T) {
	e, err := Parse(`/a/b[k=1] AND (/c OR /d) AND NOT /e/f AND @x AND /g`)
	if err != nil {
		t.Fatal(err)
	}
	got := RequiredPaths(e)
	if len(got) != 2 || got[0].Raw != "/a/b[k=1]" || got[1].Raw != "/g" {
		t.Fatalf("RequiredPaths = %+v", got)
	}
}
