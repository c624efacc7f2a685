package keys

import (
	"fmt"
	"sync"
	"testing"
)

func TestMatcherAllocatesNothing(t *testing.T) {
	s := MustParseSpec(`
(/, (site, {}))
(/site, (regions, {}))
(/site/regions, (africa, {}))
(/site/regions/_, (item, {id}))
(/site/regions/_/item, (name, {}))
`)
	keyed := Path{"site", "regions", "asia", "item", "name"}
	unkeyed := Path{"site", "regions", "asia", "item", "name", "below"}
	var k *Key
	var b bool
	for name, f := range map[string]func(){
		"KeyFor":     func() { k = s.KeyFor(keyed); k = s.KeyFor(unkeyed) },
		"IsKeyed":    func() { b = s.IsKeyed(keyed); b = s.IsKeyed(unkeyed) },
		"IsFrontier": func() { b = s.IsFrontier(keyed); b = s.IsFrontier(unkeyed) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
	_, _ = k, b
}

// TestLazyNormalizeConcurrent shares one hand-assembled, never normalized
// Spec between goroutines; run under -race it proves the lazy path is
// synchronized.
func TestLazyNormalizeConcurrent(t *testing.T) {
	s := &Spec{Keys: []*Key{
		{Target: Path{"db"}},
		{Context: Path{"db"}, Target: Path{"dept"}, KeyPaths: []Path{{"name"}}},
	}}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if k := s.KeyFor(Path{"db", "dept", "name"}); k == nil || !k.Implied {
					t.Error("implied key of a lazily normalized spec not found")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNormalizeAgainRecompiles(t *testing.T) {
	s := MustParseSpec("(/, (db, {}))\n(/db, (dept, {}))")
	emp := Path{"db", "dept", "emp"}
	if s.IsKeyed(emp) || !s.IsFrontier(Path{"db", "dept"}) {
		t.Fatal("unexpected matcher before the key is appended")
	}
	s.Keys = append(s.Keys, &Key{Context: Path{"db", "dept"}, Target: Path{"emp"}})
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !s.IsKeyed(emp) || !s.IsFrontier(emp) || s.IsFrontier(Path{"db", "dept"}) {
		t.Error("second Normalize kept the stale matcher")
	}
	if got := s.KeyFor(emp).Pattern(); got != "/db/dept/emp" {
		t.Errorf("Pattern() = %q", got)
	}
}

func TestKeyPathOrder(t *testing.T) {
	s := MustParseSpec("(/, (db, {}))\n(/db, (c, {name, Date/Month, CNtype}))")
	k := s.KeyFor(Path{"db", "c"})
	if got := fmt.Sprint(k.KeyPathOrder(), k.SortedKeyPathNames()); got != "[2 1 0] [CNtype Date/Month name]" {
		t.Errorf("key-path order = %s", got)
	}
}

// TestPiecewise: which roots a streamed add may check a run of children at
// a time — those whose checks but their children's label uniqueness stay
// inside one child.
func TestPiecewise(t *testing.T) {
	for _, c := range []struct {
		spec string
		want bool
	}{
		{"(/, (db, {}))\n(/db, (dept, {name}))\n(/db/dept, (emp, {fn, ln}))", true},
		{"(/, (db, {}))\n(/db, (north, {}))\n(/db/_, (item, {id}))", true}, // a wildcard below the children
		{"(/, (db, {}))\n(/db, (dept, {name}))\n(/db, (org, {}))", true},   // org may be an attribute
		{"(/, (other, {}))", true},                                   // db is unkeyed: its check stops there
		{"(/, (db, {}))", false},                                     // a frontier root
		{"(/, (db, {name}))\n(/db, (dept, {}))", false},              // the root's key has a key path
		{"(/, (db, {}))\n(/db, (a, {n}))\n(/db, (a/b, {k}))", false}, // a target two steps deep
		{"(/, (db, {}))\n(/db, (_, {n}))", false},                    // a wildcard target
		{"(/, (db, {}))\n(/db, (a, {n}))\n(/db, (_, {m}))", false},   // a's label is the wildcard key's
		{"(/, (db, {}))\n(/, (db/a, {n}))", false},                   // a's key has its context above the root
	} {
		if got := MustParseSpec(c.spec).Cursor().Child("db").Piecewise(); got != c.want {
			t.Errorf("%q: Piecewise() = %v, want %v", c.spec, got, c.want)
		}
	}
}
