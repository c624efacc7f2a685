package xarch

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// TestAddLimits takes the edges of a document's shape through the ways a
// version enters a store — ExtStore.AddReader, which tokenizes it into the
// writer's document slab; ExtStore.Add of the parsed tree, which flattens
// it there; AddReader at a 16-node memory budget, which checks and sorts
// it in pieces; and MemStore — and demands one outcome: the same version
// back, or the same *KeyViolationError. The documents in pieces here are
// refused for what the first piece holds, or for twins that the run merge
// meets, so their reports are the whole document's too.
func TestAddLimits(t *testing.T) {
	deep := func(levels int) string {
		return "<db><dept><name>d</name><emp><fn>a</fn><ln>b</ln><sal>" +
			strings.Repeat("<x>", levels) + "v" + strings.Repeat("</x>", levels) + "</sal></emp></dept></db>"
	}
	var attrs strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&attrs, ` a%03d="%d"`, 999-i, i) // out of canonical order
	}
	// inRuns puts sal in a second department after a first one of more
	// than 16 nodes, so that the budgeted store sorts the document in two
	// runs and sal's strings go through a run record.
	inRuns := func(sal string) string {
		return "<db><dept><name>a</name><emp><fn>a</fn><ln>b</ln></emp><emp><fn>c</fn><ln>d</ln></emp>" +
			"<emp><fn>e</fn><ln>f</ln></emp><emp><fn>g</fn><ln>h</ln></emp></dept>" +
			"<dept><name>d</name><emp><fn>a</fn><ln>b</ln>" + sal + "</emp></dept></db>"
	}
	big := strings.Repeat("v", 70<<10)
	twoRuns := inRuns("")
	for _, c := range []struct {
		name, doc string
		runs      int // the runs the 16-node store writes for the doc, refused or not
	}{
		{"empty input", "", 0},
		{"root only", "<db/>", 0},
		{"100,000 levels below the frontier", deep(100_000), 0},
		{"key value over 64 KiB", "<db><dept><name>" + strings.Repeat("k", 70<<10) + "</name></dept></db>", 0},
		{"attribute value over 64 KiB", inRuns(`<sal a="` + big + `">1</sal>`), 2},
		{"text over 64 KiB below the frontier", inRuns("<sal>" + big + "</sal>"), 2},
		{"1,000 attributes", "<db><dept><name>d</name><emp><fn>a</fn><ln>b</ln><sal" + attrs.String() + ">1K</sal></emp></dept></db>", 0},
		{"duplicate keys at two levels", "<db><dept><name>d</name><emp><fn>a</fn><ln>b</ln></emp>" +
			"<emp><fn>a</fn><ln>b</ln></emp></dept><dept><name>d</name></dept></db>", 0},
		{"duplicate key split across runs", strings.Replace(twoRuns, "<name>d</name>", "<name>a</name>", 1), 2},
		{"unkeyed root attribute in runs", strings.Replace(twoRuns, "<db>", `<db x="1">`, 1), 0}, // refused at the first piece
	} {
		t.Run(c.name, func(t *testing.T) {
			mem := NewStore(mustSpec(t))
			defer mem.Close()
			stores := []Store{mem}
			// stores[2] takes the parsed tree; stores[3] reads in pieces.
			for _, opts := range [][]Option{nil, nil, {WithMemoryBudget(16)}} {
				ext, err := OpenStore(t.TempDir(), mustSpec(t), opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer ext.Close()
				stores = append(stores, ext)
			}
			errs := make([]error, len(stores))
			for i, s := range stores {
				if i != 2 {
					errs[i] = s.AddReader(strings.NewReader(c.doc))
				}
			}
			if tree, err := ParseXMLString(c.doc); err != nil {
				errs[2] = stores[2].Add(nil) // no tree to hand over: the empty version
			} else {
				errs[2] = stores[2].Add(tree)
			}
			runs := stores[3].(*ExtStore).SortRuns()
			if runs != c.runs {
				t.Errorf("the 16-node store wrote %d runs for the document, want %d", runs, c.runs)
			}
			var want *KeyViolationError
			if errors.As(errs[0], &want) {
				for i, err := range errs[1:] {
					var got *KeyViolationError
					if !errors.As(err, &got) || !reflect.DeepEqual(got.Violations, want.Violations) {
						t.Errorf("store %d: %v, want %v", i+1, err, want)
					}
				}
				return
			}
			if c.doc == "" {
				for i, err := range errs {
					if i != 2 && (err == nil || err.Error() != errs[0].Error()) || i == 2 && err != nil {
						t.Fatalf("empty input: %v", errs)
					}
				}
				for i, s := range stores {
					if i == 2 {
						continue
					}
					if err := s.Add(nil); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				for _, err := range errs {
					if err != nil {
						t.Fatalf("adds: %v", errs)
					}
				}
			}
			wantDoc, err := mem.Version(1)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range stores[1:] {
				got, err := s.Version(1)
				if err != nil {
					t.Fatal(err)
				}
				// Attributes are a set: the engines may list them in different orders.
				if !xmltree.Equal(got, wantDoc) {
					t.Errorf("store %d: version 1 differs from the in-memory engine's", i+1)
				}
			}
		})
	}
}

// TestWhitespaceTwinsRejectedBySort: a tree built in code can hold two
// keyed siblings whose values differ only in text that is white space —
// distinct as trees, so validation passes them, but one value to the
// archiver, which drops such text (footnote 3). The external engine must
// refuse the version, and it does so in the sort, naming the twins, not as
// a key violation.
func TestWhitespaceTwinsRejectedBySort(t *testing.T) {
	spec, err := ParseKeySpec("(/, (db, {}))\n(/db, (entry, {\\e}))")
	if err != nil {
		t.Fatal(err)
	}
	text, elem := xmltree.TextNode, xmltree.Elem
	doc := elem("db", elem("entry", elem("a")), elem("entry", text(" \n"), elem("a")))
	if errs := spec.CheckDocument(doc); len(errs) != 0 {
		t.Fatalf("validation reports %v; the twins differ as trees", errs)
	}
	ext, err := OpenStore(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	err = ext.Add(doc)
	var kv *KeyViolationError
	if err == nil || errors.As(err, &kv) || !strings.Contains(err.Error(), "/db: more than one child entry") {
		t.Fatalf("Add = %v, want the sort's duplicate-child error", err)
	}
	if ext.Versions() != 0 {
		t.Errorf("the refused version was archived")
	}
	// The in-memory engine keeps a tree's text as it stands, so to it the
	// twins are two entries.
	if err := NewStore(spec).Add(doc); err != nil {
		t.Errorf("MemStore.Add = %v", err)
	}
}

// TestStreamedAddKeepsTheBudget: AddReader checks a version piece by piece
// as it reads it, so a document many times the memory budget is sorted in
// runs and reads back as the in-memory engine's. A root some check of
// which reaches across its children — a key below it whose target is two
// steps deep, or a wildcard — is read whole instead, and a violation there
// is refused with MemStore's report.
func TestStreamedAddKeepsTheBudget(t *testing.T) {
	const budget = 256
	spec, texts := omimTexts(t, 60, 4, 3)
	ext, err := OpenStore(t.TempDir(), spec, WithMemoryBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	mem := NewStore(spec)
	defer mem.Close()
	for i, text := range texts {
		doc, err := ParseXMLString(string(text))
		if err != nil {
			t.Fatal(err)
		}
		if n := doc.CountNodes(); n < 8*budget {
			t.Fatalf("version %d has %d nodes, want at least %d", i+1, n, 8*budget)
		}
		if err := ext.AddReader(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
		if runs := ext.SortRuns(); runs < 2 {
			t.Errorf("version %d was sorted in %d runs", i+1, runs)
		}
		if err := mem.Add(doc); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v <= len(texts); v++ {
		var got, want bytes.Buffer
		if err := ext.WriteVersion(v, &got); err != nil {
			t.Fatal(err)
		}
		if err := mem.WriteVersion(v, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("version %d differs from the in-memory engine's", v)
		}
	}

	for _, c := range []struct{ name, spec, valid, invalid string }{
		{"deep target", "(/, (db, {}))\n(/db, (a, {n}))\n(/db, (a/b, {k}))",
			`<db><a><n>1</n><b><k>x</k></b></a><a><n>2</n><b><k>y</k></b></a></db>`,
			`<db><a><n>1</n><b><k>x</k></b></a><a><n>2</n><b><k>x</k></b></a></db>`},
		{"wildcard target", "(/, (db, {}))\n(/db, (_, {n}))",
			`<db><a><n>1</n></a><b><n>2</n></b></db>`,
			`<db><a><n>1</n></a><b><n>1</n></b></db>`},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec, err := ParseKeySpec(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			ext, err := OpenStore(t.TempDir(), spec, WithMemoryBudget(4))
			if err != nil {
				t.Fatal(err)
			}
			defer ext.Close()
			if err := ext.AddReader(strings.NewReader(c.valid)); err != nil || ext.SortRuns() != 0 {
				t.Fatalf("valid document: %v, %d runs; want it read whole", err, ext.SortRuns())
			}
			var want, got *KeyViolationError
			if !errors.As(NewStore(spec).AddReader(strings.NewReader(c.invalid)), &want) {
				t.Fatal("MemStore takes the invalid document")
			}
			if err := ext.AddReader(strings.NewReader(c.invalid)); !errors.As(err, &got) || !reflect.DeepEqual(got.Violations, want.Violations) {
				t.Errorf("invalid document: %v, want %v", err, want)
			}
		})
	}
}

// TestRootContextKeyRefused: a key whose context is the document root and
// whose target lies below the root element is checked like any other, so
// twins under it are refused by every way into every store with one
// *KeyViolationError, at the document root.
func TestRootContextKeyRefused(t *testing.T) {
	spec, err := ParseKeySpec("(/, (db, {}))\n(/, (db/a, {n}))")
	if err != nil {
		t.Fatal(err)
	}
	const twins = `<db><a><n>1</n></a><a><n>1</n></a></db>`
	want := []*keys.ValidationError{{Path: "/", Key: "(/, (db/a, {n}))", Msg: "duplicate key value among targets"}}
	doc, err := ParseXMLString(twins)
	if err != nil {
		t.Fatal(err)
	}
	adds := map[string]func(Store) error{
		"tree":   func(s Store) error { return s.Add(doc) },
		"reader": func(s Store) error { return s.AddReader(strings.NewReader(twins)) },
	}
	for _, opts := range [][]Option{nil, {WithMemoryBudget(4)}, {WithIndexes(false)}} {
		for how, add := range adds {
			for _, ext := range []bool{false, true} {
				var s Store = NewStore(spec, opts...)
				if ext {
					if s, err = OpenStore(t.TempDir(), spec, opts...); err != nil {
						t.Fatal(err)
					}
				}
				var got *KeyViolationError
				if err := add(s); !errors.As(err, &got) || !reflect.DeepEqual(got.Violations, want) {
					t.Errorf("ext %v, %d options, %s: %v; want %v", ext, len(opts), how, err, want)
				}
				if n := s.Versions(); n != 0 {
					t.Errorf("ext %v, %d options, %s: %d versions archived", ext, len(opts), how, n)
				}
				s.Close()
			}
		}
	}
}
