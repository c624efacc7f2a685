package core

import (
	"strings"
	"testing"

	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// TestArchiveXMLShape checks the serialized archive against the shape of
// Figure 5: one outer <T> with the root timestamp, inner <T> wrappers only
// where timestamps differ from the parent.
func TestArchiveXMLShape(t *testing.T) {
	a := buildCompany(t, Options{})
	x := a.ToXMLTree()
	if x.Name != "T" {
		t.Fatalf("outer element = %s, want T", x.Name)
	}
	if tv, _ := x.Attr("t"); tv != "1-4" {
		t.Fatalf("outer t = %q, want 1-4", tv)
	}
	root := x.Child("root")
	if root == nil {
		t.Fatal("missing <root>")
	}
	db := root.Child("db")
	if db == nil {
		t.Fatal("missing <db> (it inherits, so no T wrapper)")
	}
	// The marketing dept exists only at version 3: wrapped in <T t="3">.
	var foundMarketing bool
	for _, c := range db.Children {
		if c.Name != "T" {
			continue
		}
		if tv, _ := c.Attr("t"); tv == "3" {
			if d := c.Child("dept"); d != nil && d.ChildText("name") == "marketing" {
				foundMarketing = true
			}
		}
	}
	if !foundMarketing {
		t.Errorf("marketing dept not wrapped in <T t=\"3\">:\n%s", a.XML())
	}
	// John's salary alternates: sal contains <T t="3">90K</T><T t="4">95K</T>.
	xml := a.XML()
	if !strings.Contains(xml, `<T t="3">90K</T>`) || !strings.Contains(xml, `<T t="4">95K</T>`) {
		t.Errorf("salary alternatives not serialized as timestamp groups:\n%s", xml)
	}
}

// TestArchiveXMLRoundTrip: serialize, reparse, reload — all histories and
// versions must survive, in both plain and compaction modes.
func TestArchiveXMLRoundTrip(t *testing.T) {
	for _, opts := range []Options{{}, {FurtherCompaction: true}} {
		a := buildCompany(t, opts)
		xml := a.XML()
		doc, err := xmltree.ParseString(xml)
		if err != nil {
			t.Fatalf("opts=%+v reparse: %v\n%s", opts, err, xml)
		}
		b, err := Load(doc, keys.MustParseSpec(companySpec), opts)
		if err != nil {
			t.Fatalf("opts=%+v load: %v", opts, err)
		}
		if b.Versions() != a.Versions() {
			t.Fatalf("opts=%+v versions %d -> %d", opts, a.Versions(), b.Versions())
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("opts=%+v reloaded archive: %v", opts, err)
		}
		for i := 1; i <= a.Versions(); i++ {
			va, err := a.Version(i)
			if err != nil {
				t.Fatal(err)
			}
			vb, err := b.Version(i)
			if err != nil {
				t.Fatalf("opts=%+v reloaded Version(%d): %v", opts, i, err)
			}
			same, err := a.SameVersion(va, vb)
			if err != nil {
				t.Fatal(err)
			}
			if !same {
				t.Errorf("opts=%+v version %d differs after round trip", opts, i)
			}
		}
		for _, sel := range []string{
			"/db/dept[name=finance]/emp[fn=Jane,ln=Smith]",
			"/db/dept[name=marketing]",
		} {
			ha, _ := a.History(sel)
			hb, err := b.History(sel)
			if err != nil {
				t.Fatalf("opts=%+v History(%s) after reload: %v", opts, sel, err)
			}
			if !ha.Equal(hb) {
				t.Errorf("opts=%+v History(%s): %q -> %q", opts, sel, ha, hb)
			}
		}
	}
}

// TestRoundTripThenExtend: an archive reloaded from XML accepts further
// versions; merging continues where it left off.
func TestRoundTripThenExtend(t *testing.T) {
	a := buildCompany(t, Options{})
	doc, err := xmltree.ParseString(a.XML())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(doc, keys.MustParseSpec(companySpec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	v5 := `<db><dept><name>finance</name>
	  <emp><fn>Jane</fn><ln>Smith</ln><sal>99K</sal><tel>123-6789</tel></emp>
	</dept></db>`
	if err := b.Add(xmltree.MustParseString(v5)); err != nil {
		t.Fatal(err)
	}
	h, err := b.History("/db/dept[name=finance]/emp[fn=Jane,ln=Smith]")
	if err != nil {
		t.Fatal(err)
	}
	if h.String() != "2,4-5" {
		t.Errorf("Jane after extension = %q, want 2,4-5", h)
	}
	// John terminates at 4.
	h, err = b.History("/db/dept[name=finance]/emp[fn=John,ln=Doe]")
	if err != nil {
		t.Fatal(err)
	}
	if h.String() != "3-4" {
		t.Errorf("John after extension = %q, want 3-4", h)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadErrors exercises malformed archive documents.
func TestLoadErrors(t *testing.T) {
	spec := keys.MustParseSpec(companySpec)
	for _, src := range []string{
		`<db/>`,                            // not a T element
		`<T><root><db/></root></T>`,        // missing t attribute
		`<T t="bogus"><root/></T>`,         // bad timestamp
		`<T t="1"><notroot/></T>`,          // missing root
		`<T t="1"><root><zzz/></root></T>`, // unkeyed element
	} {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatalf("setup parse %q: %v", src, err)
		}
		if _, err := Load(doc, spec, Options{}); err == nil {
			t.Errorf("Load(%q): expected error", src)
		}
	}
}

// TestAttrItemSerialization: a frontier node whose varying content
// includes attributes survives the XML round trip via <_attr> items.
func TestAttrItemSerialization(t *testing.T) {
	spec := keys.MustParseSpec("(/, (db, {}))\n(/db, (ref, {}))")
	a := New(spec, Options{})
	v1 := xmltree.MustParseString(`<db><ref person="p1">note</ref></db>`)
	v2 := xmltree.MustParseString(`<db><ref person="p2">note</ref></db>`)
	if err := a.Add(v1); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(v2); err != nil {
		t.Fatal(err)
	}
	xml := a.XML()
	if !strings.Contains(xml, "_attr") {
		t.Fatalf("attribute alternative not serialized:\n%s", xml)
	}
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(doc, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"p1", "p2"} {
		v, err := b.Version(i + 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := v.Child("ref").Attr("person"); got != want {
			t.Errorf("version %d person = %q, want %q", i+1, got, want)
		}
	}
}

// TestWeaveSharedAttrAfterGroup: in a weave, an attribute every version
// shares can sit in an untimed group after a timestamped one. It is still
// written in its element's start tag, where the tree form has it.
func TestWeaveSharedAttrAfterGroup(t *testing.T) {
	spec := keys.MustParseSpec("(/, (db, {}))\n(/db, (ref, {}))")
	a := New(spec, Options{FurtherCompaction: true})
	for _, v := range []string{`<db><ref a="0" b="1">note</ref></db>`, `<db><ref b="1">note</ref></db>`} {
		if err := a.Add(xmltree.MustParseString(v)); err != nil {
			t.Fatal(err)
		}
	}
	var compact strings.Builder
	if err := a.WriteXML(&compact, false); err != nil {
		t.Fatal(err)
	}
	const want = `<T t="1-2"><root><db><ref b="1"><T t="1"><_attr n="a">0</_attr></T>note</ref></db></root></T>`
	if compact.String() != want || a.ToXMLTree().XML() != want {
		t.Errorf("archive form\n%s\ntree form\n%s\nwant\n%s", compact.String(), a.ToXMLTree().XML(), want)
	}
}
