package extmem

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/faulttest"
	"xarch/internal/fsio"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// A version is sorted in the document slab in one piece — a tree (Add), or
// XML that fits the budget — or, streamed, in pieces cut between children
// of the root, each sorted into a run and the runs merged. Both shapes
// must be one sort in effect: the same sorted token stream, and after the
// merge the same bytes in every file of the archive directory.

// edgeSpec exercises what the generators' specifications do not: a
// wildcard context, a key path that ends at an attribute, a whole-value
// ({\e}) key and a prefixed element name.
const edgeSpec = `
(/, (db, {}))
(/db, (north, {}))
(/db, (south, {}))
(/db/_, (item, {id}))
(/db/_/item, (note, {\e}))
(/db/_/item, (body, {}))
(/db/_/item, (x:meta, {}))
`

// edgeDocs are hand-built trees a parser would never produce as they
// stand, plus values the serializer must escape.
func edgeDocs() []*xmltree.Node {
	text, elem, attr := xmltree.TextNode, xmltree.Elem, xmltree.AttrNode
	item := func(id string, children ...*xmltree.Node) *xmltree.Node {
		return elem("item", append([]*xmltree.Node{attr("id", id)}, children...)...)
	}
	v1 := elem("db",
		elem("north",
			item("a\"b<c&d>e",
				elem("note", text("whole "), text("value"), text(" key")), // coalesces inside a key value
				elem("note", text("second")),
				elem("body",
					attr("z", "tab\there"), attr("a", "line\nbreak"), // unsorted attributes
					attr("xmlns:y", "urn:y"), // a namespace declaration is not data
					text("adjacent "), text("text "), text("nodes"),
					elem("i", text(" ")),   // whitespace-only text below the frontier
					text("  "), text("\t"), // a whitespace-only run
					elem("b", attr("q", "'single' \"double\""), text("a<b&c>d")),
					text("tail"), text(""),
				),
				elem("x:meta", elem("x:deep", attr("x:at", "v"), text("prefixed"))),
			),
			item("2"),
		),
		elem("south", item("2", elem("note", elem("nested", attr("k", "v"), text("x")), text(" y")))),
	)
	v2 := v1.Clone()
	north := v2.Child("north")
	north.Children = north.Children[:1] // item 2 leaves north
	north.Children[0].Child("body").Children[0].Data = "changed "
	v2.Child("south").Append(item("3", elem("body", text("new"))))
	return []*xmltree.Node{v1, v2, v1.Clone()}
}

// edgeTexts are versions under edgeSpec as XML text, for what only text can
// hold: a declaration and a doctype, a root in a declared namespace, CDATA
// and a comment inside one text run, references in attribute values, both
// quote characters, \r\n line ends and white space between elements. The
// slab side tokenizes them (what AddReader does when validation is on), the
// stream side reads them as they stand.
func edgeTexts() []string {
	v1 := `<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE db [<!ELEMENT db ANY> <!-- > -->]>
<d:db xmlns:d="http://example.com/db">
  <north>
    <item id="a&quot;b&lt;c&amp;d&#x3e;e">
      <note>whole <![CDATA[<value> & ]]>key</note>
      <body z="tab&#9;here" a='line&#10;break&#13;'>text<!-- split -->run<i> </i>  <b q="'s' &quot;d&quot;">a&lt;b</b>tail&#13;
</body>
      <x:meta><x:deep x:at="v">prefixed</x:deep></x:meta>
    </item>
    <item id="2"/>
  </north>

  <south><item id='2'><note><nested k="v">x</nested> y</note></item>` + "\r\n\t" + `</south>
</d:db>
`
	v2 := strings.Replace(strings.Replace(v1, "<item id=\"2\"/>", "", 1), "text<!-- split -->run", "<![CDATA[changed]]>", 1)
	return []string{v1, v2, strings.ReplaceAll(v1, "\n", "\r\n")}
}

// sortedStream sorts one source and returns the sorted version encoded by
// encodeTokens, with the number of its tokens: as the merge reads it, from
// memory or from the run merge.
func sortedStream(t *testing.T, ar *Archiver, src Source) ([]byte, int) {
	t.Helper()
	sorted, scratch, err := ar.prepareSorted(src)
	defer removePaths(ar.fs, scratch)
	if err != nil {
		t.Fatalf("prepareSorted: %v", err)
	}
	if src.Doc != nil && sorted.runs != nil {
		t.Fatal("a parsed document was sorted in runs")
	}
	toks, err := sortedTokens(sorted)
	if err != nil {
		t.Fatalf("reading the sorted version: %v", err)
	}
	return encodeTokens(t, toks), len(toks)
}

// sortedTokens reads a sorted version to its end, the tokens copied out,
// and releases it.
func sortedTokens(sorted sortedVersion) ([]token, error) {
	defer sorted.release()
	d := sorted.reader()
	var toks []token
	for t, ok := d.take(); ok; t, ok = d.take() {
		toks = append(toks, t)
	}
	return toks, d.err
}

// encodeTokens renders tokens in the segment encoding, the dictionary
// section and then the payload, and no tokens as nothing. Ids are assigned
// in arrival order, equal key tuples sharing one, so two token sequences
// are equal exactly when their renderings are.
func encodeTokens(tb testing.TB, toks []token) []byte {
	tb.Helper()
	if len(toks) == 0 {
		return nil
	}
	var enc segEncoder
	enc.encode(capture(toks))
	return slices.Concat(enc.dict.b.Bytes(), enc.pay)
}

// capture hands toks to a fresh capture, as the merge hands the segment
// writer its tokens.
func capture(toks []token) *captureWriter {
	c := &captureWriter{}
	for _, t := range toks {
		c.writeToken(t)
	}
	return c
}

// sortDoc sorts doc in memory, as an add of it would.
func sortDoc(tb testing.TB, spec *keys.Spec, dict *dictionary, doc *xmltree.Node) []token {
	tb.Helper()
	ar := &Archiver{spec: spec, dict: dict}
	sorted, _, err := ar.prepareSorted(Source{Doc: doc})
	if err != nil {
		tb.Fatal(err)
	}
	return sorted.toks
}

// manyItems returns n items under edgeSpec, ids from first on.
func manyItems(first, n int) []*xmltree.Node {
	items := make([]*xmltree.Node, n)
	for i := range items {
		items[i] = xmltree.Elem("item", xmltree.AttrNode("id", fmt.Sprint(first+i)),
			xmltree.Elem("body", xmltree.TextNode(fmt.Sprintf("body of %d", first+i))))
	}
	return items
}

func TestTreeSourceMatchesStream(t *testing.T) {
	omim := datagen.NewOMIM(datagen.OMIMConfig{Seed: 61, Records: 30, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.1})
	sp := datagen.NewSwissProt(datagen.SwissProtConfig{Seed: 62, Records: 12, DeleteFrac: 0.1, InsertFrac: 0.2, ModifyFrac: 0.1})
	xm := datagen.NewXMark(datagen.XMarkConfig{Seed: 63, Items: 25, People: 15, Categories: 8, OpenAucts: 10, ClosedAucts: 6})
	xdoc := xm.Document()
	// mixed: over five segments, v2 edits one in the middle and v3 the
	// first and the last, so every add links some segments and re-aims the
	// version reader — within the child the run merge handed it, on the
	// streamed side — for the others.
	mixed := []*xmltree.Node{reuseBase()}
	for _, ids := range [][]int{{200}, {10, 400}} {
		db := mixed[len(mixed)-1].Clone()
		for _, id := range ids {
			db.Children[reuseFind(db, id)].Child("note").Children[0].Data = "edited"
		}
		mixed = append(mixed, db)
	}
	// short: v2 drops the note, the last keyed child in sorted order, of
	// an item in the middle of a segment. The stored item has one subtree
	// more than the version's, so the comparison meets the version item's
	// close where the stored note opens, and the merge must go back to the
	// start of an item the run merge has handed over whole.
	short := []*xmltree.Node{reuseBase(), reuseBase()}
	item := short[1].Children[reuseFind(short[1], 220)]
	item.Children = item.Children[:len(item.Children)-1]
	// attrs: the root carries attributes, which every piece repeats and the
	// sorted version holds once. (Versions may not change them: the root's
	// attributes are keyed.)
	attrSpec := keys.MustParseSpec(datagen.OMIMSpec().String() + "(/ROOT, (release, {}))\n(/ROOT, (db, {}))\n")
	var attrs []*xmltree.Node
	for _, doc := range []*xmltree.Node{omim.Next(), omim.Next()} {
		doc.SetAttr("release", "7")
		doc.SetAttr("db", "omim")
		attrs = append(attrs, doc)
	}
	// lib: a root keyed by its content, whose key is complete only at its
	// close, where the root's name comes last.
	seq := func(lo, hi int) (s []int) {
		for i := lo; i < hi; i++ {
			s = append(s, i)
		}
		return s
	}
	lib := func(books ...int) *xmltree.Node {
		db := xmltree.Elem("lib")
		for _, b := range books {
			db.Append(xmltree.Elem("book", xmltree.ElemText("isbn", fmt.Sprint(b)), xmltree.ElemText("title", fmt.Sprint("title ", b))))
		}
		db.Append(xmltree.ElemText("name", "main"))
		return db
	}
	// frontier: a root at the frontier, whose content is one value.
	frontier := func(n int) *xmltree.Node {
		db := xmltree.Elem("db")
		for i := range n {
			db.Append(xmltree.Elem("rec", xmltree.AttrNode("n", fmt.Sprint(i)), xmltree.ElemText("v", fmt.Sprint("value ", i))))
		}
		return db
	}
	// big: one child of the root, north, larger than the budget.
	big := func(south int) *xmltree.Node {
		return xmltree.Elem("db", xmltree.Elem("north", manyItems(0, 100)...), xmltree.Elem("south", manyItems(south, 3)...))
	}
	cases := []struct {
		name      string
		spec      *keys.Spec
		docs      []*xmltree.Node
		texts     []string // the versions as XML text; docs is parsed from it
		segTarget int
		mixed     bool // every add after the first both links and rewrites segments
		// The streamed side sorts every version in one piece; otherwise it
		// sorts every version in runs.
		onePiece bool
	}{
		{name: "omim", spec: datagen.OMIMSpec(), docs: []*xmltree.Node{omim.Next(), omim.Next(), omim.Next()}},
		{name: "swissprot", spec: datagen.SwissProtSpec(), docs: []*xmltree.Node{sp.Next(), sp.Next(), sp.Next()}},
		{name: "xmark", spec: datagen.XMarkSpec(), docs: []*xmltree.Node{xdoc, xm.RandomChanges(xdoc, 0.1), xm.KeyModChanges(xdoc, 0.1)}},
		{name: "edge", spec: keys.MustParseSpec(edgeSpec), docs: edgeDocs()},
		{name: "text", spec: keys.MustParseSpec(edgeSpec), texts: edgeTexts()},
		{name: "mixed", spec: keys.MustParseSpec(reuseSpec), docs: mixed, segTarget: 512, mixed: true},
		{name: "dirty-child-ends-early", spec: keys.MustParseSpec(reuseSpec), docs: short, segTarget: 512, mixed: true},
		// Two key paths whose patterns differ only in '/' against '_' are
		// two patterns: their keys must not be mixed.
		{name: "similar-patterns", spec: keys.MustParseSpec("(/, (db, {}))\n(/db, (a_b, {id}))\n(/db, (a, {}))\n(/db/a, (b, {id}))"),
			docs: []*xmltree.Node{xmltree.MustParseString(`<db><a><b><id>1</id></b><b><id>2</id></b></a><a_b><id>x</id></a_b><a_b><id>y</id></a_b></db>`)}, onePiece: true},
		{name: "root-attrs", spec: attrSpec, docs: attrs},
		{name: "root-content-key", spec: keys.MustParseSpec("(/, (lib, {name}))\n(/lib, (name, {}))\n(/lib, (book, {isbn}))\n(/lib/book, (title, {}))"),
			docs: []*xmltree.Node{lib(1, 2, 3), lib(seq(0, 100)...), lib(seq(50, 150)...)}, onePiece: true},
		{name: "frontier-root", spec: keys.MustParseSpec("(/, (db, {}))"), docs: []*xmltree.Node{frontier(100), frontier(120)}, onePiece: true},
		{name: "child-over-budget", spec: keys.MustParseSpec(edgeSpec), docs: []*xmltree.Node{big(1000), big(2000)}},
		{name: "root-only", spec: keys.MustParseSpec(edgeSpec), docs: []*xmltree.Node{xmltree.MustParseString("<db/>")}, onePiece: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A small budget and segment target force several runs and
			// several segments on the streamed side, so pieces, run merge
			// and segment splits are all held against the one-piece sort.
			// 16 nodes cuts the edge documents between north and south, and
			// the generators' versions into runs of one record or a few.
			cfg := Config{Budget: 16, SegmentTarget: 2048}
			if tc.segTarget != 0 {
				cfg.SegmentTarget = tc.segTarget
			}
			treeDir, streamDir := t.TempDir(), t.TempDir()
			// The tree side reads a text at the default budget: one piece.
			tree, err := Open(treeDir, tc.spec, Config{SegmentTarget: cfg.SegmentTarget})
			if err != nil {
				t.Fatal(err)
			}
			stream, err := Open(streamDir, tc.spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, text := range tc.texts {
				tc.docs = append(tc.docs, xmltree.MustParseString(text))
			}
			for v, doc := range tc.docs {
				compact, indented := doc.XML(), doc.IndentedXML()
				if tc.texts != nil {
					compact, indented = tc.texts[v], tc.texts[v]
				}
				src := Source{Doc: doc}
				if tc.texts != nil {
					src = Source{Reader: strings.NewReader(tc.texts[v])}
				}
				fromTree, n := sortedStream(t, tree, src)
				fromStream, _ := sortedStream(t, stream, Source{Reader: strings.NewReader(compact)})
				if !bytes.Equal(fromTree, fromStream) {
					t.Fatalf("v%d: sorted token streams differ (%d vs %d bytes)", v+1, len(fromTree), len(fromStream))
				}
				if n == 0 {
					t.Fatalf("v%d: empty sorted stream", v+1)
				}
				if tc.texts != nil {
					src.Reader = strings.NewReader(tc.texts[v])
				}
				if items, err := tree.AddVersionBatch([]Source{src}); err != nil || items[0].Err != nil {
					t.Fatalf("v%d: tree add: %v %v", v+1, err, items)
				}
				if err := addVersion(stream, strings.NewReader(indented)); err != nil {
					t.Fatalf("v%d: stream add: %v", v+1, err)
				}
				t.Logf("v%d runs=%d", v+1, stream.SortRuns())
				if runs := stream.SortRuns(); (runs == 0) != tc.onePiece {
					t.Errorf("v%d: the streamed add sorted in %d runs", v+1, runs)
				}
				if tree.Last().Merge != stream.Last().Merge {
					t.Errorf("v%d: tree-sourced merge %+v, streamed %+v", v+1, tree.Last().Merge, stream.Last().Merge)
				}
				if st := stream.Last().Merge; tc.mixed && v > 0 && (st.SegmentsReused == 0 || st.SegmentsRewritten == 0) {
					t.Errorf("v%d: merge %+v neither links nor rewrites", v+1, st)
				}
				got, want := faulttest.Files(t, treeDir), faulttest.Files(t, streamDir)
				if len(got) != len(want) {
					t.Fatalf("v%d: directories hold %d vs %d files", v+1, len(got), len(want))
				}
				for name, data := range want {
					if !bytes.Equal(got[name], data) {
						t.Errorf("v%d: %s differs between tree-sourced and streamed archive", v+1, name)
					}
				}
			}
		})
	}
}

// TestTreeSourceNeedsNoScratchFiles pins what each sort leaves in the
// directory: an add from a parsed document, whatever the budget, or from
// XML that fits one piece creates no scratch file at all — the sorted
// version stays in memory — while XML that takes more pieces creates a
// run per piece, and nothing else: the merge reads the runs. XML refused
// at its second piece has written the first piece's run, and removed it.
func TestTreeSourceNeedsNoScratchFiles(t *testing.T) {
	spec := keys.MustParseSpec(edgeSpec)
	doc := xmltree.MustParseString(`<db><north><item id="1"><body>x</body></item><item id="2"/></north><south><item id="3"/></south></db>`)
	created := func(src Source, budget int) (scratch []string, err error) {
		ffs := fsio.NewFaultFS(nil)
		dir := t.TempDir()
		ar, err := Open(dir, spec, Config{FS: ffs, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		ffs.ResetTrace()
		items, err := ar.AddVersionBatch([]Source{src})
		if err != nil {
			t.Fatalf("add: %v", err)
		}
		for _, op := range ffs.Ops() {
			if base := filepath.Base(op.Path); strings.HasSuffix(op.Point, ".create") && strings.HasPrefix(base, "tmp-") {
				scratch = append(scratch, base)
			}
		}
		if tr := faulttest.Transient(t, dir); len(tr) != 0 {
			t.Errorf("scratch files left behind: %v", tr)
		}
		slices.Sort(scratch)
		return scratch, items[0].Err
	}
	none := func(what string, src Source, budget int) {
		t.Helper()
		if got, err := created(src, budget); err != nil || len(got) != 0 {
			t.Errorf("%s created scratch files %v (%v), want none", what, got, err)
		}
	}
	none("tree-sourced add", Source{Doc: doc}, 1)
	none("empty version", Source{}, 1)
	none("streamed add that fits one piece", Source{Reader: strings.NewReader(doc.XML())}, 0)
	want := []string{"tmp-run0000.tok", "tmp-run0001.tok"}
	if got, err := created(Source{Reader: strings.NewReader(doc.XML())}, 1); err != nil || !slices.Equal(got, want) {
		t.Errorf("streamed add in two pieces created scratch files\n%v (%v), want\n%v", got, err, want)
	}
	twins := strings.Replace(doc.XML(), `<item id="3"/>`, `<item id="3"/><item id="3"/>`, 1)
	var ve *keys.ViolationsError
	if got, err := created(Source{Reader: strings.NewReader(twins)}, 1); !errors.As(err, &ve) || !slices.Equal(got, want[:1]) {
		t.Errorf("streamed add refused at its second piece created scratch files\n%v (%v), want\n%v", got, err, want[:1])
	}
}

// TestDuplicateSiblingKeysRejected: two siblings with one key are a key
// violation, and the version is refused with one report — failing that
// document alone — wherever the twins fall: in one piece the check finds
// them; in different runs, however far apart, they meet at the heads of
// two runs in the run merge, which must not fuse them into one node.
func TestDuplicateSiblingKeysRejected(t *testing.T) {
	spec := keys.MustParseSpec(`
(/, (db, {}))
(/db, (item, {id}))
(/db/item, (id, {}))
(/db/item, (body, {}))
`)
	const good = `<db><item><id>2</id><body>ok</body></item></db>`
	// dup holds item 1 twice, fillers items apart.
	dup := func(fillers int) string {
		var b strings.Builder
		b.WriteString(`<db><item><id>1</id><body>first</body></item>`)
		for i := 0; i < fillers; i++ {
			fmt.Fprintf(&b, `<item><id>f%02d</id><body>filler</body></item>`, i)
		}
		b.WriteString(`<item><id>1</id><body>second</body></item></db>`)
		return b.String()
	}
	tree := func(s string) Source { return Source{Doc: xmltree.MustParseString(s)} }
	stream := func(s string) Source { return Source{Reader: strings.NewReader(s)} }
	cases := []struct {
		name    string
		src     func(string) Source
		budget  int // 0: the default, one piece
		fillers int
		// runs the sort forms of dup with its second twin renamed: the first
		// twin is in the first run and the second in the last.
		runs int
	}{
		{name: "tree", src: tree},
		{name: "stream", src: stream},
		{name: "stream-adjacent-runs", src: stream, budget: 16, fillers: 2, runs: 2},
		{name: "stream-distant-runs", src: stream, budget: 16, fillers: 38, runs: 14},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ar, err := Open(t.TempDir(), spec, Config{Budget: tc.budget})
			if err != nil {
				t.Fatal(err)
			}
			doc := dup(tc.fillers)
			items, err := ar.AddVersionBatch([]Source{tc.src(good), tc.src(doc), tc.src(good)})
			if err != nil {
				t.Fatalf("batch failed as a whole: %v", err)
			}
			if items[0].Err != nil || items[0].Version != 1 || items[2].Err != nil || items[2].Version != 2 {
				t.Errorf("valid documents of the batch: %+v", items)
			}
			want := []*keys.ValidationError{{Path: "/db", Key: "(/db, (item, {id}))", Msg: "duplicate key value among targets"}}
			var ve *keys.ViolationsError
			if err := items[1].Err; !errors.As(err, &ve) || !reflect.DeepEqual(ve.Violations, want) {
				t.Errorf("duplicate sibling keys: %v, want the violation %v", err, want[0])
			}
			if tr := faulttest.Transient(t, ar.dir); len(tr) != 0 {
				t.Errorf("scratch files left behind: %v", tr)
			}
			if tc.src(good).Reader != nil {
				// Where the twins fell: the document with its second twin renamed.
				renamed := strings.Replace(doc, `<id>1</id><body>second`, `<id>z</id><body>second`, 1)
				if err := addVersion(ar, strings.NewReader(renamed)); err != nil {
					t.Fatal(err)
				}
				if ar.SortRuns() != tc.runs {
					t.Errorf("the document with its second twin renamed sorts in %d runs, want %d", ar.SortRuns(), tc.runs)
				}
			}
		})
	}
}
