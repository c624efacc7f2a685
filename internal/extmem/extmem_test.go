package extmem

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// addVersion archives the XML r holds (a nil r: the empty version) as the
// next version, streamed through the external sort.
func addVersion(ar *Archiver, r io.Reader) error {
	items, err := ar.AddVersionBatch([]Source{{Reader: r}})
	if err != nil {
		return err
	}
	return items[0].Err
}

// addAll archives the version sequence with the external archiver.
func addAll(t *testing.T, ar *Archiver, docs []*xmltree.Node) {
	t.Helper()
	for i, d := range docs {
		var err error
		if d == nil {
			err = addVersion(ar, nil)
		} else {
			err = addVersion(ar, strings.NewReader(d.IndentedXML()))
		}
		if err != nil {
			t.Fatalf("external add v%d: %v", i+1, err)
		}
	}
}

// loadExternal reads the external archive back through the in-memory
// loader for semantic comparison.
func loadExternal(t *testing.T, ar *Archiver, spec *keys.Spec) *core.Archive {
	t.Helper()
	var b strings.Builder
	if err := ar.WriteArchiveXML(&b); err != nil {
		t.Fatalf("write archive xml: %v", err)
	}
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatalf("parse external archive: %v\n%s", err, clip(b.String()))
	}
	a, err := core.Load(doc, spec, core.Options{})
	if err != nil {
		t.Fatalf("load external archive: %v\n%s", err, clip(b.String()))
	}
	return a
}

func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "..."
	}
	return s
}

// checkEquivalence verifies the external archive reproduces every version
// identically to an in-memory archive of the same sequence. segTarget
// controls the segment granularity: tiny targets force many segments,
// exercising the split/reuse machinery.
func checkEquivalence(t *testing.T, spec *keys.Spec, docs []*xmltree.Node, budget, segTarget int) {
	t.Helper()
	dir := t.TempDir()
	ar, err := Open(dir, spec, Config{Budget: budget, SegmentTarget: segTarget})
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, ar, docs)
	if ar.Versions() != len(docs) {
		t.Fatalf("external versions = %d, want %d", ar.Versions(), len(docs))
	}

	mem := core.New(spec, core.Options{SkipValidation: true})
	for _, d := range docs {
		var doc *xmltree.Node
		if d != nil {
			doc = d.Clone()
		}
		if err := mem.Add(doc); err != nil {
			t.Fatal(err)
		}
	}

	ext := loadExternal(t, ar, spec)
	if err := ext.CheckInvariants(); err != nil {
		t.Fatalf("external archive invariants: %v", err)
	}
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := 1; i <= len(docs); i++ {
		want, err := mem.Version(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ext.Version(i)
		if err != nil {
			t.Fatalf("external Version(%d): %v", i, err)
		}
		if (want == nil) != (got == nil) {
			t.Fatalf("version %d emptiness differs", i)
		}
		// The streaming query engine must reproduce the materialized view's
		// answer byte for byte: same tree, same streamed serialization.
		sv, err := q.Version(i)
		if err != nil {
			t.Fatalf("streaming Version(%d): %v", i, err)
		}
		if (sv == nil) != (got == nil) {
			t.Fatalf("streaming version %d emptiness differs from view", i)
		}
		var streamed strings.Builder
		if err := q.WriteVersion(i, &streamed, xmltree.WriteOptions{Indent: true}); err != nil {
			t.Fatalf("streaming WriteVersion(%d): %v", i, err)
		}
		if want == nil {
			if streamed.Len() != 0 {
				t.Fatalf("streaming WriteVersion(%d) of empty version wrote %q", i, clip(streamed.String()))
			}
			continue
		}
		if sv.IndentedXML() != got.IndentedXML() {
			t.Fatalf("streaming version %d differs from materialized view (budget %d)", i, budget)
		}
		if streamed.String() != sv.IndentedXML() {
			t.Fatalf("streaming WriteVersion(%d) differs from streaming tree (budget %d)", i, budget)
		}
		same, err := mem.SameVersion(want, got)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Fatalf("version %d differs between external and in-memory archiver (budget %d)", i, budget)
		}
	}
	// Streaming stats must agree with the materialized view exactly,
	// including the serialized archive size.
	qs, err := q.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if vs := ext.Stats(); qs != vs {
		t.Fatalf("streaming stats %+v differ from view stats %+v (budget %d)", qs, vs, budget)
	}
	// The indented archive emitter must match the in-memory serializer
	// byte for byte.
	var indented strings.Builder
	if err := q.WriteArchiveXML(&indented); err != nil {
		t.Fatal(err)
	}
	if indented.String() != ext.XML() {
		t.Fatalf("indented archive XML differs from in-memory serialization (budget %d)", budget)
	}
}

func TestCompanyEquivalence(t *testing.T) {
	docs := datagen.CompanyVersions()
	docs = append(docs, nil) // plus an empty version
	for _, budget := range []int{16, 64, 1 << 20} {
		for _, segTarget := range []int{64, 1 << 20} {
			checkEquivalence(t, datagen.CompanySpec(), docs, budget, segTarget)
		}
	}
}

func TestOMIMEquivalenceTinyBudget(t *testing.T) {
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 41, Records: 25, DeleteFrac: 0.04, InsertFrac: 0.08, ModifyFrac: 0.08})
	var docs []*xmltree.Node
	for i := 0; i < 4; i++ {
		docs = append(docs, g.Next())
	}
	// A 100-token budget forces dozens of runs per version; a 512-byte
	// segment target forces many segments.
	checkEquivalence(t, datagen.OMIMSpec(), docs, 100, 512)
}

func TestXMarkEquivalence(t *testing.T) {
	g := datagen.NewXMark(datagen.XMarkConfig{Seed: 41, Items: 25, People: 15, Categories: 8, OpenAucts: 10, ClosedAucts: 6})
	doc := g.Document()
	docs := []*xmltree.Node{doc, g.RandomChanges(doc, 0.1), g.KeyModChanges(doc, 0.1)}
	checkEquivalence(t, datagen.XMarkSpec(), docs, 200, 2048)
}

func TestRunsFormedUnderBudget(t *testing.T) {
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 43, Records: 40})
	doc := g.Next()
	dir := t.TempDir()
	ar, err := Open(dir, datagen.OMIMSpec(), Config{Budget: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := addVersion(ar, strings.NewReader(doc.IndentedXML())); err != nil {
		t.Fatal(err)
	}
	if ar.Last().Sort.Runs < 2 {
		t.Errorf("tiny budget produced %d runs, expected several", ar.Last().Sort.Runs)
	}
	t.Logf("budget=64: runs=%d", ar.Last().Sort.Runs)

	dir2 := t.TempDir()
	ar2, err := Open(dir2, datagen.OMIMSpec(), Config{Budget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := addVersion(ar2, strings.NewReader(doc.IndentedXML())); err != nil {
		t.Fatal(err)
	}
	if ar2.Last().Sort.Runs != 0 {
		t.Errorf("huge budget produced %d runs, want 0", ar2.Last().Sort.Runs)
	}

	// A batch member that fails leaves the stats of the last version that
	// made it: its runs and its merge.
	merge := ar.Last().Merge
	items, err := ar.AddVersionBatch([]Source{{Reader: strings.NewReader(doc.XML())}, {Reader: strings.NewReader("<db/>")}})
	if err != nil || items[0].Err != nil || items[1].Err == nil {
		t.Fatalf("batch of a good and a bad version: %v %+v", err, items)
	}
	if ar.Last().Sort.Runs < 2 || ar.Last().Merge == merge {
		t.Errorf("after a failed batch member: %d runs, merge %+v", ar.Last().Sort.Runs, ar.Last().Merge)
	}

	// A root the specification does not know fails in its first piece,
	// read no further than the budget needs, not the whole document.
	var wrong strings.Builder
	wrong.WriteString("<notomim>")
	for wrong.Len() < 1<<20 {
		wrong.WriteString(`<Record><Num>1</Num><Title>t</Title></Record>`)
	}
	wrong.WriteString("</notomim>")
	r := &countingReader{r: strings.NewReader(wrong.String())}
	if err := addVersion(ar, r); err == nil {
		t.Error("a document with an unknown root was archived")
	} else if r.n > 64<<10 {
		t.Errorf("an unknown root read %d of %d bytes before failing", r.n, wrong.Len())
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func TestReopenAndExtend(t *testing.T) {
	spec := datagen.CompanySpec()
	docs := datagen.CompanyVersions()
	dir := t.TempDir()
	ar, err := Open(dir, spec, Config{Budget: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, ar, docs[:2])

	// Re-open the directory and continue.
	ar2, err := Open(dir, spec, Config{Budget: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if ar2.Versions() != 2 {
		t.Fatalf("reopened archiver versions = %d", ar2.Versions())
	}
	addAll(t, ar2, docs[2:])

	ext := loadExternal(t, ar2, spec)
	h, err := ext.History("/db/dept[name=finance]/emp[fn=Jane,ln=Smith]")
	if err != nil {
		t.Fatal(err)
	}
	if h.String() != "2,4" {
		t.Errorf("Jane history through reopened external archive = %q, want 2,4", h)
	}
}

func TestDecomposeErrors(t *testing.T) {
	spec := datagen.CompanySpec()
	dir := t.TempDir()
	ar, err := Open(dir, spec, Config{Budget: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`<db><dept></dept></db>`,                             // missing key path (name)
		`<db><dept><name>a</name><name>b</name></dept></db>`, // duplicate key path
		`<db><zzz/></db>`,                                    // unkeyed element
		`<db><dept><name>f</name>stray</dept></db>`,          // text above frontier
	} {
		if err := addVersion(ar, strings.NewReader(src)); err == nil {
			t.Errorf("AddVersion(%q): expected error", src)
		}
		items, err := ar.AddVersionBatch([]Source{{Doc: xmltree.MustParseString(src)}})
		if err != nil || items[0].Err == nil {
			t.Errorf("AddVersionBatch(tree of %q): expected a per-document error, got %v %v", src, err, items)
		}
		if ar.Versions() != 0 {
			t.Fatalf("failed add advanced version counter")
		}
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	d := newDictionary()
	names := []string{"db", "dept", "emp", "weird\nname", "tab\tname"}
	for _, n := range names {
		d.id(n)
	}
	var b strings.Builder
	if err := d.save(&b); err != nil {
		t.Fatal(err)
	}
	back, err := loadDictionary(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		got, err := back.name(i)
		if err != nil || got != n {
			t.Errorf("name(%d) = %q, %v; want %q", i, got, err, n)
		}
	}
	if _, err := back.name(99); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestTokenStreamRoundTrip(t *testing.T) {
	k := &tkey{paths: []string{"fn", "ln"}, canon: []string{"e(fnt(John))", "e(lnt(Doe))"}}
	dict, pay := encodeStreams(t, []token{
		{op: tokOpen, tag: 3, key: k, data: "1-4"}, {op: tokAttr, tag: 5, data: "value"}, {op: tokText, data: "hello"},
		{op: tokTSOpen, data: "2,4"}, {op: tokText, data: "group"}, {op: tokTSClose}, {op: tokClose},
	})
	tr := newTokenReaderDict(bytes.NewReader(pay[0]), dict, 0)
	defer tr.release()
	expect := []struct {
		op   byte
		data string
	}{
		{tokOpen, "1-4"}, {tokAttr, "value"}, {tokText, "hello"},
		{tokTSOpen, "2,4"}, {tokText, "group"}, {tokTSClose, ""}, {tokClose, ""},
	}
	for i, e := range expect {
		tok, ok := tr.take()
		if !ok {
			t.Fatalf("stream ended at %d: %v", i, tr.err)
		}
		if tok.op != e.op || tok.data != e.data {
			t.Fatalf("token %d = {%#x %q}, want {%#x %q}", i, tok.op, tok.data, e.op, e.data)
		}
		if i == 0 {
			if tok.key == nil || len(tok.key.paths) != 2 || tok.key.canon[1] != "e(lnt(Doe))" {
				t.Fatalf("key corrupted: %+v", tok.key)
			}
		}
	}
	if _, ok := tr.take(); ok {
		t.Fatal("extra tokens")
	}
}

func TestCompareKeys(t *testing.T) {
	a := &tkey{paths: []string{"fn"}, canon: []string{"x"}}
	b := &tkey{paths: []string{"fn"}, canon: []string{"y"}}
	if compareKeys(a, b) >= 0 || compareKeys(b, a) <= 0 || compareKeys(a, a) != 0 {
		t.Error("canonical ordering broken")
	}
	empty := &tkey{}
	if compareKeys(empty, a) >= 0 {
		t.Error("fewer key paths should sort first")
	}
	if compareKeys(nil, empty) != 0 {
		t.Error("nil and empty keys should compare equal")
	}
}

func TestSwissProtEquivalence(t *testing.T) {
	g := datagen.NewSwissProt(datagen.SwissProtConfig{Seed: 47, Records: 12, DeleteFrac: 0.1, InsertFrac: 0.2, ModifyFrac: 0.1})
	var docs []*xmltree.Node
	for i := 0; i < 3; i++ {
		docs = append(docs, g.Next())
	}
	checkEquivalence(t, datagen.SwissProtSpec(), docs, 150, 4096)
}

func BenchmarkExternalAdd(b *testing.B) {
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 51, Records: 100})
	doc := g.Next()
	text := doc.IndentedXML()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		ar, err := Open(dir, datagen.OMIMSpec(), Config{Budget: 1 << 16})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := addVersion(ar, strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestArchiveXMLWellFormed(t *testing.T) {
	dir := t.TempDir()
	ar, err := Open(dir, datagen.CompanySpec(), Config{Budget: 32})
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, ar, datagen.CompanyVersions())
	var b strings.Builder
	if err := ar.WriteArchiveXML(&b); err != nil {
		t.Fatal(err)
	}
	xml := b.String()
	if !strings.HasPrefix(xml, "<T t=\"1-4\">\n  <root>\n") {
		t.Errorf("archive XML prefix wrong: %s", clip(xml))
	}
	if _, err := xmltree.ParseString(xml); err != nil {
		t.Fatalf("archive XML not well-formed: %v\n%s", err, clip(xml))
	}
	fmt.Println()
}
