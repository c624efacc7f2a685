package extmem

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/fsio"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// Both engines write through xmltree's one Writer, but feed it from two
// producers: the in-memory engine walks a version tree, the external one
// its tokens, where an element's text child is marked (hasText) before
// the element is replayed. A version must come out byte for byte the same
// from both, with and without indentation, as a stream and as a tree: the
// token walk's hasText marks must agree with the tree walk's.

// layoutDocs hits every layout branch of xmltree's Writer inside frontier
// records (body, note, x:meta under edgeSpec), with enough items that a
// segment of 4 KiB holds several and versions that kill some in the middle
// of a segment, so a file is read as more than one range.
func layoutDocs() []*xmltree.Node {
	parse := xmltree.MustParseString
	bodies := []string{
		`<body><b/>t</body>`,     // a text child after an element: one line
		`<body>t<b/>u</body>`,    // mixed content
		`<body>only text</body>`, // text-only leaf
		`<body/>`,                // empty element
		`<body a="1" z="2"/>`,    // attributes only
		`<body><b q="v"><c r="w"/><c r="x">deep</c></b><d/></body>`, // attributes on nested elements, no text at the top
		`<body a="&lt;&quot;&amp;'">a &amp; b &lt; c &gt; d</body>`, // escaping in both
		`<body><p><q><r/></q></p></body>`,                           // nesting without text: indented all the way
	}
	filler := strings.Repeat("lorem ipsum ", 12)
	v1 := xmltree.Elem("db")
	for _, region := range []string{"north", "south"} {
		r := xmltree.Elem(region)
		for i := 0; i < 48; i++ {
			it := xmltree.Elem("item", xmltree.AttrNode("id", fmt.Sprintf("%s-%03d", region, i)))
			it.Append(xmltree.Elem("note", xmltree.TextNode(fmt.Sprint("n", i))))
			it.Append(parse(bodies[i%len(bodies)]))
			it.Append(xmltree.Elem("x:meta", xmltree.Elem("x:deep", xmltree.AttrNode("x:at", "v"), xmltree.TextNode(filler))))
			r.Append(it)
		}
		v1.Append(r)
	}
	drop := func(doc *xmltree.Node, region string, ids ...int) {
		r := doc.Child(region)
		kept := r.Children[:0:0]
		for i, c := range r.Children {
			dead := false
			for _, id := range ids {
				dead = dead || i == id
			}
			if !dead {
				kept = append(kept, c)
			}
		}
		r.Children = kept
	}
	// v2: items die in the middle of segments; a body changes content and
	// attributes (its record gets two groups), another only its content.
	v2 := v1.Clone()
	b := v2.Child("north").Children[1].Child("body")
	b.Attrs, b.Children = []*xmltree.Node{xmltree.AttrNode("changed", "yes")}, []*xmltree.Node{xmltree.Elem("now"), xmltree.Elem("elements")}
	v2.Child("south").Children[2].Child("body").Children[0].Data = "other text"
	drop(v2, "north", 3, 4, 10, 25, 26, 27, 40)
	drop(v2, "south", 0, 47)
	// v3: a third group for the first body, south gone above the frontier.
	v3 := v2.Clone()
	b = v3.Child("north").Children[1].Child("body")
	b.Attrs, b.Children = nil, []*xmltree.Node{xmltree.TextNode("third")}
	v3.Children = v3.Children[:1]
	// v4 is empty; v5 brings v1 back, so every group but one is dead again.
	return []*xmltree.Node{v1, v2, v3, nil, v1.Clone()}
}

// layoutArchives archives docs in 4 KiB segments and in the in-memory
// engine, and returns a view of the first and the second.
func layoutArchives(t *testing.T, spec *keys.Spec, docs []*xmltree.Node) (*QueryView, *core.Archive) {
	t.Helper()
	ar, err := Open(t.TempDir(), spec, Config{SegmentTarget: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ar.Close() })
	mem := core.New(spec, core.Options{SkipValidation: true})
	for i, d := range docs {
		if d == nil {
			err = addVersion(ar, nil)
		} else {
			err = addTree(d.Clone())(ar)
		}
		if err != nil {
			t.Fatalf("add v%d: %v", i+1, err)
		}
		if d != nil {
			d = d.Clone()
		}
		if err := mem.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q, mem
}

// checkLayouts compares, version by version and for both write option
// sets, the streamed XML, the streamed tree and the in-memory archive's
// tree.
func checkLayouts(t *testing.T, spec *keys.Spec, docs []*xmltree.Node) {
	t.Helper()
	q, mem := layoutArchives(t, spec, docs)
	for v := 1; v <= len(docs); v++ {
		for _, opts := range []xmltree.WriteOptions{{Indent: true}, {}} {
			var want, streamed, tree bytes.Buffer
			if doc, err := mem.Version(v); err != nil {
				t.Fatal(err)
			} else if doc != nil {
				doc.Write(&want, opts)
			}
			if err := q.WriteVersion(v, &streamed, opts); err != nil {
				t.Fatalf("WriteVersion(%d, %+v): %v", v, opts, err)
			}
			if doc, err := q.Version(v); err != nil {
				t.Fatalf("Version(%d): %v", v, err)
			} else if doc != nil {
				doc.Write(&tree, opts)
			}
			if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
				t.Fatalf("v%d %+v: WriteVersion differs from the in-memory archive:\n%s\n--- want\n%s", v, opts, clip(streamed.String()), clip(want.String()))
			}
			if !bytes.Equal(tree.Bytes(), want.Bytes()) {
				t.Fatalf("v%d %+v: Version().Write differs from the in-memory archive:\n%s\n--- want\n%s", v, opts, clip(tree.String()), clip(want.String()))
			}
		}
	}
}

// checkArchiveScans compares the two reads of the whole archive, the export
// and Stats, with the in-memory archive's: they walk the key directory one
// root at a time, a root's start tag and attributes from its record and a
// raw root from its segment.
func checkArchiveScans(t *testing.T, spec *keys.Spec, docs []*xmltree.Node) {
	t.Helper()
	q, mem := layoutArchives(t, spec, docs)
	var got strings.Builder
	if err := q.WriteArchiveXML(&got); err != nil {
		t.Fatal(err)
	}
	if want := mem.XML(); got.String() != want {
		t.Fatalf("WriteArchiveXML differs from the in-memory archive:\n%s\n--- want\n%s", clip(got.String()), clip(want))
	}
	st, err := q.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := mem.Stats(); st != want {
		t.Errorf("Stats %+v, in-memory %+v", st, want)
	}
}

func TestVersionLayoutDifferential(t *testing.T) {
	omim := datagen.NewOMIM(datagen.OMIMConfig{Seed: 71, Records: 40, DeleteFrac: 0.1, InsertFrac: 0.1, ModifyFrac: 0.2})
	sp := datagen.NewSwissProt(datagen.SwissProtConfig{Seed: 72, Records: 12, DeleteFrac: 0.1, InsertFrac: 0.2, ModifyFrac: 0.2})
	xm := datagen.NewXMark(datagen.XMarkConfig{Seed: 73, Items: 25, People: 15, Categories: 8, OpenAucts: 10, ClosedAucts: 6})
	var omimDocs, spDocs, xmDocs []*xmltree.Node
	xdoc := xm.Document()
	for i := 0; i < 5; i++ {
		omimDocs, spDocs, xmDocs = append(omimDocs, omim.Next()), append(spDocs, sp.Next()), append(xmDocs, xdoc)
		xdoc = xm.RandomChanges(xdoc, 0.1)
	}
	// The root is itself a frontier record, stored raw: its attributes and
	// mixed content change, and it is absent from one version.
	rawRoot := []*xmltree.Node{
		xmltree.MustParseString(`<doc k="1">text<e a="b"/><f><g/></f></doc>`),
		xmltree.MustParseString(`<doc k="2"><e/><f>t</f></doc>`),
		nil,
		xmltree.MustParseString(`<doc k="1">text<e a="b"/><f><g/></f></doc>`),
		xmltree.MustParseString(`<doc/>`),
	}
	for _, tc := range []struct {
		name string
		spec *keys.Spec
		docs []*xmltree.Node
	}{
		{"layouts", keys.MustParseSpec(edgeSpec), layoutDocs()},
		{"raw-root", keys.MustParseSpec(`(/, (doc, {}))`), rawRoot},
		{"omim", omim.Spec(), omimDocs},
		{"swissprot", sp.Spec(), spDocs},
		{"xmark", xm.Spec(), xmDocs},
	} {
		t.Run(tc.name+"/plain", func(t *testing.T) { checkLayouts(t, tc.spec, tc.docs) })
		t.Run(tc.name+"/scan", func(t *testing.T) { checkArchiveScans(t, tc.spec, tc.docs) })
	}
}

// countingFS counts the segment files opened through it and the bytes
// read from them.
type countingFS struct {
	fsio.FS
	opens atomic.Int64
	read  atomic.Int64
}

func (c *countingFS) Open(name string) (fsio.File, error) {
	f, err := c.FS.Open(name)
	if err != nil || fsio.ClassifyArchivePath(name) != "segment" {
		return f, err
	}
	c.opens.Add(1)
	return &countingFile{File: f, read: &c.read}, nil
}

// countingFile adds the bytes read through it to read.
type countingFile struct {
	fsio.File
	read *atomic.Int64
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.read.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read.Add(int64(n))
	return n, err
}

// omimFixture archives three versions of a 450-record OMIM database — the
// size of the benchmark's ingest-accrete archive — through fs.
func omimFixture(t testing.TB, fs fsio.FS, segTarget int) *Archiver {
	t.Helper()
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 7, Records: 450, DeleteFrac: 0.02, InsertFrac: 0.05, ModifyFrac: 0.05})
	ar, err := Open(t.TempDir(), g.Spec(), Config{FS: fs, SegmentTarget: segTarget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ar.Close() })
	for i := 0; i < 3; i++ {
		if err := addTree(g.Next())(ar); err != nil {
			t.Fatal(err)
		}
	}
	return ar
}

// liveShape counts what the directory says is alive at v: level-2 entries,
// the runs of adjacent ones, the segments holding any, and their bytes.
func liveShape(t *testing.T, q *QueryView, v int) (entries, ranges, segs int, size int64) {
	t.Helper()
	for _, r := range q.d.roots {
		reff := q.rootEff(r)
		for _, s := range r.segs {
			before, prevLive := entries, false
			for i := range s.entries {
				live := entryEff(&s.entries[i], reff).Contains(v)
				if live {
					entries++
					size += s.entries[i].size
				}
				if live && !prevLive {
					ranges++
				}
				prevLive = live
			}
			if entries > before {
				segs++
			}
		}
	}
	return entries, ranges, segs, size
}

// TestVersionIOBudget pins what a version costs as counts: a segment file
// is opened once however many of its entries are alive and however many
// dead ones lie between them, and only the live entries' bytes are read.
func TestVersionIOBudget(t *testing.T) {
	cfs := &countingFS{FS: fsio.OS}
	ar := omimFixture(t, cfs, 16<<10)
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for v := 1; v <= q.Versions(); v++ {
		if err := q.WriteVersion(v, io.Discard, xmltree.WriteOptions{Indent: true}); err != nil {
			t.Fatal(err) // also loads every segment dictionary, once
		}
		liveEntries, ranges, liveSegs, liveBytes := liveShape(t, q, v)
		opens, read := cfs.opens.Load(), ar.BytesRead()
		if err := q.WriteVersion(v, io.Discard, xmltree.WriteOptions{Indent: true}); err != nil {
			t.Fatal(err)
		}
		opens, read = cfs.opens.Load()-opens, ar.BytesRead()-read
		t.Logf("v%d: %d live entries in %d ranges of %d segments: %d opens, %d bytes", v, liveEntries, ranges, liveSegs, opens, read)
		if opens > int64(liveSegs) {
			t.Errorf("v%d: %d segment files opened for %d live segments (%d live entries)", v, opens, liveSegs, liveEntries)
		}
		if read != liveBytes {
			t.Errorf("v%d: read %d bytes, the live entries hold %d", v, read, liveBytes)
		}
		if v == q.Versions() && ranges <= liveSegs {
			t.Errorf("fixture: v%d reads %d ranges of %d segments; want dead entries between live ones", v, ranges, liveSegs)
		}
	}
}

// TestExportReadsEachSegmentOnce pins what Stats and the archive export
// (Snapshot) cost once the dictionaries are loaded: one open per live
// segment, and exactly the segments' payload bytes.
func TestExportReadsEachSegmentOnce(t *testing.T) {
	cfs := &countingFS{FS: fsio.OS}
	ar := omimFixture(t, cfs, 16<<10)
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var segs, payload int64
	for _, r := range q.d.roots {
		for _, s := range r.segs {
			segs, payload = segs+1, payload+s.payload
		}
	}
	if segs < 4 {
		t.Fatalf("fixture: %d segments, want several", segs)
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Stats", func() error { _, err := q.Stats(); return err }},
		{"Snapshot", func() error { return q.WriteArchiveXML(io.Discard) }},
	} {
		if err := c.run(); err != nil {
			t.Fatal(err) // also loads every segment dictionary, once
		}
		opens, read := cfs.opens.Load(), cfs.read.Load()
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		opens, read = cfs.opens.Load()-opens, cfs.read.Load()-read
		if opens != segs || read != payload {
			t.Errorf("%s: %d opens, %d bytes read; the %d segments hold %d payload bytes", c.name, opens, read, segs, payload)
		}
	}
}

// TestVersionAllocBudget keeps the tree from coming back: a frontier
// record costs its text strings and little else (the tree-building path
// made 155 allocations per record, this one 19).
func TestVersionAllocBudget(t *testing.T) {
	ar := omimFixture(t, nil, 0)
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	records, _, _, _ := liveShape(t, q, 3)
	allocs := testing.AllocsPerRun(10, func() {
		if err := q.WriteVersion(3, io.Discard, xmltree.WriteOptions{Indent: true}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d records, %.0f allocations per WriteVersion, %.1f per record", records, allocs, allocs/float64(records))
	if records < 400 || allocs > 25*float64(records) {
		t.Errorf("%.0f allocations for %d records: over 25 per record", allocs, records)
	}
}

// TestVersionReadFaultIsNotCorruption: a read or an open that fails while a
// version streams is reported as what it is. It used to surface as "entry
// has no open token: corrupt archive" — an EIO telling the operator to run
// fsck -repair.
func TestVersionReadFaultIsNotCorruption(t *testing.T) {
	ffs := fsio.NewFaultFS(nil)
	ar := omimFixture(t, ffs, 16<<10)
	for _, point := range []string{"segment.read", "segment.open"} {
		for _, call := range []string{"WriteVersion", "Version"} {
			failed := 0
			for after := 0; ; after++ {
				// A view of its own and no segment's sections loaded each time,
				// so the fault walks through every read and open of a cold call.
				dropSections(ar)
				q, err := ar.OpenQuery()
				if err != nil {
					t.Fatal(err)
				}
				ffs.SetFault(point, fsio.Fault{After: after, Count: 1})
				if call == "Version" {
					_, err = q.Version(2)
				} else {
					err = q.WriteVersion(2, io.Discard, xmltree.WriteOptions{Indent: true})
				}
				ffs.ClearFaults()
				q.Close()
				if err == nil {
					break // the call makes fewer than after+1 such operations
				}
				failed++
				if !errors.Is(err, fsio.ErrInjected) || errors.Is(err, core.ErrCorruptArchive) {
					t.Fatalf("%s with the %s fault after %d: %v", call, point, after, err)
				}
			}
			if failed < 3 {
				t.Errorf("%s: the %s fault fired in %d positions only", call, point, failed)
			}
		}
	}
}

// TestMalformedFrontierIsCorruption feeds the version path, the archive
// form and both frontier record readers — the merge's fbody and
// subtreeANode — streams no writer produces; each must be refused as a
// corrupt archive, for the reason given, not with a bare error and not by
// guessing what was meant.
func TestMalformedFrontierIsCorruption(t *testing.T) {
	names, spec := newDictionary(), keys.MustParseSpec(edgeSpec)
	streams := hostileStreams(names)
	q := &QueryView{names: names.snapshot(), spec: spec}
	record := spec.Cursor().Child("db").Child("north").Child("item").Child("body")
	readers := []struct {
		name string
		read func(*tokenReader) error
	}{
		{"fbody.read", func(tr *tokenReader) error { return new(fbody).read(tr) }},
		{"subtreeANode", func(tr *tokenReader) error { _, err := q.subtreeANode(tr, "body", nil, record); return err }},
	}
	for _, h := range streams {
		if h.body != nil {
			dict, body := encodeStreams(t, h.body)
			for _, r := range readers {
				tr := newTokenReaderDict(bytes.NewReader(body[0]), dict, 0)
				tr.take() // the record's open
				err := r.read(tr)
				tr.release()
				if !errors.Is(err, core.ErrCorruptArchive) || !strings.Contains(err.Error(), h.want) {
					t.Errorf("%s: %s: %v, want corruption: %s", h.name, r.name, err, h.want)
				}
			}
		}
		dict, item := encodeStreams(t, h.item)
		for v := range 2 { // the archive form, then version 1
			err := drainVersion(item[0], dict, q.names, spec, []string{"db", "north"}, v)
			if v == 0 && h.versionOnly {
				if err != nil {
					t.Errorf("%s: archive form: %v; every group is well formed on its own", h.name, err)
				}
				continue
			}
			if !errors.Is(err, core.ErrCorruptArchive) || !strings.Contains(err.Error(), h.want) {
				t.Errorf("%s: projection of version %d: %v, want corruption: %s", h.name, v, err, h.want)
			}
		}
	}
}

// encodeStreams encodes token sequences, none of them empty, as the
// segment writer would: against one dictionary, which it returns with each
// sequence's payload. The encoder writes whatever it is handed, malformed
// structure included.
func encodeStreams(tb testing.TB, streams ...[]token) (*segDict, [][]byte) {
	tb.Helper()
	var all []token
	var starts []int
	for _, s := range streams {
		starts = append(starts, len(all))
		all = append(all, s...)
	}
	var enc segEncoder
	enc.encode(capture(all))
	dict, err := decodeSegDict(enc.dict.b.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]byte, len(streams))
	for i, start := range starts {
		out[i] = bytes.Clone(enc.pay[enc.tokOffs[start]:enc.tokOffs[start+len(streams[i])]])
	}
	return dict, out
}

type hostileStream struct {
	name, want string
	item       []token // an <item> of /db/north under edgeSpec
	body       []token // its malformed record alone, from the record's open token; nil when the record readers have no quarrel with it
	// versionOnly: only a version's projection refuses it, where two
	// groups that are well formed apart are alive together.
	versionOnly bool
}

// hostileStreams are items whose record <body> — or, for the last, the item
// itself — no writer could have produced, their tag and attribute names
// numbered in names.
func hostileStreams(names *dictionary) []hostileStream {
	open := func(name string) token { return token{op: tokOpen, tag: names.id(name)} }
	attr := func(name, value string) token { return token{op: tokAttr, tag: names.id(name), data: value} }
	text := func(s string) token { return token{op: tokText, data: s} }
	group := func(time string) token { return token{op: tokTSOpen, data: time} }
	end, endGroup := token{op: tokClose}, token{op: tokTSClose}
	var out []hostileStream
	record := func(name, want string, merge bool, content ...token) {
		h := hostileStream{name: name, want: want,
			item: slices.Concat([]token{open("item"), attr("id", "1"), open("body")}, content, []token{end})}
		if merge {
			h.body = slices.Concat([]token{open("body")}, content)
		}
		out = append(out, h)
	}
	record("late attribute", "attribute after content", true, text("content"), attr("a", "late"), end)
	record("nested group", "nested timestamp group", true, group("1"), group("1"), endGroup, endGroup, end)
	record("group left open", "unterminated timestamp group", true, group("1"), text("content"), end)
	record("stray group close", "unbalanced timestamp group", true, endGroup, end)
	record("group inside an element", "nested timestamp group", true, open("b"), group("1"), endGroup, end, end)
	record("two live groups", "attribute after content", false,
		group("1"), text("content"), endGroup, group("1-2"), attr("a", "would be hoisted"), endGroup, end)
	out[len(out)-1].versionOnly = true
	trunc := []token{open("body"), group("1"), text("content")}
	out = append(out, hostileStream{name: "ends in a group", want: "truncated", body: trunc,
		item: slices.Concat([]token{open("item")}, trunc)})
	out = append(out, hostileStream{name: "text above the frontier", want: "above the frontier",
		item: []token{open("item"), text("content"), end}})
	return out
}

// drainVersion drives the version emitter, into both sinks, over a token
// stream that holds sibling subtrees of the element at path up: what a
// segment's payload is to emitRoot. Version 0 is the archive form, counted
// as Stats counts it.
func drainVersion(data []byte, dict *segDict, names []string, spec *keys.Spec, up []string, v int) error {
	cur := spec.Cursor()
	for _, name := range up {
		cur = cur.Child(name)
	}
	bw, done := pooledWriter(io.Discard)
	defer done()
	var errs []error
	for _, sink := range []xmltree.Sink{xmltree.NewWriter(bw, xmltree.WriteOptions{Indent: true}), &xmltree.Builder{}} {
		tr := newTokenReaderDict(bytes.NewReader(data), dict, 0)
		w := &versionWalk{q: &QueryView{names: names, spec: spec}, v: v, sink: sink, tr: tr}
		if v == 0 {
			w.stats = &core.Stats{}
		}
		sink.Open("up", false)
		var err error
		for err == nil {
			t, ok := tr.take()
			if !ok {
				err = tr.err
				break
			}
			if t.op != tokOpen {
				err = corruptf("unexpected token %#x", t.op)
				break
			}
			err = w.emitNode(t, cur)
		}
		tr.release()
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
