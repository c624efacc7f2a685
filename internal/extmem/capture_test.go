package extmem

import (
	"bytes"
	"path/filepath"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// captureCase is one token stream handed to the capture, as the segment
// writer of root would be handed it: marks tile it, one per directory
// entry, and names[i] is the name of entry i (a raw stream has one mark and
// no names).
type captureCase struct {
	name  string
	ar    *Archiver
	root  *rootRecord
	toks  []token
	marks []entryMark
	names []string
}

// TestCaptureRoundTrip holds the capture to its contract on stored OMIM,
// XMark and raw-root segments, a run child, and a stream whose two entries
// carry distinct key pointers to equal tuples, with attributes, groups and
// an empty time: encoded and read back against the dictionary it wrote,
// the capture gives back the tokens it was handed at the offsets encode
// reported, and every posting it derives is the one checkPosting derives
// from the tokens read back.
func TestCaptureRoundTrip(t *testing.T) {
	var cases []captureCase
	omim := datagen.NewOMIM(datagen.OMIMConfig{Seed: 5, Records: 30, DeleteFrac: 0.1, InsertFrac: 0.1, ModifyFrac: 0.3})
	xm := datagen.NewXMark(datagen.XMarkConfig{Seed: 5, Items: 20, People: 20, Categories: 4, OpenAucts: 8, ClosedAucts: 4})
	xdoc := xm.Document()
	var omimDocs, xmDocs []*xmltree.Node
	for range 3 {
		omimDocs, xmDocs = append(omimDocs, omim.Next()), append(xmDocs, xdoc)
		xdoc = xm.RandomChanges(xdoc, 0.2)
	}
	raw := []*xmltree.Node{
		xmltree.MustParseString(`<doc k="1">text<e a="b"/><f><g/></f></doc>`),
		xmltree.MustParseString(`<doc k="2"><e/><f>t</f></doc>`),
	}
	for _, corpus := range []struct {
		name string
		spec *keys.Spec
		docs []*xmltree.Node
	}{
		{"omim", omim.Spec(), omimDocs},
		{"xmark", xm.Spec(), xmDocs},
		{"raw-root", keys.MustParseSpec(`(/, (doc, {}))`), raw},
	} {
		ar := openCaptureArchive(t, corpus.spec)
		for _, d := range corpus.docs {
			if err := addDoc(ar, d); err != nil {
				t.Fatal(err)
			}
		}
		cases = append(cases, storedCases(t, corpus.name, ar)...)
	}

	// A run child: the first child of an OMIM version, written to a run file
	// and read back, its key from the run's dictionary.
	ar := openCaptureArchive(t, omim.Spec())
	toks := sortDoc(t, ar.spec, ar.dict, omim.Next())
	head := 1
	for toks[head].op == tokAttr {
		head++
	}
	path := filepath.Join(t.TempDir(), "run")
	if err := ar.writeRun(path, toks[head:len(toks)-1]); err != nil {
		t.Fatal(err)
	}
	m := &runMerge{ar: ar}
	if err := m.open(path); err != nil {
		t.Fatal(err)
	}
	child, err := m.next()
	if err != nil {
		t.Fatal(err)
	}
	child = append([]token(nil), child...)
	m.close()
	root, _ := ar.dict.name(toks[0].tag)
	cases = append(cases, captureCase{name: "run-child", ar: ar, root: &rootRecord{name: root}, toks: child,
		marks: []entryMark{{0, len(child)}}, names: []string{ar.dict.names[child[0].tag]}})

	// Two entries whose keys are distinct pointers to one tuple, with
	// attributes, content groups and, on the second, an empty time.
	ar = openCaptureArchive(t, keys.MustParseSpec(edgeSpec))
	id := ar.dict.id
	k1 := &tkey{paths: []string{"id"}, canon: []string{"7"}}
	k2 := &tkey{paths: []string{"id"}, canon: []string{"7"}}
	item := func(k *tkey, time string) []token {
		return []token{
			{op: tokOpen, tag: id("item"), key: k, data: time},
			{op: tokAttr, tag: id("id"), data: "7"},
			{op: tokAttr, tag: id("x:meta"), data: "v"},
			{op: tokOpen, tag: id("note"), key: k2, data: "2-3"},
			{op: tokText, data: "n"},
			{op: tokClose},
			{op: tokOpen, tag: id("body")},
			{op: tokTSOpen, data: "1"},
			{op: tokText, data: "a"},
			{op: tokTSClose},
			{op: tokTSOpen, data: "2-3"},
			{op: tokOpen, tag: id("p")},
			{op: tokText, data: "b"},
			{op: tokClose},
			{op: tokTSClose},
			{op: tokText, data: "shared"},
			{op: tokClose},
			{op: tokClose},
		}
	}
	first, second := item(k1, "1-3"), item(k2, "")
	cases = append(cases, captureCase{name: "equal-keys", ar: ar, root: &rootRecord{name: "db"},
		toks:  append(first, second...),
		marks: []entryMark{{0, len(first)}, {len(first), len(first) + len(second)}}, names: []string{"item", "item"}})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkCapture(t, tc) })
	}
	c := capture(cases[len(cases)-1].toks)
	var enc segEncoder
	enc.encode(c)
	if dict, err := decodeSegDict(enc.dict.b.Bytes()); err != nil {
		t.Fatal(err)
	} else if len(dict.keys) != 1 {
		t.Errorf("two pointers to one key tuple: %d dictionary keys, want 1", len(dict.keys))
	}
}

// openCaptureArchive opens an empty archive under spec.
func openCaptureArchive(t *testing.T, spec *keys.Spec) *Archiver {
	t.Helper()
	ar, err := Open(t.TempDir(), spec, Config{Budget: 1 << 20, SegmentTarget: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ar.Close() })
	return ar
}

// storedCases reads every segment of ar's archive back as a capture case.
func storedCases(t *testing.T, name string, ar *Archiver) []captureCase {
	t.Helper()
	var cases []captureCase
	for _, r := range ar.current().d.roots {
		for _, seg := range r.segs {
			tr := ar.readParts([]streamPart{segPart(seg)})
			tc := captureCase{name: name + "/" + seg.file, ar: ar, root: r}
			depth := 0
			for tok, ok := tr.take(); ok; tok, ok = tr.take() {
				if depth == 0 && !r.raw {
					tc.marks = append(tc.marks, entryMark{start: len(tc.toks)})
				}
				tc.toks = append(tc.toks, tok)
				if tok.op == tokOpen {
					depth++
				} else if tok.op == tokClose {
					depth--
				}
				if depth == 0 && !r.raw {
					tc.marks[len(tc.marks)-1].end = len(tc.toks)
				}
			}
			if tr.err != nil {
				t.Fatal(tr.err)
			}
			tr.release()
			if r.raw {
				tc.marks = []entryMark{{0, len(tc.toks)}}
			}
			for _, e := range seg.entries {
				tc.names = append(tc.names, e.name)
			}
			cases = append(cases, tc)
		}
	}
	if len(cases) == 0 {
		t.Fatalf("%s: no segments", name)
	}
	return cases
}

// checkCapture captures tc's tokens, encodes them, reads the payload back
// and holds the tokens, their offsets and the postings to the capture.
func checkCapture(t *testing.T, tc captureCase) {
	c := capture(tc.toks)
	var enc segEncoder
	enc.encode(c)
	dict, err := decodeSegDict(enc.dict.b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTokenReaderDict(bytes.NewReader(enc.pay), dict, 0)
	defer tr.release()
	var got []token
	var offs []int64
	for {
		at := tr.pos
		tok, ok := tr.take()
		if !ok {
			offs = append(offs, tr.pos)
			break
		}
		got, offs = append(got, tok), append(offs, at)
	}
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	if len(got) != len(tc.toks) {
		t.Fatalf("read back %d tokens, captured %d", len(got), len(tc.toks))
	}
	for i, want := range tc.toks {
		g := got[i]
		if g.op != want.op || g.tag != want.tag || g.data != want.data || (g.key == nil) != (want.key == nil) || compareKeys(g.key, want.key) != 0 {
			t.Fatalf("token %d: read back %+v, captured %+v", i, g, want)
		}
		if offs[i] != enc.tokOffs[i] {
			t.Fatalf("token %d: read at offset %d, encode says %d", i, offs[i], enc.tokOffs[i])
		}
	}

	sw := &segmentSetWriter{ar: tc.ar, root: tc.root, raw: tc.root.raw, out: c, marks: tc.marks}
	rec := &segmentRecord{}
	for _, n := range tc.names {
		rec.entries = append(rec.entries, childEntry{name: n})
	}
	posts, err := sw.capturePostings(rec, enc.tokOffs)
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != len(tc.marks) {
		t.Fatalf("%d postings for %d entries", len(posts), len(tc.marks))
	}
	h := &segmentHeader{posts: posts}
	for i, m := range tc.marks {
		if err := checkPosting(h, i, got[m.start:m.end], offs[m.start:m.end+1], tc.ar.dict); err != nil {
			t.Errorf("entry %d: %v", i, err)
		}
	}
}
