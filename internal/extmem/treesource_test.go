package extmem

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/fsio"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// The two ways a version enters the pipeline — decomposeTree over a parsed
// document, and the streaming decomposer over XML text — must be one
// decomposer in effect: the same sorted token stream, and after the merge
// the same bytes in every file of the archive directory.

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
		text(" \n "), // whitespace-only text above the frontier
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
		text("  "),
		elem("south", item("2", elem("note", elem("nested", attr("k", "v"), text("x")), text(" y")))),
	)
	v2 := v1.Clone()
	north := v2.Child("north")
	north.Children = north.Children[:1] // item 2 leaves north
	north.Children[0].Child("body").Children[0].Data = "changed "
	v2.Child("south").Append(item("3", elem("body", text("new"))))
	return []*xmltree.Node{v1, v2, v1.Clone()}
}

func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// sortedStream runs decompose, run forming and run merge for one source
// and returns the sorted version file's bytes.
func sortedStream(t *testing.T, ar *Archiver, src Source) []byte {
	t.Helper()
	path, scratch, err := ar.prepareSorted(src)
	defer removePaths(ar.fs, scratch)
	if err != nil {
		t.Fatalf("prepareSorted: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestTreeSourceMatchesStream(t *testing.T) {
	omim := datagen.NewOMIM(datagen.OMIMConfig{Seed: 61, Records: 30, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.1})
	sp := datagen.NewSwissProt(datagen.SwissProtConfig{Seed: 62, Records: 12, DeleteFrac: 0.1, InsertFrac: 0.2, ModifyFrac: 0.1})
	xm := datagen.NewXMark(datagen.XMarkConfig{Seed: 63, Items: 25, People: 15, Categories: 8, OpenAucts: 10, ClosedAucts: 6})
	xdoc := xm.Document()
	cases := []struct {
		name string
		spec *keys.Spec
		docs []*xmltree.Node
	}{
		{"omim", datagen.OMIMSpec(), []*xmltree.Node{omim.Next(), omim.Next(), omim.Next()}},
		{"swissprot", datagen.SwissProtSpec(), []*xmltree.Node{sp.Next(), sp.Next(), sp.Next()}},
		{"xmark", datagen.XMarkSpec(), []*xmltree.Node{xdoc, xm.RandomChanges(xdoc, 0.1), xm.KeyModChanges(xdoc, 0.1)}},
		{"edge", keys.MustParseSpec(edgeSpec), edgeDocs()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A small budget and segment target force several runs per
			// worker and several segments, so stems, run merge and
			// segment splits are all compared too.
			cfg := Config{Budget: 300, SegmentTarget: 2048, Shards: 2}
			treeDir, streamDir := t.TempDir(), t.TempDir()
			tree, err := Open(treeDir, tc.spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := Open(streamDir, tc.spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v, doc := range tc.docs {
				fromTree := sortedStream(t, tree, Source{Doc: doc})
				fromStream := sortedStream(t, stream, Source{Reader: strings.NewReader(doc.XML())})
				if !bytes.Equal(fromTree, fromStream) {
					t.Fatalf("v%d: sorted token streams differ (%d vs %d bytes)", v+1, len(fromTree), len(fromStream))
				}
				if len(fromTree) == 0 {
					t.Fatalf("v%d: empty sorted stream", v+1)
				}
				if items, err := tree.AddVersionBatch([]Source{{Doc: doc}}); err != nil || items[0].Err != nil {
					t.Fatalf("v%d: tree add: %v %v", v+1, err, items)
				}
				if err := stream.AddVersion(strings.NewReader(doc.IndentedXML())); err != nil {
					t.Fatalf("v%d: stream add: %v", v+1, err)
				}
				got, want := dirFiles(t, treeDir), dirFiles(t, streamDir)
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

// TestTreeSourceNeedsNoScratchFiles pins what the tree source is for: an
// add from a parsed document creates no token file and no key files (its
// only scratch files are the sorted runs and their merge), while a
// streamed add still creates both.
func TestTreeSourceNeedsNoScratchFiles(t *testing.T) {
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 64, Records: 10})
	doc := g.Next()
	created := func(src Source) (version, keyFiles, all int) {
		ffs := fsio.NewFaultFS(nil)
		ar, err := Open(t.TempDir(), datagen.OMIMSpec(), Config{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		ffs.ResetTrace()
		if items, err := ar.AddVersionBatch([]Source{src}); err != nil || items[0].Err != nil {
			t.Fatalf("add: %v %v", err, items)
		}
		for _, op := range ffs.Ops() {
			if !strings.HasSuffix(op.Point, ".create") {
				continue
			}
			all++
			switch base := filepath.Base(op.Path); {
			case base == "tmp-version.tok":
				version++
			case strings.HasPrefix(base, "tmp-keys-"):
				keyFiles++
			}
		}
		return version, keyFiles, all
	}
	if v, k, all := created(Source{Doc: doc}); v != 0 || k != 0 || all > 16 {
		t.Errorf("tree-sourced add created %d token files, %d key files, %d files in all; want 0, 0, at most 16", v, k, all)
	}
	if v, k, _ := created(Source{Reader: strings.NewReader(doc.XML())}); v != 1 || k == 0 {
		t.Errorf("streamed add created %d token files and %d key files; want 1 and some", v, k)
	}
}
