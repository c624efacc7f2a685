package extmem

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xarch/internal/core"
	"xarch/internal/fsio"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// reuseSpec keys /db/item by its id attribute and keeps two keyed children
// under an item, so an item's subtree can carry a nested explicit
// timestamp. reuseFlatSpec is the same database with body as the frontier:
// p is content there and carries no key annotation at all, where reuseSpec
// gives it the empty key.
const (
	reuseSpec = `
(/, (db, {}))
(/db, (item, {id}))
(/db/item, (body, {}))
(/db/item, (note, {}))
(/db/item/body, (p, {}))
`
	reuseFlatSpec = `
(/, (db, {}))
(/db, (item, {id}))
(/db/item, (body, {}))
(/db/item, (note, {}))
`
)

// reuseItem builds <item id="…"><body><p>…</p></body><note>n</note></item>.
func reuseItem(id int, body string) *xmltree.Node {
	return xmltree.Elem("item",
		xmltree.AttrNode("id", fmt.Sprintf("%03d", id)),
		xmltree.Elem("body", xmltree.ElemText("p", body)),
		xmltree.ElemText("note", "n"))
}

// reuseBase is the first version of every row: forty items, ids 010 to
// 400, which a 512-byte segment target spreads over five segments.
func reuseBase() *xmltree.Node {
	db := xmltree.Elem("db")
	for id := 10; id <= 400; id += 10 {
		db.Append(reuseItem(id, fmt.Sprintf("the body text of item number %03d", id)))
	}
	return db
}

func reuseFind(db *xmltree.Node, id int) int {
	want := fmt.Sprintf("%03d", id)
	for i, c := range db.Children {
		if v, _ := c.Attr("id"); v == want {
			return i
		}
	}
	panic("no item " + want)
}

// TestReuseDecisions pins, case by case, which segments an add links
// unchanged and which it rewrites. The MergeStats are those the two-pass
// planner of commit a916475 produced for the same inputs; the archive
// stream is held to the in-memory archiver's.
func TestReuseDecisions(t *testing.T) {
	type step func(prev *xmltree.Node) *xmltree.Node
	edit := func(id int) step {
		return func(prev *xmltree.Node) *xmltree.Node {
			db := prev.Clone()
			db.Children[reuseFind(db, id)].Child("body").Child("p").Children[0].Data = fmt.Sprintf("item %03d, edited", id)
			return db
		}
	}
	insert := func(id int) step {
		return func(prev *xmltree.Node) *xmltree.Node {
			db := prev.Clone()
			at := 0
			for at < len(db.Children) {
				if v, _ := db.Children[at].Attr("id"); v >= fmt.Sprintf("%03d", id) {
					break
				}
				at++
			}
			kids := append([]*xmltree.Node{}, db.Children[:at]...)
			kids = append(kids, reuseItem(id, fmt.Sprintf("a new item, number %03d", id)))
			db.Children = append(kids, db.Children[at:]...)
			return db
		}
	}
	remove := func(id int) step {
		return func(prev *xmltree.Node) *xmltree.Node {
			db := prev.Clone()
			i := reuseFind(db, id)
			db.Children = append(db.Children[:i:i], db.Children[i+1:]...)
			return db
		}
	}
	dropBody := func(id int) step {
		return func(prev *xmltree.Node) *xmltree.Node {
			db := prev.Clone()
			item := db.Children[reuseFind(db, id)]
			item.Children = item.Children[1:] // body goes, note stays
			return db
		}
	}
	same := func(prev *xmltree.Node) *xmltree.Node { return prev.Clone() }
	base := func(*xmltree.Node) *xmltree.Node { return reuseBase() }
	empty := func(*xmltree.Node) *xmltree.Node { return nil }

	rows := []struct {
		name  string
		steps []step
		// respec, when set, reopens the archive under reuseFlatSpec before
		// the last step.
		respec bool
		want   []MergeStats // per step after the base version
	}{
		{name: "no-op", steps: []step{same},
			want: []MergeStats{{5, 0, 0}}},
		{name: "edit in the first segment", steps: []step{edit(20)},
			want: []MergeStats{{4, 1, 2}}},
		{name: "edit in a middle segment", steps: []step{edit(200)},
			want: []MergeStats{{4, 1, 2}}},
		{name: "edit in the last segment", steps: []step{edit(400)},
			want: []MergeStats{{4, 1, 1}}},
		{name: "insert before the first label", steps: []step{insert(5)},
			want: []MergeStats{{4, 1, 2}}},
		{name: "insert after the last label", steps: []step{insert(999)},
			want: []MergeStats{{4, 1, 2}}},
		{name: "delete an inherited-timestamp entry", steps: []step{remove(200)},
			want: []MergeStats{{4, 1, 1}}},
		{name: "re-add a terminated entry", steps: []step{remove(200), base},
			want: []MergeStats{{4, 1, 1}, {4, 1, 1}}},
		{name: "terminated entry stays away", steps: []step{remove(200), same},
			want: []MergeStats{{4, 1, 1}, {5, 0, 0}}},
		{name: "terminated entry before an edit in its segment", steps: []step{remove(180), edit(220)},
			want: []MergeStats{{4, 1, 1}, {4, 1, 2}}},
		{name: "edits either side of unchanged entries", steps: []step{edit(170), edit(240)},
			want: []MergeStats{{4, 1, 2}, {4, 2, 2}}},
		{name: "nested explicit timestamp", steps: []step{dropBody(200), base},
			want: []MergeStats{{4, 1, 1}, {4, 1, 1}}},
		{name: "nil key against the empty key", steps: []step{same}, respec: true,
			want: []MergeStats{{0, 5, 5}}},
		{name: "empty version", steps: []step{empty},
			want: []MergeStats{{5, 0, 0}}},
	}

	source := map[string]func(*xmltree.Node) Source{
		"tree": func(doc *xmltree.Node) Source {
			if doc == nil {
				return Source{}
			}
			return Source{Doc: doc.Clone()}
		},
		"stream": func(doc *xmltree.Node) Source {
			if doc == nil {
				return Source{}
			}
			return Source{Reader: strings.NewReader(doc.XML())}
		},
	}
	for _, row := range rows {
		docs := []*xmltree.Node{reuseBase()}
		for _, s := range row.steps {
			docs = append(docs, s(docs[len(docs)-1]))
		}
		memSpec := keys.MustParseSpec(reuseSpec)
		if row.respec {
			memSpec = keys.MustParseSpec(reuseFlatSpec)
		}
		mem := core.New(memSpec, core.Options{})
		for _, d := range docs {
			var doc *xmltree.Node
			if d != nil {
				doc = d.Clone()
			}
			if err := mem.Add(doc); err != nil {
				t.Fatalf("%s: in-memory add: %v", row.name, err)
			}
		}
		for _, mode := range []string{"tree", "stream", "batch"} {
			t.Run(row.name+"/"+mode, func(t *testing.T) {
				if mode == "batch" && row.respec {
					t.Skip("a batch cannot change specification half way")
				}
				dir := t.TempDir()
				cfg := Config{SegmentTarget: 512, Budget: 64}
				ar, err := Open(dir, keys.MustParseSpec(reuseSpec), cfg)
				if err != nil {
					t.Fatal(err)
				}
				add := func(srcs ...Source) {
					t.Helper()
					items, err := ar.AddVersionBatch(srcs)
					if err != nil {
						t.Fatal(err)
					}
					for _, it := range items {
						if it.Err != nil {
							t.Fatal(it.Err)
						}
					}
				}
				if mode == "batch" {
					var srcs []Source
					for _, d := range docs {
						srcs = append(srcs, source["tree"](d))
					}
					add(srcs...)
					if got, want := ar.Last().Merge, row.want[len(row.want)-1]; got != want {
						t.Errorf("last member of the batch: %+v, want %+v", got, want)
					}
				} else {
					add(source[mode](docs[0]))
					if n := len(ar.current().d.roots[0].segs); n < 4 {
						t.Fatalf("base version spans %d segments, want at least 4", n)
					}
					for k, d := range docs[1:] {
						if row.respec && k == len(docs)-2 {
							if err := ar.Close(); err != nil {
								t.Fatal(err)
							}
							if ar, err = Open(dir, keys.MustParseSpec(reuseFlatSpec), cfg); err != nil {
								t.Fatal(err)
							}
						}
						add(source[mode](d))
						if got := ar.Last().Merge; got != row.want[k] {
							t.Errorf("step %d: %+v, want %+v", k+1, got, row.want[k])
						}
					}
				}
				if got := archiveXML(t, ar); got != mem.XML() {
					t.Errorf("archive stream differs from the in-memory archiver's\n got %s\nwant %s", clip(got), clip(mem.XML()))
				}
			})
		}
	}
}

// runReads counts what is read from run files, and notes their sizes when
// they are opened.
type runReads struct {
	fsio.FS
	read, size int64
}

type countedFile struct {
	fsio.File
	n *int64
}

func (c *runReads) Open(name string) (fsio.File, error) {
	f, err := c.FS.Open(name)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "tmp-run") {
		return f, err
	}
	if st, err := c.FS.Stat(name); err == nil {
		c.size += st.Size()
	}
	return &countedFile{File: f, n: &c.read}, nil
}

func (f *countedFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	*f.n += int64(n)
	return n, err
}

// TestDirtySegmentResumesAtDirtyChild pins what a dirty segment costs the
// version side: the children before its first dirty one were compared once,
// by segmentClean, and come out of the stored segment as they stand, so the
// merge takes over at that child without reading any part of the version
// again. The whole archive is one segment here and the second version
// appends an item after the last label: a merge that went back to the start
// of the segment's range would read the version twice. The budget makes the
// streamed add sort in runs, which the merge reads directly: every run byte
// must be read exactly once.
func TestDirtySegmentResumesAtDirtyChild(t *testing.T) {
	base := xmltree.Elem("db")
	for id := 0; id < 900; id++ {
		base.Append(reuseItem(id, fmt.Sprintf("item number %03d%s", id, strings.Repeat(", and more of its text", 15))))
	}
	next := base.Clone()
	next.Append(reuseItem(999, "appended after the last label"))

	fs := &runReads{FS: fsio.OS}
	ar, err := Open(t.TempDir(), keys.MustParseSpec(reuseSpec), Config{Budget: 1024, SegmentTarget: 1 << 20, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	if err := addVersion(ar, strings.NewReader(base.XML())); err != nil {
		t.Fatal(err)
	}
	fs.read, fs.size = 0, 0
	if err := addVersion(ar, strings.NewReader(next.XML())); err != nil {
		t.Fatal(err)
	}
	if got, want := ar.Last().Merge, (MergeStats{SegmentsRewritten: 1, SegmentsCreated: 1}); got != want {
		t.Fatalf("merge stats %+v, want %+v: the test needs exactly one dirty segment", got, want)
	}
	if runs := ar.SortRuns(); runs < 2 {
		t.Fatalf("the version sorted in %d runs", runs)
	}
	if fs.size < 4*tokenBufSize {
		t.Fatalf("runs of %d bytes cannot tell one read from two", fs.size)
	}
	if fs.read != fs.size {
		t.Errorf("%d bytes read from runs of %d: every run byte is to be read once", fs.read, fs.size)
	}
}
