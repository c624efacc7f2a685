package extmem

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/xmltree"
)

// sortedIDsFixture is testdata/sorted-ids: the archive TestMergeBytesPinned's
// omim case built when segment dictionaries numbered their ids in sorted
// order — four OMIM versions (seed 3) added as v1, v2, v3, an empty
// version, v4 and v2 again, in 4 KiB segments. Its files and their SHA-256
// are its identity.
var sortedIDsFixture = map[string]string{
	"dict.txt":         "4a15e82d5352ddce2bd857b6ab90f3adfa9ece0ff6c9548cc7c0f2711ab842f2",
	"keydir.idx":       "c4996bc8d234e83524446a79f2103a528bd311300427ae4d84ea67c8e8f3635d",
	"meta.txt":         "2e70b6da55ce68c535d86ef5e0b66a78e40a114da50d43befe2acbc7777d3aab",
	"seg-00000002.tok": "973354aa412401ffb65402916862eafddab565a2c2fc9590014254236637e742",
	"seg-00000003.tok": "b1534fd62c3b0df8c8cfe421ed98dc66fcc1017b55f57ed182c3ff18c899fc5f",
	"seg-00000035.tok": "a7dabb640891fddda916b9ffd37e7ac102d3b3265a2908a9991ba650f4486438",
	"seg-00000036.tok": "3de36d34a9dff6ebb94d3e945a645f482f2d55e2594561a133491ebe3e739aad",
	"seg-00000037.tok": "d4b5857df328ca66876187573c8626cde11ed9dcd105f05174477e38b05a185c",
	"seg-00000038.tok": "2ae8bc3d903e177b596362a385936311b4f00add1c394dc519937e4d3b6013b5",
	"seg-00000039.tok": "aee8c7817339f0f79d394ccd65b940736faf7ff6ec482d94b2eda1a066e7bdf4",
	"seg-00000040.tok": "f96e054d483d29e6150320625180ec24f24b06aa2233c642075bf5b68c6124d5",
	"seg-00000041.tok": "6c0d59b7385e24a57659589bf303c2e2de95953bef6d8249dbc49235abd6f65e",
	"seg-00000042.tok": "4aa52191eeaf4c3ec6f8f0c5bc73c33098d284587f9252e49bba6b85f34f1ad2",
	"seg-00000043.tok": "b936a6c8e81a33b0ec4d01809df94c577c1a69c4343405f4038f7392d9c1f4e3",
	"seg-00000044.tok": "53020397d92c51d27fa786c4a659704cf5f991a7690b1e584b0d17ff80be1ed8",
	"seg-00000045.tok": "510525d0cf6b14413017a01d44335b7d2e27f699420160c994391d6ebd375cd9",
	"seg-00000046.tok": "af207e0b615ebc654bb523c22aea0cf490e225dbcdbc17a75b126c34578d7f30",
}

// TestSortedIDArchiveStillReads: an archive whose segments carry sorted
// dictionary ids reads as it did when it was written — every version
// byte-identical to the in-memory archive of the regenerated documents, the
// archive form equal to a fresh build's, fsck clean — and so does it once
// one more add has put segments with arrival-order ids beside its own.
func TestSortedIDArchiveStillReads(t *testing.T) {
	src := filepath.Join("testdata", "sorted-ids")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(sortedIDsFixture) {
		t.Fatalf("fixture holds %d files, want %d", len(entries), len(sortedIDsFixture))
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != sortedIDsFixture[e.Name()] {
			t.Fatalf("fixture %s: sha256 %s, want %q", e.Name(), got, sortedIDsFixture[e.Name()])
		}
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}

	og := datagen.NewOMIM(datagen.OMIMConfig{Seed: 3, Records: 40, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.1})
	v := []*xmltree.Node{og.Next(), og.Next(), og.Next(), og.Next(), og.Next()}
	docs := []*xmltree.Node{v[0], v[1], v[2], nil, v[3], v[1]}
	cfg := Config{SegmentTarget: 4096}
	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	checkSortedIDArchive(t, ar, dir, docs, cfg)

	if err := addTree(v[4])(ar); err != nil {
		t.Fatal(err)
	}
	docs = append(docs, v[4])
	old, fresh := 0, 0
	for name := range ar.current().files {
		if _, ok := sortedIDsFixture[name]; !strings.HasSuffix(name, ".tok") {
			continue
		} else if ok {
			old++
		} else {
			fresh++
		}
	}
	if old == 0 || fresh == 0 {
		t.Fatalf("after the add: %d fixture and %d new segments live, want both", old, fresh)
	}
	checkSortedIDArchive(t, ar, dir, docs, cfg)
}

// checkSortedIDArchive holds ar, stored at dir, to docs: each version's
// bytes to the in-memory archive's, the archive form to that of an archive
// built afresh from docs under cfg, and fsck to clean.
func checkSortedIDArchive(t *testing.T, ar *Archiver, dir string, docs []*xmltree.Node, cfg Config) {
	t.Helper()
	mem := core.New(datagen.OMIMSpec(), core.Options{SkipValidation: true})
	built, err := Open(t.TempDir(), datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	for _, d := range docs {
		var doc *xmltree.Node
		if d != nil {
			doc = d.Clone()
		}
		if err := mem.Add(doc); err != nil {
			t.Fatal(err)
		}
		add := addTree(d)
		if d == nil {
			add = func(ar *Archiver) error { return addVersion(ar, nil) }
		}
		if err := add(built); err != nil {
			t.Fatal(err)
		}
	}
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := 1; i <= len(docs); i++ {
		var got strings.Builder
		if err := q.WriteVersion(i, &got, xmltree.WriteOptions{Indent: true}); err != nil {
			t.Fatalf("version %d: %v", i, err)
		}
		want := ""
		if n, err := mem.Version(i); err != nil {
			t.Fatal(err)
		} else if n != nil {
			want = n.IndentedXML()
		}
		if got.String() != want {
			t.Fatalf("version %d differs from the in-memory archive's", i)
		}
	}
	if got, want := archiveXML(t, ar), archiveXML(t, built); got != want {
		t.Fatal("archive form differs from a fresh build's")
	}
	r, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean || r.Versions != len(docs) {
		t.Fatalf("fsck: clean %v, %d versions (want %d): %+v", r.Clean, r.Versions, len(docs), r.Problems())
	}
}
