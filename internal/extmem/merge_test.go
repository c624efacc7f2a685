package extmem

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/fsio"
	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// northDoc is an edgeSpec version whose one north entry holds n items, far
// more bytes than a token reader buffers: the merge reads the stored entry
// in many refills. Every item whose id is a multiple of every has its body
// changed to mark.
func northDoc(n, every int, mark string) *xmltree.Node {
	north := xmltree.Elem("north")
	for i := 0; i < n; i++ {
		body := fmt.Sprintf("body of item %05d, long enough to need several buffer refills", i)
		if every > 0 && i%every == 0 {
			body = mark
		}
		north.Append(xmltree.Elem("item", xmltree.AttrNode("id", fmt.Sprintf("i%05d", i)), xmltree.ElemText("body", body)))
	}
	return xmltree.Elem("db", north)
}

// TestMergeReadFaultIsNotCorruption is the add-side twin of
// TestVersionReadFaultIsNotCorruption: a segment read or open that fails
// while the merge reads the stored archive fails the add with that error.
// Below the level-2 entries it used to surface as a missing close or, worse,
// as attributes that "differ between archive and version" — blaming the
// user's document for an EIO.
func TestMergeReadFaultIsNotCorruption(t *testing.T) {
	// A changed south entry, in a segment of its own past the north one's,
	// makes the merge open two stored segments.
	withSouth := func(db *xmltree.Node, body string) *xmltree.Node {
		south := xmltree.Elem("south")
		for i := 0; i < 50; i++ {
			south.Append(xmltree.Elem("item", xmltree.AttrNode("id", fmt.Sprintf("s%02d", i)), xmltree.ElemText("body", body)))
		}
		db.Append(south)
		return db
	}
	v1, v2 := withSouth(northDoc(6000, 0, ""), "before"), withSouth(northDoc(6000, 500, "changed"), "after")
	for _, point := range []string{"segment.read", "segment.open"} {
		ffs := fsio.NewFaultFS(nil)
		ar, err := Open(t.TempDir(), keys.MustParseSpec(edgeSpec), Config{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		if err := addTree(v1)(ar); err != nil {
			t.Fatal(err)
		}
		failed := 0
		for after := 0; ; after++ {
			// No segment's sections loaded each time, so the fault walks
			// through every read and open of a cold merge.
			dropSections(ar)
			ffs.SetFault(point, fsio.Fault{After: after, Count: 1})
			err := addTree(v2)(ar)
			ffs.ClearFaults()
			if err == nil {
				break // the add makes fewer than after+1 such operations
			}
			failed++
			if !errors.Is(err, fsio.ErrInjected) || errors.Is(err, core.ErrCorruptArchive) {
				t.Fatalf("add with the %s fault after %d: %v", point, after, err)
			}
			if n := ar.Versions(); n != 1 {
				t.Fatalf("add with the %s fault after %d failed (%v) but the archive holds %d versions", point, after, err, n)
			}
			if err := ar.Degraded(); err != nil {
				t.Fatalf("add with the %s fault after %d degraded the archive: %v", point, after, err)
			}
		}
		if failed < 3 {
			t.Errorf("the %s fault fired in %d positions only", point, failed)
		}
		if n := ar.Versions(); n != 2 {
			t.Errorf("%s: %d versions after the clean add, want 2", point, n)
		}
		ar.Close()
	}
}

// pinnedArchive is one archive TestMergeBytesPinned builds: its spec, its
// versions (nil for an empty one), whether they are added streamed (read
// in pieces of cfg.Budget nodes, so sorted in runs) rather than as trees,
// and the SHA-256 of every file it must leave.
type pinnedArchive struct {
	name   string
	spec   *keys.Spec
	docs   []*xmltree.Node
	stream bool
	cfg    Config
	files  map[string]string
}

// TestMergeBytesPinned holds the merge's output to bytes recorded before
// the sibling merge below the root became one loop: archives of OMIM and
// XMark versions, and of OMIM under a spec that keys only the root (a raw
// root), in small segments, added as trees and streamed in runs, with an
// empty version, a re-added one and opportunistic compaction. Every shape
// of add leaves the same bytes, so a streamed archive shares its table
// with the tree-built one. A change meant to keep the format keeps every
// hash; one that changes the format re-records them from the table the
// failure prints.
func TestMergeBytesPinned(t *testing.T) {
	og := datagen.NewOMIM(datagen.OMIMConfig{Seed: 3, Records: 40, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.1})
	omim := []*xmltree.Node{og.Next(), og.Next(), og.Next(), og.Next()}
	xg := datagen.NewXMark(datagen.XMarkConfig{Seed: 5, Items: 30, People: 30, Categories: 6, OpenAucts: 10, ClosedAucts: 6})
	xmark := []*xmltree.Node{xg.Document()}
	xmark = append(xmark, xg.RandomChanges(xmark[0], 0.2))
	xmark = append(xmark, xg.KeyModChanges(xmark[1], 0.2))
	xmark = append(xmark, xg.RandomChanges(xmark[2], 0.2))
	// v1, v2, v3, an empty version, v4 and v2 again.
	history := func(v []*xmltree.Node) []*xmltree.Node { return []*xmltree.Node{v[0], v[1], v[2], nil, v[3], v[1]} }
	raw := keys.MustParseSpec("(/, (ROOT, {}))")
	for _, c := range []pinnedArchive{
		{"omim", datagen.OMIMSpec(), history(omim), false, Config{SegmentTarget: 4096}, pinnedOMIM},
		{"omim-runs", datagen.OMIMSpec(), history(omim), true, Config{Budget: 64, SegmentTarget: 4096}, pinnedOMIM},
		{"omim-compacting", datagen.OMIMSpec(), history(omim), false, Config{SegmentTarget: 4096, CompactionBudget: 16384}, pinnedOMIMCompacted},
		{"xmark", datagen.XMarkSpec(), history(xmark), false, Config{SegmentTarget: 2048}, pinnedXMark},
		{"xmark-runs", datagen.XMarkSpec(), history(xmark), true, Config{Budget: 64, SegmentTarget: 2048}, pinnedXMark},
		{"raw-omim", raw, history(omim), false, Config{SegmentTarget: 1024}, pinnedRaw},
		{"raw-omim-stream", raw, history(omim), true, Config{Budget: 64, SegmentTarget: 1024}, pinnedRaw},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			ar, err := Open(dir, c.spec, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			runs, compacted := 0, 0
			for v, doc := range c.docs {
				switch {
				case doc == nil:
					err = addVersion(ar, nil)
				case c.stream:
					err = addVersion(ar, strings.NewReader(doc.XML()))
					runs = max(runs, ar.SortRuns())
				default:
					err = addTree(doc)(ar)
				}
				if err != nil {
					t.Fatalf("version %d: %v", v+1, err)
				}
				compacted += ar.Last().Compact.Executed
			}
			if err := ar.Close(); err != nil {
				t.Fatal(err)
			}
			if c.stream && c.spec != raw && runs < 2 {
				t.Errorf("no version was sorted in runs")
			}
			if c.cfg.CompactionBudget > 0 && compacted == 0 {
				t.Errorf("no add compacted")
			}
			got := map[string]string{}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				b, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				got[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(b))
			}
			if !maps.Equal(got, c.files) {
				var table strings.Builder
				for _, name := range slices.Sorted(maps.Keys(got)) {
					fmt.Fprintf(&table, "\t%q: %q,\n", name, got[name])
					if want, ok := c.files[name]; !ok || want != got[name] {
						t.Errorf("%s: sha256 %s, pinned %q", name, got[name], want)
					}
				}
				for name := range c.files {
					if _, ok := got[name]; !ok {
						t.Errorf("%s: missing", name)
					}
				}
				t.Logf("the archive's files:\n%s", table.String())
			}
		})
	}
}

// The files of each pinned archive and their SHA-256, recorded before the
// sibling merge became one loop.
var (
	pinnedOMIM = map[string]string{
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
	pinnedOMIMCompacted = map[string]string{
		"dict.txt":         "4a15e82d5352ddce2bd857b6ab90f3adfa9ece0ff6c9548cc7c0f2711ab842f2",
		"keydir.idx":       "ce5de0257797ad571c59b3fa9670577ff3a4245c6a0233e45164654770746d4c",
		"meta.txt":         "13f0fc5ca6bc83b8bc7c1449a4a1285816e1c368d8a45e5fc3d285bae2e9433b",
		"seg-00000002.tok": "973354aa412401ffb65402916862eafddab565a2c2fc9590014254236637e742",
		"seg-00000003.tok": "b1534fd62c3b0df8c8cfe421ed98dc66fcc1017b55f57ed182c3ff18c899fc5f",
		"seg-00000039.tok": "d495e9f57707b9bca3caa279b12ed66951176446ab6b6fc92fa5950eea73986c",
		"seg-00000040.tok": "d4b5857df328ca66876187573c8626cde11ed9dcd105f05174477e38b05a185c",
		"seg-00000041.tok": "2ae8bc3d903e177b596362a385936311b4f00add1c394dc519937e4d3b6013b5",
		"seg-00000042.tok": "aee8c7817339f0f79d394ccd65b940736faf7ff6ec482d94b2eda1a066e7bdf4",
		"seg-00000043.tok": "f96e054d483d29e6150320625180ec24f24b06aa2233c642075bf5b68c6124d5",
		"seg-00000044.tok": "6c0d59b7385e24a57659589bf303c2e2de95953bef6d8249dbc49235abd6f65e",
		"seg-00000045.tok": "4aa52191eeaf4c3ec6f8f0c5bc73c33098d284587f9252e49bba6b85f34f1ad2",
		"seg-00000046.tok": "b936a6c8e81a33b0ec4d01809df94c577c1a69c4343405f4038f7392d9c1f4e3",
		"seg-00000047.tok": "53020397d92c51d27fa786c4a659704cf5f991a7690b1e584b0d17ff80be1ed8",
		"seg-00000048.tok": "510525d0cf6b14413017a01d44335b7d2e27f699420160c994391d6ebd375cd9",
		"seg-00000049.tok": "af207e0b615ebc654bb523c22aea0cf490e225dbcdbc17a75b126c34578d7f30",
	}
	pinnedXMark = map[string]string{
		"dict.txt":         "d923d90af773b13e2ecbc749e2e0a6eb089325971566750949f37b586013fe60",
		"keydir.idx":       "c8033f863594edbe6e7ac2c239e42dfb293068115e8c2420d8b841feee447606",
		"meta.txt":         "3edccfc8c19c9971245753c437263bfb8e760d29c7780f13722098a4130d70f2",
		"seg-00000015.tok": "46cc4d5dc039057cbceab20fb7591eab22fe56204eb76b762f8cc07fd114a719",
		"seg-00000016.tok": "0491e41134be660df61d1e8db89f83ab9bc4fadada8d457d4f42b83631f799c5",
		"seg-00000017.tok": "6619a7a7a58d21674147a4995c3fdb4cfc9bb9ca2ab55ba9f54dc70f09b9a598",
		"seg-00000018.tok": "41d61f9a28785f51adbe0b7c4e84ffd0d4ffd2ce550af48eb32c0bb0ab1721a2",
	}
	pinnedRaw = map[string]string{
		"dict.txt":         "4a15e82d5352ddce2bd857b6ab90f3adfa9ece0ff6c9548cc7c0f2711ab842f2",
		"keydir.idx":       "8553a64a97b45e690589320dcda4333775010f54f08c5a7e0ea258776b149d01",
		"meta.txt":         "28f1ab2a48c5e1873b7d37826392dddb73d4da95d04578d3889362bee2e6573d",
		"seg-00000005.tok": "573cfb5ce20b3467e1a71c2a0c968fba888da674356206be1ca361c71bf4d4e1",
	}
)
