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
		"keydir.idx":       "77161d7caf85b9f3570a4b6f1109c637cb5701b304a928eb5a06bf22998dd6ed",
		"meta.txt":         "2e70b6da55ce68c535d86ef5e0b66a78e40a114da50d43befe2acbc7777d3aab",
		"seg-00000002.tok": "281e652580b15cb3588a628fd9dd3c7795025386e02f948add299a5d4204433a",
		"seg-00000003.tok": "273a6601c5898b34009cfe2b55e1473116c25f16a8aee257088f6bd848e96b67",
		"seg-00000035.tok": "a6757d23c6f63fd89597e41f423f8b187ca25915c56480766efd85824196afba",
		"seg-00000036.tok": "7d43f541cd5d5887b925a35617c0bfbd8ecb59672ad45e32fef646b03606e6b2",
		"seg-00000037.tok": "fc342dc27f52da71b39fcbd3b7b0b1bb728560b2d854b129d0797299da27883c",
		"seg-00000038.tok": "1ddfd2ebaf03e3fb2eb0a70cd6432af002c5fa061c0a96f628070423598c8958",
		"seg-00000039.tok": "5e15d7499f0c58a9b206420bde540e751373a65c1c39c59010fe2ea739b5c672",
		"seg-00000040.tok": "a4198d1d1a292187f5056201ed017808bac08d87b1ebd4af4fb4f898a0945130",
		"seg-00000041.tok": "89cb6ae3400231d576d6d113644733f662f88a56132949350c118c07470f2f7c",
		"seg-00000042.tok": "cf9e39419c20af939cd96839069046481eda3bb60639db7ae2614d2978cb637b",
		"seg-00000043.tok": "67dcc43ccb159b009d21d8191657012ba0548406c73ed662c362d5200b164451",
		"seg-00000044.tok": "e72632794a8ef92b94c7e1dcb90f238e22252a843611ae4f02bed2fa41e131c3",
		"seg-00000045.tok": "0a58a84b2b051aaca470febb88ba123e1c5424e94d9b9f5abf0995da20d2c7e4",
		"seg-00000046.tok": "14bd91c68c034af9717beec722ca4db3ba172449342db545f8ea1d1016978c81",
	}
	pinnedOMIMCompacted = map[string]string{
		"dict.txt":         "4a15e82d5352ddce2bd857b6ab90f3adfa9ece0ff6c9548cc7c0f2711ab842f2",
		"keydir.idx":       "49259765680c9cd0113baea5993b70bfa0d771489a0d2f18b68190647603bb34",
		"meta.txt":         "13f0fc5ca6bc83b8bc7c1449a4a1285816e1c368d8a45e5fc3d285bae2e9433b",
		"seg-00000002.tok": "281e652580b15cb3588a628fd9dd3c7795025386e02f948add299a5d4204433a",
		"seg-00000003.tok": "273a6601c5898b34009cfe2b55e1473116c25f16a8aee257088f6bd848e96b67",
		"seg-00000039.tok": "09e4e5b64a5155d9367d6807887b17a494551f626b484a8cd311c7bf5a4acaa0",
		"seg-00000040.tok": "fc342dc27f52da71b39fcbd3b7b0b1bb728560b2d854b129d0797299da27883c",
		"seg-00000041.tok": "1ddfd2ebaf03e3fb2eb0a70cd6432af002c5fa061c0a96f628070423598c8958",
		"seg-00000042.tok": "5e15d7499f0c58a9b206420bde540e751373a65c1c39c59010fe2ea739b5c672",
		"seg-00000043.tok": "a4198d1d1a292187f5056201ed017808bac08d87b1ebd4af4fb4f898a0945130",
		"seg-00000044.tok": "89cb6ae3400231d576d6d113644733f662f88a56132949350c118c07470f2f7c",
		"seg-00000045.tok": "cf9e39419c20af939cd96839069046481eda3bb60639db7ae2614d2978cb637b",
		"seg-00000046.tok": "67dcc43ccb159b009d21d8191657012ba0548406c73ed662c362d5200b164451",
		"seg-00000047.tok": "e72632794a8ef92b94c7e1dcb90f238e22252a843611ae4f02bed2fa41e131c3",
		"seg-00000048.tok": "0a58a84b2b051aaca470febb88ba123e1c5424e94d9b9f5abf0995da20d2c7e4",
		"seg-00000049.tok": "14bd91c68c034af9717beec722ca4db3ba172449342db545f8ea1d1016978c81",
	}
	pinnedXMark = map[string]string{
		"dict.txt":         "d923d90af773b13e2ecbc749e2e0a6eb089325971566750949f37b586013fe60",
		"keydir.idx":       "ce4d8b8cf45f7ba9a668f487ea5c4cd67696cba901799400d8370613558d7830",
		"meta.txt":         "3edccfc8c19c9971245753c437263bfb8e760d29c7780f13722098a4130d70f2",
		"seg-00000015.tok": "9bfbe217e09db8990ab9f6f93218083a5ed51d30c86c9fd7bbed129ba99f659b",
		"seg-00000016.tok": "b083ee1d96a0814f5e56f005975b28125ccd0c358fb23108d13ae025c0dd734c",
		"seg-00000017.tok": "47bcd2d9981b60ac83a13cf9edcc53b04f37c9e86af5c992e2b52624930b9f55",
		"seg-00000018.tok": "c6f9606978085ac3d630023b1c22f9a629626ad80587baeb6db02c3050b20a4c",
	}
	pinnedRaw = map[string]string{
		"dict.txt":         "4a15e82d5352ddce2bd857b6ab90f3adfa9ece0ff6c9548cc7c0f2711ab842f2",
		"keydir.idx":       "e889cbb607aa27327f5a1c8f548d82482faf331d54875a9451db3f4ceaccc857",
		"meta.txt":         "28f1ab2a48c5e1873b7d37826392dddb73d4da95d04578d3889362bee2e6573d",
		"seg-00000005.tok": "3cbcc2549df6b1d9aeea742dc2d0dc175de1fabca40d45dc3e582115fdfaa10f",
	}
)
