package extmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
	"xarch/internal/fsio"
	"xarch/internal/hostile"
	"xarch/internal/keys"
	"xarch/internal/keys/keystest"
	"xarch/internal/xmltree"
)

// The decoders of bytes a replication peer supplies — keydir.idx, a
// segment's postings section and segment payloads (the segment header has FuzzSegmentHeader; dict.txt
// and meta.txt, text, have their own round trips below) — share
// one contract: whatever the bytes, no panic, no allocation beyond a small
// multiple of the bytes actually supplied, and an error that matches
// ErrCorruptArchive (ErrLegacyFormat for a format-1 or format-2 key
// directory).

// checkHostile holds decode, run over n input bytes, to that contract.
func checkHostile(t *testing.T, n int, decode func() error) error {
	t.Helper()
	err := hostile.Check(t, n, decode)
	if err != nil && !errors.Is(err, core.ErrCorruptArchive) && !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("error does not match ErrCorruptArchive: %v", err)
	}
	return err
}

// seal appends the CRC32 trailer keydir.idx and a postings section end
// with, so the fuzzer's mutations reach the decoder behind the checksum.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// hugeStringKeydir is a CRC-valid keydir.idx of 20 bytes whose root
// timestamp claims 1<<62 bytes; hugeTextToken is a text token claiming
// 1<<33. Each used to size a make with the claim.
var (
	hugeStringKeydir = seal(binary.AppendUvarint(append([]byte(keydirMagic), keydirFormat, 1, 0), 1<<62))
	hugeTextToken    = binary.AppendUvarint([]byte{tokText}, 1<<33)
)

func TestHostileLengthPrefixes(t *testing.T) {
	if len(hugeStringKeydir) != 20 {
		t.Fatalf("repro is %d bytes, want 20", len(hugeStringKeydir))
	}
	if err := checkHostile(t, len(hugeStringKeydir), func() error {
		_, err := decodeKeyDirectory(hugeStringKeydir)
		return err
	}); err == nil {
		t.Error("key directory with a 1<<62-byte string decoded")
	}
	if err := checkHostile(t, len(hugeStringKeydir), func() error {
		_, err := DecodeManifest(hugeStringKeydir)
		return err
	}); err == nil {
		t.Error("manifest with a 1<<62-byte string decoded")
	}
	if err := checkHostile(t, len(hugeTextToken), func() error { return drainTokens(t, hugeTextToken, &segDict{}) }); err == nil {
		t.Error("text token of 1<<33 bytes decoded")
	}
}

// TestKdReaderVarint holds the reader's own varint loop to
// encoding/binary's on the edges: every length, the largest value, a tenth
// byte that overflows, an eleventh, and a cut after every byte.
func TestKdReaderVarint(t *testing.T) {
	var cases [][]byte
	for shift := 0; shift < 64; shift += 7 {
		cases = append(cases, binary.AppendUvarint(nil, 1<<shift), binary.AppendUvarint(nil, 1<<shift-1))
	}
	cases = append(cases, binary.AppendUvarint(nil, 1<<64-1),
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	for _, full := range cases {
		for cut := 0; cut <= len(full); cut++ {
			in := append(bytes.Clone(full[:cut]), "tail"...)
			if cut < len(full) {
				in = in[:cut]
			}
			want, n := binary.Uvarint(in)
			r := &kdReader{s: string(in)}
			got := r.varint()
			if (n <= 0) != (r.err != nil) || n > 0 && (got != want || r.s != string(in[n:])) {
				t.Errorf("% x: got %d, rest %q, err %v; binary.Uvarint says %d, n=%d", in, got, r.s, r.err, want, n)
			}
		}
	}
}

// drainTokens decodes data to its end twice — token by token, and
// skipping every subtree — and checks that a clean decode accounts for
// every byte.
func drainTokens(t *testing.T, data []byte, dict *segDict) error {
	tr := newTokenReaderDict(bytes.NewReader(data), dict, 0)
	defer tr.release()
	for {
		at := tr.pos
		if _, ok := tr.take(); !ok {
			break
		}
		if tr.pos <= at {
			t.Fatalf("token offset %d after %d", tr.pos, at)
		}
	}
	if tr.err == nil && tr.pos != int64(len(data)) {
		t.Fatalf("clean end of stream at offset %d of %d", tr.pos, len(data))
	}
	// Skipping resolves no ids and balances subtrees, so it may accept or
	// refuse what decoding does not; it is held to the contract alone.
	sk := newTokenReaderDict(bytes.NewReader(data), dict, 0)
	defer sk.release()
	for {
		tok, ok := sk.take()
		if !ok {
			break
		}
		if tok.op == tokOpen {
			if err := sk.discardSubtree(); err != nil {
				return err
			}
		}
	}
	return errors.Join(tr.err, sk.err)
}

// fuzzSeedArchive archives the four company versions — small, so the
// fuzzer spends its time mutating the seeds, not minimizing them — over
// several segments, and returns the directory and the closed archiver.
func fuzzSeedArchive(f *testing.F) (string, *Archiver) {
	dir := f.TempDir()
	ar, err := Open(dir, datagen.CompanySpec(), Config{SegmentTarget: 64})
	if err != nil {
		f.Fatal(err)
	}
	for _, doc := range datagen.CompanyVersions() {
		if items, err := ar.AddVersionBatch([]Source{{Doc: doc}}); err != nil || items[0].Err != nil {
			f.Fatal(err, items)
		}
	}
	if err := ar.Close(); err != nil {
		f.Fatal(err)
	}
	return dir, ar
}

func FuzzKeyDirectory(f *testing.F) {
	dir, _ := fuzzSeedArchive(f)
	data, err := os.ReadFile(filepath.Join(dir, keydirFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data[:len(data)-4])
	f.Add(hugeStringKeydir[:len(hugeStringKeydir)-4])
	f.Add(append([]byte(keydirMagic), 1)) // format 1: ErrLegacyFormat
	f.Add(append([]byte(keydirMagic), 2)) // format 2: ErrLegacyFormat
	f.Fuzz(func(t *testing.T, body []byte) {
		sealed := seal(body)
		var d *keyDirectory
		err := checkHostile(t, len(sealed), func() (err error) {
			d, err = decodeKeyDirectory(sealed)
			return err
		})
		if err == nil {
			// What decodes must encode and decode again to the same thing.
			again, err := decodeKeyDirectory(d.encode(d.names))
			if err != nil || again.versions != d.versions || again.names != d.names || again.entryCount() != d.entryCount() {
				t.Fatalf("decoded directory does not survive a round trip: %v", err)
			}
		}
		checkHostile(t, len(body), func() error { // unsealed: the checksum path
			_, err := DecodeManifest(body)
			return err
		})
	})
}

// FuzzAttrIndex fuzzes the decoder of a segment's postings section, the
// attribute index's one home.
func FuzzAttrIndex(f *testing.F) {
	dir, ar := fuzzSeedArchive(f)
	seg := ar.current().d.roots[0].segs[0]
	file, err := os.ReadFile(filepath.Join(dir, seg.file))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file[seg.dataOff-seg.postLen : seg.dataOff-4])
	f.Add(binary.AppendUvarint([]byte{1, 0, 0, 1}, 1<<62)) // one posting, its first attribute's name 1<<62 bytes
	f.Fuzz(func(t *testing.T, body []byte) {
		sealed := seal(body)
		checkHostile(t, len(sealed), func() error {
			_, err := decodePostings(sealed)
			return err
		})
	})
}

func FuzzTokenStream(f *testing.F) {
	// A real segment's payload, decoded against that segment's dictionary
	// (the fuzzed bytes' ids index its tables).
	dir, ar := fuzzSeedArchive(f)
	seg := ar.current().d.roots[0].segs[0]
	file, err := os.ReadFile(filepath.Join(dir, seg.file))
	if err != nil {
		f.Fatal(err)
	}
	h, _, err := readSegmentHeader(bytes.NewReader(file))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file[h.dataOff:], true)
	// A sorted version, as the tree sort writes it, and what no writer
	// writes, encoded against one dictionary of their own.
	doc := xmltree.MustParseString(`<db><north><item id="1"><body>x<b q="v">y</b></body><note>whole</note></item></north></db>`)
	edge, names := keys.MustParseSpec(edgeSpec), newDictionary()
	streams := [][]token{sortDoc(f, edge, names, doc)}
	for _, hs := range hostileStreams(names) {
		up := []token{{op: tokOpen, tag: names.id("db")}, {op: tokOpen, tag: names.id("north")}}
		streams = append(streams, slices.Concat(up, hs.item, []token{{op: tokClose}, {op: tokClose}}))
	}
	edgeDict, payloads := encodeStreams(f, streams...)
	for _, p := range payloads {
		f.Add(p, false)
	}
	f.Add(hugeTextToken, true)
	f.Add(hugeTextToken, false)
	// The version emitter takes the bytes for the subtrees under an element:
	// a segment's entries under their root, or the edge document itself. A
	// segment's bytes are projected as the archive form or a version 1..3.
	root, edgeNames := ar.current().d.roots[0].name, names.snapshot()
	drain := func(data []byte, fromArchive bool) error {
		if fromArchive {
			return drainVersion(data, h.dict, ar.current().names, ar.spec, []string{root}, len(data)%4)
		}
		return drainVersion(data, edgeDict, edgeNames, edge, nil, 1)
	}
	// subtreeANode reads the bytes' first record: a segment's first entry,
	// or the edge document's root.
	record := func(data []byte, fromArchive bool) error {
		dict, q, cur := edgeDict, &QueryView{names: edgeNames, spec: edge}, edge.Cursor()
		if fromArchive {
			dict, q, cur = h.dict, &QueryView{names: ar.current().names, spec: ar.spec}, ar.spec.Cursor().Child(root)
		}
		tr := newTokenReaderDict(bytes.NewReader(data), dict, 0)
		defer tr.release()
		t, err := tr.mustTake("record")
		if err != nil || t.op != tokOpen {
			return errors.Join(err, corruptf("no record"))
		}
		name, err := q.name(t.tag)
		if err != nil {
			return err
		}
		_, err = q.subtreeANode(tr, name, t.key, cur.Child(name))
		return err
	}
	if err := errors.Join(drain(file[h.dataOff:], true), drain(payloads[0], false), record(file[h.dataOff:], true), record(payloads[0], false)); err != nil {
		f.Fatalf("the version emitter refuses a writer's own bytes: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte, fromArchive bool) {
		dict, names := edgeDict, edgeNames
		if fromArchive {
			dict, names = h.dict, ar.current().names
		}
		checkHostile(t, len(data), func() error { return drainTokens(t, data, dict) })
		checkHostile(t, len(data), func() error { return drain(data, fromArchive) })
		checkHostile(t, len(data), func() error { return record(data, fromArchive) })
		checkHostile(t, len(data), func() error { return walkRecords(data, dict, names) })
	})
}

// walkRecords runs fsck's walk of a payload over data, re-deriving a
// posting from every record as checkPosting does.
func walkRecords(data []byte, dict *segDict, names []string) error {
	tr := newTokenReaderDict(bytes.NewReader(data), dict, 0)
	defer tr.release()
	posts := make([]*idxEntry, 8)
	for i := range posts {
		posts[i] = &idxEntry{hasKids: true}
	}
	_, err := scanRecords(tr, &segmentHeader{posts: posts}, &dictionary{names: names})
	return err
}

// FuzzDictionary and FuzzMeta hold the two text state files a replication
// peer supplies, dict.txt and meta.txt, to the hostile-input contract: no
// panic, no allocation beyond a small multiple of the bytes, and what
// decodes must encode and decode again to the same thing.
func FuzzDictionary(f *testing.F) {
	dir, _ := fuzzSeedArchive(f)
	data, err := os.ReadFile(filepath.Join(dir, dictFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte("0\ta\\nb\\tc\\\\d\n1\t" + strings.Repeat("n", 70000) + "\n"))
	f.Add([]byte("1\tdb\n"))                              // ids out of order
	f.Add([]byte("0\tdb\n1\trecord\nGARBAGE\n2\tname\n")) // loads short unless refused
	f.Add([]byte("0\tdb\n\n1\trecord\n"))                 // a blank line
	f.Fuzz(func(t *testing.T, data []byte) {
		var d *dictionary
		if err := hostile.Check(t, len(data), func() (err error) {
			d, err = loadDictionary(bytes.NewReader(data))
			return err
		}); err != nil {
			return
		}
		var b bytes.Buffer
		if err := d.save(&b); err != nil {
			t.Fatal(err)
		}
		again, err := loadDictionary(&b)
		if err != nil || !slices.Equal(again.snapshot(), d.snapshot()) {
			t.Fatalf("loaded dictionary does not survive a round trip: %v", err)
		}
	})
}

func FuzzMeta(f *testing.F) {
	dir, _ := fuzzSeedArchive(f)
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte("xarch-ext 2\nversions 3\nroottime \"1-3\"\nroots 1000000000000\n"))
	f.Add([]byte("xarch-ext 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d *keyDirectory
		if err := hostile.Check(t, len(data), func() (err error) {
			d, err = parseMetaV2(bytes.NewReader(data))
			return err
		}); err != nil {
			return
		}
		enc := encodeMeta(d)
		again, err := parseMetaV2(bytes.NewReader(enc))
		if err != nil || !bytes.Equal(encodeMeta(again), enc) {
			t.Fatalf("parsed meta does not survive a round trip: %v", err)
		}
	})
}

// FuzzFlatVsTree holds the add's document slab to the tree and to the sort
// in runs, for whatever XML it is handed: the slab the tokenizer fills
// equals the tree the parser builds, flattened; the check's report over it
// equals the pattern-loop reference's over the tree; a document the
// reference refuses is refused in one piece with that report, and in
// pieces at a budget of 16 nodes with some of its violations; and a valid
// document sorted in the slab in one piece is, token for token, what the
// run merge hands the merge of it sorted in pieces.
func FuzzFlatVsTree(f *testing.F) {
	spec := keys.MustParseSpec(edgeSpec)
	for _, text := range edgeTexts() {
		f.Add([]byte(text))
	}
	for _, doc := range edgeDocs() {
		f.Add([]byte(doc.XML()))
	}
	f.Add([]byte(`<db><north><item id="1"><note>a</note></item><item id="1"/></north><south>x</south></db>`))
	// Twins of the root's children, split across two runs.
	f.Add([]byte(`<db><north><item id="1"><note>a</note></item><item id="2"><note>b</note></item>` +
		`<item id="3"><note>c</note></item><item id="4"/></north><north/></db>`))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, text []byte) {
		tree, err := xmltree.Parse(bytes.NewReader(text))
		var slab xmltree.Flat
		if rerr := slab.Read(bytes.NewReader(text)); fmt.Sprint(rerr) != fmt.Sprint(err) {
			t.Fatalf("tokenizing into the slab: %v; parsing: %v", rerr, err)
		}
		if err != nil {
			return
		}
		flat := xmltree.Flatten(tree)
		if !slices.Equal(slab.Nodes, flat.Nodes) || !slices.Equal(slab.Names, flat.Names) ||
			!bytes.Equal(slab.Arena, flat.Arena) || !slab.Normalized || !flat.Normalized {
			t.Fatal("the tokenized slab differs from the parsed tree, flattened")
		}
		report := spec.Check(&slab)
		if want := keystest.CheckDocument(spec, tree); !reflect.DeepEqual(report, want) {
			t.Fatalf("slab report differs from the reference\n got: %v\nwant: %v", report, want)
		}
		one := &Archiver{spec: spec, dict: newDictionary(), cfg: Config{Budget: math.MaxInt}}
		whole, _, werr := one.prepareSorted(Source{Reader: bytes.NewReader(text)})
		ext := &Archiver{dir: dir, fs: fsio.OS, spec: spec, dict: newDictionary(), cfg: Config{Budget: 16}}
		runs, scratch, err := ext.prepareSorted(Source{Reader: bytes.NewReader(text)})
		defer removePaths(fsio.OS, scratch)
		var got []token
		if err == nil {
			got, err = sortedTokens(runs)
		}
		if len(report) > 0 {
			var ve *keys.ViolationsError
			if !errors.As(werr, &ve) || !reflect.DeepEqual(ve.Violations, report) {
				t.Fatalf("the sort in one piece: %v, want the report %v", werr, report)
			}
			if !errors.As(err, &ve) || !subMultiset(ve.Violations, report) {
				t.Fatalf("the sort in runs: %v, want some of %v", err, report)
			}
			return
		}
		if werr != nil {
			t.Fatalf("a valid document does not sort: %v", werr)
		} else if err != nil {
			t.Fatalf("the sort in runs refuses a valid document: %v", err)
		}
		if !bytes.Equal(encodeTokens(t, whole.toks), encodeTokens(t, got)) {
			t.Fatal("the sort in one piece and in runs disagree")
		}
	})
}

// subMultiset reports whether sub names a violation and every one it names
// is among all's, each at most as often.
func subMultiset(sub, all []*keys.ValidationError) bool {
	left := map[keys.ValidationError]int{}
	for _, v := range all {
		left[*v]++
	}
	for _, v := range sub {
		if left[*v]--; left[*v] < 0 {
			return false
		}
	}
	return len(sub) > 0
}
