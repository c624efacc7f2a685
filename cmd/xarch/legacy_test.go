package main

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xarch"
	"xarch/internal/segstore"
	"xarch/internal/server"
)

// The legacy on-disk generations have no writer any more, so the
// fixtures are literal bytes: just enough of each layout for a reader to
// recognise it.

// keydirFile frames a hand-built key-directory body the way keydir.idx
// is framed: magic, body, CRC32 (IEEE) of both.
func keydirFile(body string) string {
	b := []byte("XKD1" + body)
	return string(binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)))
}

// legacySegment is a format-1 segment header: magic, format byte 1, no
// flags, zero payload length and CRC, root label "db" without a key.
const legacySegment = "XSG1\x01\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00" + "\x02db\x00"

// compressedSegment is a segment header only a block-compressing build
// wrote: format 2 with the compression flag 0x02, zero payload length and
// CRC, root label "db" without a key.
const compressedSegment = "XSG1\x02\x02" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00" + "\x02db\x00"

// format2Segment is a format-2 segment header, the last format before the
// postings moved into the segments: no flags, zero payload length and CRC,
// root label "db" without a key.
const format2Segment = "XSG1\x02\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00" + "\x02db\x00"

// compressedMeta is the meta.txt of a one-version archive whose one root
// db has one segment file.
const compressedMeta = "xarch-ext 2\nversions 1\nroottime \"1\"\nroots 1\nroot \"db\" \"\" 0 0 0 0 1\nseg \"seg-00000000.tok\"\n"

var legacyShapes = map[string]map[string]string{
	// The pre-segment layout: a v1 meta and one monolithic token file
	// (<db/> as open tag 0, close).
	"monolithic": {
		"meta.txt":    "versions 1\nroottime \"1\"\n",
		"dict.txt":    "0\tdb\n",
		"archive.tok": "\x01\x00\x00\x04",
	},
	// A format-1 key directory (one version, root time "1", no roots).
	"keydir-v1": {
		"meta.txt":   "xarch-ext 2\nversions 1\nroottime \"1\"\nroots 0\n",
		"dict.txt":   "0\tdb\n",
		"keydir.idx": keydirFile("\x01" + "\x01" + "\x011" + "\x00"),
	},
	// A format-2 key directory whose first segment record says format 1
	// — a mixed archive that was never migrated — next to that segment.
	// Decoding stops at a format field, so the record ends there.
	"segment-v1": {
		"meta.txt": "xarch-ext 2\nversions 1\nroottime \"1\"\nroots 1\nroot \"db\" \"\" 0 0 0 0 1\nseg \"seg-00000000.tok\"\n",
		"dict.txt": "0\tdb\n",
		"keydir.idx": keydirFile("\x02" + "\x01" + "\x011" + "\x01" + // format, versions, root time, one root
			"\x02db" + "\x00" + "\x00" + "\x00" + "\x00" + "\x01" + // name, no key, inherited time, no attrs, not raw, one segment
			"\x10seg-00000000.tok" + "\x01"), // file, segment format 1
		"seg-00000000.tok": legacySegment,
	},
	// A format-2 key directory (one version, root time "1", no roots)
	// beside the attr.idx sidecar that held its postings.
	"keydir-v2": {
		"meta.txt":   "xarch-ext 2\nversions 1\nroottime \"1\"\nroots 0\n",
		"dict.txt":   "0\tdb\n",
		"keydir.idx": keydirFile("\x02" + "\x01" + "\x011" + "\x00"),
		"attr.idx":   "XAI1",
	},
	// A format-2 segment with no key directory to say so.
	"segment-v2": {
		"meta.txt":         compressedMeta,
		"dict.txt":         "0\tdb\n",
		"seg-00000000.tok": format2Segment,
	},
	// A block-compressed segment with no key directory to say so: the
	// readers fall back to the files meta.txt lists.
	"compressed-segment": {
		"meta.txt":         compressedMeta,
		"dict.txt":         "0\tdb\n",
		"seg-00000000.tok": compressedSegment,
	},
	// A key directory whose segment record carries stored slots that
	// differ from its payload and CRC — the on-disk size and checksum of a
	// compressed payload. Decoding stops at those slots.
	"compressed-keydir": {
		"meta.txt": compressedMeta,
		"dict.txt": "0\tdb\n",
		"keydir.idx": keydirFile("\x02" + "\x01" + "\x011" + "\x01" + // format, versions, root time, one root
			"\x02db" + "\x00" + "\x00" + "\x00" + "\x00" + "\x01" + // name, no key, inherited time, no attrs, not raw, one segment
			"\x10seg-00000000.tok" + "\x02" + "\x16" + // file, segment format 2, data offset
			"\x40" + "\x05" + "\x20" + "\x09"), // payload 64 bytes with CRC 5, stored as 32 bytes with CRC 9
		"seg-00000000.tok": compressedSegment,
	},
}

func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestLegacyLayoutsRejected: every way into an archive directory —
// OpenStore, CheckStore, `xarch fsck`, `xarch pull` into it — reports
// ErrLegacyFormat for each legacy shape and leaves the directory
// byte-for-byte as it found it.
func TestLegacyLayoutsRejected(t *testing.T) {
	spec, err := xarch.ParseKeySpec("(/, (db, {}))")
	if err != nil {
		t.Fatal(err)
	}
	// A healthy one-version archive for the pulls to come from.
	srcDir := t.TempDir()
	src, err := xarch.OpenStore(srcDir, spec)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xarch.ParseXMLString("<db/>")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Add(doc); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	srcStore, err := segstore.NewLocal(nil, srcDir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewReplicaHandler(srcStore, nil))
	defer ts.Close()

	surfaces := []struct {
		name string
		call func(dir string) error
	}{
		{"OpenStore", func(dir string) error {
			s, err := xarch.OpenStore(dir, spec)
			if err == nil {
				s.Close()
			}
			return err
		}},
		{"CheckStore", func(dir string) error {
			_, err := xarch.CheckStore(dir)
			return err
		}},
		{"fsck", func(dir string) error { return cmdFsck([]string{"-archive", dir}) }},
		{"pull", func(dir string) error {
			return cmdPull([]string{"-from", ts.URL, "-archive", dir, "-q", "-retries", "1"})
		}},
	}
	for shape, files := range legacyShapes {
		dir := t.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := readDir(t, dir)
		for _, sf := range surfaces {
			if err := sf.call(dir); !errors.Is(err, xarch.ErrLegacyFormat) {
				t.Errorf("%s on %s layout: %v, want ErrLegacyFormat", sf.name, shape, err)
			}
			if after := readDir(t, dir); !reflect.DeepEqual(before, after) {
				t.Errorf("%s modified the %s directory it rejected", sf.name, shape)
			}
		}
	}
}
