package extmem

import (
	"bytes"
	"testing"

	"xarch/internal/datagen"
)

// Tests of segment block compression, including its seek behavior.

// TestCompressedSegments: with block compression on, the archive answers
// every query byte-identically to an uncompressed archive of the same
// versions, the on-disk stored bytes actually shrink, and fsck still
// verifies every checksum.
func TestCompressedSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 1 << 16, Compression: true}
	ar := buildOMIMArchive(t, dir, cfg, 3)
	dirRef := t.TempDir()
	ref := buildOMIMArchive(t, dirRef, Config{Budget: 1 << 16, SegmentTarget: 1 << 16}, 3)

	if got, want := archiveStreamBytes(t, ar), archiveStreamBytes(t, ref); !bytes.Equal(got, want) {
		t.Error("compressed archive token stream differs")
	}
	if got, want := snapshotXML(t, ar), snapshotXML(t, ref); got != want {
		t.Error("compressed archive XML differs")
	}
	st, stRef := ar.StorageStats(), ref.StorageStats()
	if st.SegmentBytes != stRef.SegmentBytes {
		t.Errorf("decoded payload bytes differ: %d vs %d", st.SegmentBytes, stRef.SegmentBytes)
	}
	if st.StoredBytes >= st.SegmentBytes {
		t.Errorf("compression did not shrink stored bytes: %d stored vs %d payload", st.StoredBytes, st.SegmentBytes)
	}
	if cs := ar.CompressedSize(); cs != st.StoredBytes {
		t.Errorf("CompressedSize %d != StoredBytes %d", cs, st.StoredBytes)
	}
	ref.Close()
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	report, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean {
		t.Errorf("fsck not clean on compressed archive: %+v", report.Problems())
	}

	// Reopen and query through the block index: a selective seek must
	// decompress only the touched blocks, not the whole archive.
	ar2, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ar2.Close()
	if got, want := snapshotXML(t, ar2), snapshotXML(t, ref); got != want {
		t.Error("reopened compressed archive XML differs")
	}
}

// TestCompressedSeekReadsNothing pins the seek-capability claim for
// compressed segments: a History query on a fully keyed two-step
// selector is answered from the key directory alone — zero segment
// bytes read — exactly as on raw segments.
func TestCompressedSeekReadsNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 1 << 14, Compression: true}
	ar := buildOMIMArchive(t, dir, cfg, 2)

	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	// Find a record number present in version 1.
	v1, err := q.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	num := v1.Child("Record").ChildText("Num")
	base := ar.BytesRead()
	h, err := q.History("/ROOT/Record[Num=" + num + "]")
	if err != nil {
		t.Fatal(err)
	}
	if h.Empty() {
		t.Fatalf("empty history for record %s", num)
	}
	if n := ar.BytesRead() - base; n != 0 {
		t.Errorf("fully keyed History read %d bytes from compressed segments, want 0", n)
	}

	// A selective body read decompresses only the blocks it touches.
	base = ar.BytesRead()
	if _, err := q.ContentHistory("/ROOT/Record[Num=" + num + "]/Text"); err != nil {
		t.Fatal(err)
	}
	read := ar.BytesRead() - base
	if read == 0 {
		t.Error("selective body read reported zero bytes; telemetry broken")
	}
	if total := ar.CompressedSize(); read >= total {
		t.Errorf("selective read touched %d of %d stored bytes; seeks are not selective", read, total)
	}
}
