package extmem

import (
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sync"
)

// The replication manifest is the read side of ROADMAP item 3: one
// committed key-directory generation described as a flat list of named
// immutable segment blobs plus the exact bytes of the three state files
// (keydir.idx, dict.txt, meta.txt). A replica is byte-identical to the
// source exactly when it holds the same blobs and the same state-file
// bytes, so the sync engine never needs to understand the segment
// format — it moves blobs whose size and payload CRC the manifest
// already pins, and installs the state bundle keydir-last.

// State-file base names of the segmented layout, exported for the
// replication transport (internal/segstore), which must name them —
// list-excluding them from the blob namespace, committing them as a
// bundle — without ever decoding them.
const (
	KeydirFileName = keydirFile
	DictFileName   = dictFile
	MetaFileName   = metaFile
)

// SegmentMeta pins one committed segment blob: its base name, total
// file size, and the payload range [DataOff, DataOff+Payload) whose
// CRC32 (IEEE) the key directory records, so the transport verifies a
// transferred blob without decoding any segment format. Size is always
// DataOff+Payload — a committed segment file ends exactly at its
// payload.
type SegmentMeta struct {
	Name    string
	Size    int64
	DataOff int64
	Payload int64
	CRC     uint32
}

// Manifest describes one committed generation for replication.
type Manifest struct {
	// Generation identifies the generation: the hex CRC32 (IEEE) of the
	// encoded key directory, so both ends of a sync derive the same id
	// from the same bytes.
	Generation string
	Versions   int
	Segments   []SegmentMeta
}

// GenerationID derives the manifest generation id from encoded
// keydir.idx bytes. The file ends with its own CRC32, and the CRC of
// data with its checksum appended is the fixed residue 0x2144df1c for
// ANY data — hashing the whole file would give every generation the
// same id. Hash the content without the trailing self-check.
func GenerationID(keydir []byte) string {
	if n := len(keydir); n >= crc32.Size {
		keydir = keydir[:n-crc32.Size]
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(keydir))
}

// DecodeManifest parses encoded keydir.idx bytes (checksum verified)
// into the replication manifest of that generation.
func DecodeManifest(keydir []byte) (*Manifest, error) {
	d, err := decodeKeyDirectory(keydir)
	if err != nil {
		return nil, err
	}
	return manifestOf(d, keydir), nil
}

// manifestOf describes directory d, whose encoding is keydir.
func manifestOf(d *keyDirectory, keydir []byte) *Manifest {
	m := &Manifest{Generation: GenerationID(keydir), Versions: d.versions}
	for _, r := range d.roots {
		for _, s := range r.segs {
			m.Segments = append(m.Segments, SegmentMeta{
				Name:    s.file,
				Size:    s.dataOff + s.payload,
				DataOff: s.dataOff,
				Payload: s.payload,
				CRC:     s.crc,
			})
		}
	}
	return m
}

// ReplicaView is a pinned read view of the current committed generation
// for replication: the manifest, the exact state-file bytes, and access
// to the generation's segment files. The pin keeps those files on disk
// until Close even if later Adds supersede them — a puller streaming
// from the view never observes a half-installed generation.
type ReplicaView struct {
	ar  *Archiver
	g   *generation
	man *Manifest

	closeOnce sync.Once
}

// OpenReplicaView pins the published generation: its manifest and the
// state-file bytes its commit wrote (or Open read) come with it, so the
// view opens no file and, like every reader, never waits for a writer.
// The error is always nil.
func (ar *Archiver) OpenReplicaView() (*ReplicaView, error) {
	g := ar.pin()
	return &ReplicaView{ar: ar, g: g, man: manifestOf(g.d, g.state.keydir)}, nil
}

// Manifest returns the pinned generation's manifest.
func (v *ReplicaView) Manifest() *Manifest { return v.man }

// Bundle returns the exact bytes of the generation's three state files
// (keydir.idx, dict.txt, meta.txt).
func (v *ReplicaView) Bundle() (keydir, dict, meta []byte) {
	return v.g.state.keydir, v.g.state.dict, v.g.state.meta
}

// HasSegment reports whether name is a segment of the pinned
// generation.
func (v *ReplicaView) HasSegment(name string) bool { return v.g.files[name] }

// OpenSegment opens one segment blob of the pinned generation for
// streaming, returning its size. Only names the manifest lists are
// served: the archive directory may hold half-written segments of an
// in-flight Add under their final names, and those must never leak to a
// replica. The open file handle outlives the view — closing the view
// (and even the generation sweep unlinking the file) does not disturb
// an in-flight stream.
func (v *ReplicaView) OpenSegment(name string) (io.ReadCloser, int64, error) {
	if !v.g.files[name] {
		return nil, 0, fmt.Errorf("extmem: segment %s not in generation %s", name, v.man.Generation)
	}
	path := filepath.Join(v.ar.dir, name)
	fi, err := v.ar.fs.Stat(path)
	if err != nil {
		return nil, 0, fmt.Errorf("extmem: replica view: %w", err)
	}
	f, err := v.ar.fs.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("extmem: replica view: %w", err)
	}
	return f, fi.Size(), nil
}

// Close releases the generation pin; superseded segment files become
// eligible for deletion. Close is idempotent.
func (v *ReplicaView) Close() error {
	v.closeOnce.Do(func() { v.ar.unpin(v.g) })
	return nil
}
