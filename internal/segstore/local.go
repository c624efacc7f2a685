package segstore

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"path/filepath"

	"xarch/internal/extmem"
	"xarch/internal/fsio"
)

// Local is the directory-backed Store: the source side of a push, the
// destination side of a pull, and the on-disk half of the replica
// server. All I/O goes through an fsio.FS, so the crash-consistency
// harness can point a FaultFS at the staging and commit protocol.
type Local struct {
	fs  fsio.FS
	dir string
}

// NewLocal returns a Store over dir (created if missing); a nil fs
// means the real filesystem.
func NewLocal(fs fsio.FS, dir string) (*Local, error) {
	if fs == nil {
		fs = fsio.OS
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	return &Local{fs: fs, dir: dir}, nil
}

// Dir returns the store's directory.
func (l *Local) Dir() string { return l.dir }

// payloadCRC computes the CRC32 (IEEE) of c's payload range while the
// blob streams through it; wrote tracks the total size.
type payloadCRC struct {
	c     Check
	off   int64
	crc   uint32
	wrote int64
}

func (p *payloadCRC) Write(b []byte) (int, error) {
	n := len(b)
	p.wrote += int64(n)
	lo, hi := p.c.DataOff, p.c.DataOff+p.c.Payload
	start, end := p.off, p.off+int64(n)
	p.off = end
	if s := max(start, lo); s < min(end, hi) {
		p.crc = crc32.Update(p.crc, crc32.IEEETable, b[s-start:min(end, hi)-start])
	}
	return n, nil
}

func (p *payloadCRC) ok() bool { return p.wrote == p.c.Size && p.crc == p.c.CRC }

func (p *payloadCRC) mismatch(name string) error {
	return MarkTransient(fmt.Errorf("segstore: %s: got %d bytes crc %08x, want %d bytes crc %08x: %w",
		name, p.wrote, p.crc, p.c.Size, p.c.CRC, ErrVerify), 0)
}

// Put stages the blob to name+".part", verifying size and payload CRC
// while the bytes stream, then fsyncs and renames it into place. The name
// is made durable by the next CommitKeydir's barrier directory fsync,
// before any keydir can refer to it — the engine's rule for segments. A
// failed or mismatched transfer removes the staging file and returns a
// transient error (source hiccups re-stream on retry); a crash leaves
// the ".part" for the engine's open-time sweep or a resumed sync.
func (l *Local) Put(ctx context.Context, name string, c Check, open func() (io.ReadCloser, error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !ValidBlobName(name) {
		return fmt.Errorf("segstore: invalid blob name %q", name)
	}
	rc, err := open()
	if err != nil {
		return err
	}
	defer rc.Close()

	part := filepath.Join(l.dir, name+".part")
	f, err := l.fs.Create(part)
	if err != nil {
		return fmt.Errorf("segstore: %w", err)
	}
	pc := &payloadCRC{c: c}
	fail := func(err error) error {
		f.Close()
		l.fs.Remove(part)
		return err
	}
	// Copy by hand so a source read failure (the remote stream died —
	// transient, retry re-streams) is told apart from a local write
	// failure (disk trouble — permanent).
	buf := make([]byte, 128<<10)
	for {
		n, rerr := rc.Read(buf)
		if n > 0 {
			if _, werr := f.Write(buf[:n]); werr != nil {
				return fail(fmt.Errorf("segstore: stage %s: %w", name, werr))
			}
			pc.Write(buf[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fail(MarkTransient(fmt.Errorf("segstore: read %s: %w", name, rerr), 0))
		}
	}
	if !pc.ok() {
		return fail(pc.mismatch(name))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("segstore: fsync %s: %w", part, err))
	}
	if err := f.Close(); err != nil {
		l.fs.Remove(part)
		return fmt.Errorf("segstore: close %s: %w", part, err)
	}
	if err := l.fs.Rename(part, filepath.Join(l.dir, name)); err != nil {
		l.fs.Remove(part)
		return fmt.Errorf("segstore: install %s: %w", name, err)
	}
	return nil
}

// Get opens the named blob for streaming.
func (l *Local) Get(ctx context.Context, name string) (io.ReadCloser, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if !ValidBlobName(name) {
		return nil, 0, fmt.Errorf("segstore: invalid blob name %q", name)
	}
	path := filepath.Join(l.dir, name)
	fi, err := l.fs.Stat(path)
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("segstore: %w", err)
	}
	f, err := l.fs.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("segstore: %w", err)
	}
	return f, fi.Size(), nil
}

// Has reports whether the named blob exists and verifies against c —
// size and payload CRC, the full install bar, so a resumed sync can
// trust a blob it did not just transfer.
func (l *Local) Has(ctx context.Context, name string, c Check) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	path := filepath.Join(l.dir, name)
	fi, err := l.fs.Stat(path)
	if errors.Is(err, iofs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("segstore: %w", err)
	}
	if fi.Size() != c.Size {
		return false, nil
	}
	f, err := l.fs.Open(path)
	if err != nil {
		return false, fmt.Errorf("segstore: %w", err)
	}
	defer f.Close()
	pc := &payloadCRC{c: c}
	if _, err := io.Copy(pc, f); err != nil {
		return false, fmt.Errorf("segstore: %w", err)
	}
	return pc.ok(), nil
}

// List names the installed blobs: every directory entry except the
// state files and transient staging/scratch files.
func (l *Local) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || isStateFile(n) || fsio.Transient(n) {
			continue
		}
		names = append(names, n)
	}
	return names, nil
}

// Delete removes the named blob; an absent blob is not an error.
func (l *Local) Delete(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !ValidBlobName(name) {
		return fmt.Errorf("segstore: invalid blob name %q", name)
	}
	if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return fmt.Errorf("segstore: %w", err)
	}
	return nil
}

// Keydir returns the committed state bundle. A missing keydir.idx means
// ErrNoKeydir (a fresh replica); a keydir without its dict or meta is a
// corrupted store and errors outright, and a directory holding a legacy
// monolithic archive is extmem.ErrLegacyFormat — never a fresh replica
// to sync over.
func (l *Local) Keydir(ctx context.Context) (*Bundle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := extmem.CheckLegacyLayout(l.fs, l.dir); err != nil {
		return nil, err
	}
	kd, err := l.fs.ReadFile(filepath.Join(l.dir, extmem.KeydirFileName))
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, ErrNoKeydir
	}
	if err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	dict, err := l.fs.ReadFile(filepath.Join(l.dir, extmem.DictFileName))
	if err != nil {
		return nil, fmt.Errorf("segstore: state bundle incomplete: %w", err)
	}
	meta, err := l.fs.ReadFile(filepath.Join(l.dir, extmem.MetaFileName))
	if err != nil {
		return nil, fmt.Errorf("segstore: state bundle incomplete: %w", err)
	}
	return &Bundle{Keydir: kd, Dict: dict, Meta: meta}, nil
}

// CommitKeydir installs the state bundle as one staged commit, the
// engine's own (extmem.CommitFiles): dict and meta are staged, fsynced
// and take their names;
// the barrier directory fsync makes them — and the names of the blobs Put
// installed — durable; then the keydir's rename, the replica's commit
// point, and the ack directory fsync. A crash before the keydir rename
// leaves the old keydir authoritative; the engine's open-time self-heal
// reconciles a newer dict/meta against it.
func (l *Local) CommitKeydir(ctx context.Context, b *Bundle) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if b == nil || len(b.Keydir) == 0 {
		return fmt.Errorf("segstore: refusing to commit an empty key directory")
	}
	return extmem.CommitFiles(l.fs, l.dir, []extmem.StateFile{
		{Name: extmem.DictFileName, Data: b.Dict},
		{Name: extmem.MetaFileName, Data: b.Meta},
		{Name: extmem.KeydirFileName, Data: b.Keydir},
	})
}
