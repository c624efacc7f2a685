package fsio

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
)

// The outage model. CrashAfter kills the process: everything the
// operations before the crash point wrote is still there, synced or not,
// so a protocol with no fsync at all survives it. A power failure is
// harsher — it is sure to keep of a file only what its last fsync covered,
// and of a directory only the names its last fsync covered. TrackDurability makes
// a FaultFS remember exactly that for one directory, and PowerLoss writes
// out the directory an outage would leave, so a test can reopen it.

// PowerLossMode selects what survives the outage: the three power-failure
// modes, or ProcessKill, which loses nothing the kernel held.
type PowerLossMode int

const (
	// PowerLossStrict keeps the directory's names as of its last SyncDir
	// and every file's bytes as of its last Sync: nothing the protocol did
	// not force to disk survives.
	PowerLossStrict PowerLossMode = iota
	// PowerLossNamesAhead keeps the directory's current names — every
	// create, rename and remove reached the disk — but still only the
	// bytes each file's last Sync covered; a file never synced comes back
	// empty. This is the rename-without-fsync outcome: the new name
	// points at a file whose data was never written.
	PowerLossNamesAhead
	// PowerLossLastNameOnly keeps the names as of the last SyncDir plus
	// the single most recent create, rename or remove, and synced bytes:
	// the directory updates since the last SyncDir reached the disk out
	// of order. This is what a barrier SyncDir is for: without one
	// between them, a commit-point rename can survive an outage that the
	// names it depends on did not.
	PowerLossLastNameOnly
	// ProcessKill keeps the tracked directory exactly as the kernel held
	// it — every name and every byte written, synced or not: what a killed
	// process leaves behind while the machine stays up.
	ProcessKill
)

func (m PowerLossMode) String() string {
	return [...]string{"strict", "names-ahead", "last-name-only", "process-kill"}[m]
}

// durFile is one file identity: it follows the file across renames and
// survives the removal of its last name, as an inode does.
type durFile struct {
	synced []byte // content covered by the last Sync; nil if never synced
}

// durModel is the durable state of one directory.
type durModel struct {
	dir     string
	names   map[string]*durFile // the live name table
	durable map[string]*durFile // the name table as of the last SyncDir
	// last is the most recent name change since then, as the assignments
	// it made (nil unbinds the name); nil when there was none.
	last map[string]*durFile
}

// TrackDurability starts the power-loss model for dir. The files in it
// now — a fixture the test copied in — count as durable, names and bytes.
// Operations on paths outside dir are not modelled.
func (f *FaultFS) TrackDurability(dir string) error {
	ents, err := f.inner.ReadDir(dir)
	if err != nil {
		return err
	}
	m := &durModel{dir: filepath.Clean(dir), names: map[string]*durFile{}}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := f.inner.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		m.names[e.Name()] = &durFile{synced: data}
	}
	m.durable = maps.Clone(m.names)
	f.mu.Lock()
	f.dur = m
	f.mu.Unlock()
	return nil
}

// PowerLoss writes into dst (an empty directory) what a power failure at
// this moment would leave of the tracked directory under mode.
func (f *FaultFS) PowerLoss(dst string, mode PowerLossMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dur == nil {
		return fmt.Errorf("fsio: PowerLoss without TrackDurability")
	}
	if mode == ProcessKill {
		return f.copyLive(dst)
	}
	names := f.dur.durable
	switch mode {
	case PowerLossNamesAhead:
		names = f.dur.names
	case PowerLossLastNameOnly:
		names = maps.Clone(names)
		maps.Copy(names, f.dur.last)
	}
	for name, file := range names {
		if file == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dst, name), file.synced, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// copyLive copies the tracked directory's regular files, as they are now,
// into dst. Callers hold f.mu.
func (f *FaultFS) copyLive(dst string) error {
	ents, err := f.inner.ReadDir(f.dur.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := f.inner.ReadFile(filepath.Join(f.dur.dir, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// tracked returns the model and the file's name in it, or nil when path
// is outside the tracked directory. Callers hold f.mu.
func (f *FaultFS) tracked(path string) (*durModel, string) {
	if f.dur == nil || filepath.Dir(filepath.Clean(path)) != f.dur.dir {
		return nil, ""
	}
	return f.dur, filepath.Base(path)
}

// durCreate records a create-or-truncate: an existing file keeps its
// identity (and what was synced of it), a new name gets a fresh one.
func (f *FaultFS) durCreate(path string) *durFile {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, name := f.tracked(path)
	if m == nil {
		return nil
	}
	file := m.names[name]
	if file == nil {
		file = &durFile{}
		m.names[name] = file
		m.last = map[string]*durFile{name: file}
	}
	return file
}

func (f *FaultFS) durRename(oldpath, newpath string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dur == nil {
		return
	}
	var file *durFile
	last := map[string]*durFile{}
	if m, name := f.tracked(oldpath); m != nil {
		file = m.names[name]
		delete(m.names, name)
		last[name] = nil
	}
	if m, name := f.tracked(newpath); m != nil {
		if file == nil {
			file = &durFile{} // moved in from outside the model: never synced
		}
		m.names[name] = file
		last[name] = file
	}
	if len(last) > 0 {
		f.dur.last = last
	}
}

func (f *FaultFS) durRemove(path string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, name := f.tracked(path); m != nil {
		delete(m.names, name)
		m.last = map[string]*durFile{name: nil}
	}
}

func (f *FaultFS) durSyncDir(dir string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dur != nil && filepath.Clean(dir) == f.dur.dir {
		f.dur.durable = maps.Clone(f.dur.names)
		f.dur.last = nil
	}
}

// durSync records that everything written to the file so far is on disk.
// The bytes are read back through the path the handle was opened with;
// the archiver closes a file before it renames it.
func (f *FaultFS) durSync(ff *faultFile) error {
	if ff.dur == nil {
		return nil
	}
	data, err := f.inner.ReadFile(ff.path)
	if err != nil {
		return fmt.Errorf("fsio: power-loss model: %w", err)
	}
	f.mu.Lock()
	ff.dur.synced = data
	f.mu.Unlock()
	return nil
}
