package extmem

import (
	"fmt"
	"path/filepath"
	"strings"

	"xarch/internal/fsio"
	"xarch/internal/keys"
)

// Offline verification and repair. CheckArchive inspects an archive
// directory without mutating anything: metadata decode and checksum,
// per-segment payload CRCs, cross-references between the key directory
// and what is actually on disk, and crash leftovers (orphan segments,
// transient files, a DEGRADED marker). RepairArchive reuses the open
// path's recovery machinery — keydir rebuild from the meta backup,
// meta self-heal, leftover sweep — then clears the marker once the
// directory verifies clean. `xarch fsck` and `xarch inspect -verify`
// are thin wrappers over these.

// CheckItem is one fsck finding about one file (or one consistency
// relation between files).
type CheckItem struct {
	File   string // base name within the archive directory
	Kind   string // keydir | meta | dict | segment | orphan | transient | marker
	OK     bool   // the item verifies; false items carry a Detail
	Detail string // what is wrong, or a short status for OK items
}

// CheckReport is the result of one offline verification pass.
type CheckReport struct {
	Items    []CheckItem
	Versions int // committed version count per the best available directory
	// Clean reports that every check passed and nothing is left to
	// repair: metadata decodes with valid checksums, every referenced
	// segment verifies, and no crash leftovers (orphans, transient
	// files, a degraded marker) are present.
	Clean bool
}

// Problems returns the non-OK items.
func (r *CheckReport) Problems() []CheckItem {
	var out []CheckItem
	for _, it := range r.Items {
		if !it.OK {
			out = append(out, it)
		}
	}
	return out
}

func (r *CheckReport) add(file, kind string, ok bool, detail string) {
	r.Items = append(r.Items, CheckItem{File: file, Kind: kind, OK: ok, Detail: detail})
	if !ok {
		r.Clean = false
	}
}

// CheckArchive verifies the archive directory without opening it for
// writing and without mutating any file. It reports per-file status
// rather than failing on the first problem; the returned error is
// reserved for not being able to inspect the directory at all — which
// includes a directory in a legacy layout (ErrLegacyFormat). The state
// files are read and classified by the loader Open acts on (loadState),
// and each finding on them says what Open does about it.
func CheckArchive(fs fsio.FS, dir string) (*CheckReport, error) {
	if fs == nil {
		fs = fsio.OS
	}
	r := &CheckReport{Clean: true}
	if _, err := fs.Stat(dir); err != nil {
		return nil, fmt.Errorf("extmem: fsck: %w", err)
	}
	st, err := loadState(fs, dir)
	if err != nil {
		return nil, err
	}
	for _, f := range []struct {
		file, kind string
		err        error
		ok         string
	}{
		{keydirFile, "keydir", st.kdErr, "checksum valid"},
		{dictFile, "dict", st.dictErr, "loads"},
		{metaFile, "meta", st.metaErr, "backs up keydir.idx"},
	} {
		if f.err != nil {
			r.add(f.file, f.kind, false, fmt.Sprintf("%v (%s)", f.err, st.action()))
		} else {
			r.add(f.file, f.kind, true, f.ok)
		}
	}

	// Segments: every file of the directory Open would publish, decoded or
	// rebuilt, verified against its directory record.
	live := map[string]bool{}
	if st.d != nil {
		r.Versions = st.d.versions
		live = st.d.files()
		for _, root := range st.d.roots {
			for _, seg := range root.segs {
				// verifySegment also decodes the dictionary and walks
				// every token, so a dangling dictionary id, a directory
				// entry that points beside its subtree or a posting that
				// disagrees with its record fails here like a bad checksum.
				if err := verifySegment(fs, filepath.Join(dir, seg.file), st.d, root, seg, st.dict); err != nil {
					r.add(seg.file, "segment", false, err.Error())
				} else {
					r.add(seg.file, "segment", true, "checksums, dictionary ids, directory entries and postings valid")
				}
			}
		}
	}

	// Crash leftovers on disk: segments the directory Open publishes does
	// not reference (every one, on a fresh start), transient scratch and
	// rename files, and the degraded marker. Open removes the first two
	// unless it refuses the directory; repair clears the marker.
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("extmem: fsck: %w", err)
	}
	for _, e := range ents {
		n := e.Name()
		switch {
		case fsio.Transient(n):
			r.add(n, "transient", false, "crash leftover (swept on open)")
		case strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".tok"):
			if st.verdict != stateRefused && !live[n] {
				r.add(n, "orphan", false, "segment not referenced by any committed state (swept on open)")
			}
		case n == degradedMarker:
			data, _ := fs.ReadFile(filepath.Join(dir, n))
			r.add(n, "marker", false, "writer was degraded: "+strings.TrimSpace(string(data)))
		}
	}
	return r, nil
}

// RepairArchive restores an archive directory to a clean state: opening
// it runs the recovery machinery (key directory rebuild from the meta
// backup, meta self-heal, sweep of orphan segments and transient
// files), closing commits the result, and a leftover DEGRADED marker is
// cleared once — and only once — the repaired directory verifies clean.
// It returns the post-repair report. A directory Open would start afresh
// while segment files remain is left as it is: the error names the files
// that start would delete, which only Open itself may do.
func RepairArchive(fs fsio.FS, dir string, spec *keys.Spec, cfg Config) (*CheckReport, error) {
	if fs == nil {
		fs = fsio.OS
	}
	st, err := loadState(fs, dir)
	if err != nil {
		return nil, err
	}
	if segs := globSegments(fs, dir); st.verdict == stateFresh && len(segs) > 0 {
		for i, p := range segs {
			segs[i] = filepath.Base(p)
		}
		return nil, fmt.Errorf("extmem: fsck: repair refused, nothing changed: %s (%s: %v; %s: %v; %s: %v) and deletes the %d segment files %s",
			st.action(), keydirFile, st.kdErr, dictFile, st.dictErr, metaFile, st.metaErr, len(segs), strings.Join(segs, ", "))
	}
	cfg.FS = fs
	ar, err := Open(dir, spec, cfg)
	if err != nil {
		return nil, err
	}
	if err := ar.Close(); err != nil {
		return nil, err
	}
	marker := filepath.Join(dir, degradedMarker)
	hadMarker := false
	if _, err := fs.Stat(marker); err == nil {
		hadMarker = true
	}
	r, err := CheckArchive(fs, dir)
	if err != nil {
		return nil, err
	}
	if hadMarker && len(r.Problems()) == 1 && r.Problems()[0].Kind == "marker" {
		if err := fs.Remove(marker); err != nil {
			return nil, fmt.Errorf("extmem: fsck: clear marker: %w", err)
		}
		return CheckArchive(fs, dir)
	}
	return r, nil
}
