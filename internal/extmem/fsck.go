package extmem

import (
	"bytes"
	"errors"
	"fmt"
	iofs "io/fs"
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
// includes a directory in a legacy layout (ErrLegacyFormat).
func CheckArchive(fs fsio.FS, dir string) (*CheckReport, error) {
	if fs == nil {
		fs = fsio.OS
	}
	r := &CheckReport{Clean: true}
	if _, err := fs.Stat(dir); err != nil {
		return nil, fmt.Errorf("extmem: fsck: %w", err)
	}
	if err := CheckLegacyLayout(fs, dir); err != nil {
		return nil, err
	}

	// Key directory: authoritative when its whole-file checksum holds.
	var d *keyDirectory
	var decErr error
	kdData, kdErr := fs.ReadFile(filepath.Join(dir, keydirFile))
	if kdErr == nil {
		if d, decErr = decodeKeyDirectory(kdData); errors.Is(decErr, ErrLegacyFormat) {
			return nil, decErr
		}
	}

	// Dictionary: segment payloads reference names by id, so a dead
	// dictionary makes every deeper check impossible, and one shorter than
	// the key directory records has lost names the segments may use.
	var dict *dictionary
	if df, err := fs.Open(filepath.Join(dir, dictFile)); err != nil {
		r.add(dictFile, "dict", false, fmt.Sprintf("unreadable: %v", err))
	} else {
		dict, err = loadDictionary(df)
		df.Close()
		switch {
		case err != nil:
			dict = nil
			r.add(dictFile, "dict", false, fmt.Sprintf("corrupt: %v", err))
		case d != nil && len(dict.names) < d.names:
			r.add(dictFile, "dict", false, shortDictf(len(dict.names), d.names).Error())
		default:
			r.add(dictFile, "dict", true, "loads")
		}
	}

	switch {
	case errors.Is(kdErr, iofs.ErrNotExist):
		r.add(keydirFile, "keydir", false, "missing (rebuilt from meta.txt on open)")
	case kdErr != nil:
		r.add(keydirFile, "keydir", false, fmt.Sprintf("unreadable: %v", kdErr))
	case decErr != nil:
		r.add(keydirFile, "keydir", false, fmt.Sprintf("%v (rebuilt from meta.txt on open)", decErr))
	default:
		r.add(keydirFile, "keydir", true, "checksum valid")
	}

	// Meta backup: the recovery source when the key directory is dead,
	// a consistency cross-check when it is not.
	var meta *keyDirectory
	metaData, metaErr := fs.ReadFile(filepath.Join(dir, metaFile))
	switch {
	case errors.Is(metaErr, iofs.ErrNotExist):
		r.add(metaFile, "meta", false, "missing (rewritten from keydir.idx on open)")
	case metaErr != nil:
		r.add(metaFile, "meta", false, fmt.Sprintf("unreadable: %v", metaErr))
	default:
		var err error
		if meta, err = parseMetaV2(bytes.NewReader(metaData)); err != nil {
			meta = nil
			r.add(metaFile, "meta", false, fmt.Sprintf("corrupt backup: %v", err))
		} else if d != nil && !metaMatches(metaData, d) {
			r.add(metaFile, "meta", false, "stale backup, disagrees with keydir.idx (self-healed on open)")
		} else {
			r.add(metaFile, "meta", true, "parses")
		}
	}

	// Segments. With a live key directory, verify every referenced file
	// against its directory record; otherwise fall back to the meta
	// backup's file list, checking each segment against its own header
	// (the rebuild path's ingredients).
	live := map[string]bool{}
	switch {
	case d != nil:
		r.Versions = d.versions
		for _, root := range d.roots {
			for _, seg := range root.segs {
				live[seg.file] = true
				// verifySegment also decodes the dictionary and walks
				// every token, so a dangling dictionary id, a directory
				// entry that points beside its subtree or a posting that
				// disagrees with its record fails here like a bad checksum.
				if err := verifySegment(fs, filepath.Join(dir, seg.file), d, root, seg, dict); err != nil {
					r.add(seg.file, "segment", false, err.Error())
				} else {
					r.add(seg.file, "segment", true, "checksums, dictionary ids, directory entries and postings valid")
				}
			}
		}
	case meta != nil:
		r.Versions = meta.versions
		for _, root := range meta.roots {
			for _, seg := range root.segs {
				live[seg.file] = true
				if dict == nil {
					r.add(seg.file, "segment", false, "unverifiable: dictionary unavailable")
					continue
				}
				h, _, err := walkSegment(fs, filepath.Join(dir, seg.file), dict)
				if errors.Is(err, ErrLegacyFormat) {
					return nil, err
				} else if err == nil {
					err = h.postErr
				}
				if err != nil {
					r.add(seg.file, "segment", false, err.Error())
				} else {
					r.add(seg.file, "segment", true, "self-checksum valid")
				}
			}
		}
	}

	// Crash leftovers on disk: orphan segments no committed state
	// references, transient scratch/rename files, and the degraded
	// marker. All are removed by repair.
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
			if (d != nil || meta != nil) && !live[n] {
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
// It returns the post-repair report.
func RepairArchive(fs fsio.FS, dir string, spec *keys.Spec, cfg Config) (*CheckReport, error) {
	if fs == nil {
		fs = fsio.OS
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
