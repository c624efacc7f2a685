package xarch

import (
	"xarch/internal/extmem"
)

// CheckReport is the result of one offline verification pass over an
// external archive directory; see CheckStore.
type CheckReport = extmem.CheckReport

// CheckItem is one fsck finding; see CheckStore.
type CheckItem = extmem.CheckItem

// CheckStore verifies an external archive directory without opening it
// for writing and without mutating any file: metadata decode and
// checksums, per-segment payload CRCs, and crash leftovers (orphan
// segments, transient files, a degraded-writer marker). The report's
// Clean field is the headline answer; `xarch fsck` prints the items. A
// directory in a legacy on-disk layout is not inspected: the error is
// ErrLegacyFormat.
func CheckStore(dir string, opts ...Option) (*CheckReport, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return extmem.CheckArchive(cfg.fs, dir)
}

// RepairStore restores an external archive directory to a clean state:
// it runs the open path's recovery machinery (key directory rebuild
// from the meta backup, meta self-heal, sweep of orphan segments and
// transient files) and clears a leftover degraded-writer marker once
// the repaired directory verifies clean. It returns the post-repair
// report; `xarch fsck -repair` is a thin wrapper. A directory whose state
// files opening would treat as a fresh start while segment files remain
// is left untouched, with an error naming the files that start would
// delete.
func RepairStore(dir string, spec *KeySpec, opts ...Option) (*CheckReport, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return extmem.RepairArchive(cfg.fs, dir, spec, extmem.Config{
		Budget:        cfg.budget,
		SegmentTarget: cfg.segTarget,
	})
}
