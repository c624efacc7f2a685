package faulttest

import (
	"os"
	"path/filepath"
	"testing"
)

// The driver on the smallest commit there is: replace one file the durable
// way — create, write, fsync, rename, directory fsync — under every mode.
func TestMatrixReplaysEveryCrashPoint(t *testing.T) {
	res := Matrix{
		Setup: func(t *testing.T) Run {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "a"), []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			ffs := Tracked(t, dir)
			return Run{Faults: &ffs.Failpoints, Disk: ffs, Op: func() error {
				f, err := ffs.Create(filepath.Join(dir, "a.tmp"))
				if err != nil {
					return err
				}
				if _, err := f.Write([]byte("new")); err != nil {
					return err
				}
				if err := f.Sync(); err != nil {
					return err
				}
				f.Close()
				if err := ffs.Rename(filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")); err != nil {
					return err
				}
				return ffs.SyncDir(dir)
			}}
		},
		Modes: AllModes,
		Check: func(t *testing.T, p Point, dir string) bool {
			switch a := string(Files(t, dir)["a"]); a {
			case "old", "new":
				return a == "new"
			default:
				t.Errorf("%v: a = %q, want old or new", p, a)
				return false
			}
		},
	}.Run(t)
	// Five crash points, a torn replay at the write alone, and the clean
	// run, which alone returned nil.
	if res.Ops != 5 || res.Runs != 7 || res.Acked != 1 {
		t.Errorf("%+v: want 5 ops, 7 runs, 1 acknowledged", res)
	}
	if res.Pre+res.Post != res.Runs*len(AllModes) || res.Post < len(AllModes) {
		t.Errorf("%+v: every run checked under every mode, the clean one recovering to the new file", res)
	}
}
