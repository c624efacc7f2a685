package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xarch"
)

// TestAddEmptyFileArchivesEmptyVersion: `xarch get` prints nothing for an
// empty version, and `xarch add` of that empty file archives an empty
// version again, so get and add move every version of an archive.
func TestAddEmptyFileArchivesEmptyVersion(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	keys := write("keys.txt", "(/, (db, {}))\n")
	archive := filepath.Join(dir, "arch")
	for _, v := range []string{write("v1.xml", "<db><x>1</x></db>"), write("empty.xml", "")} {
		if err := cmdAdd([]string{"-engine", "ext", "-spec", keys, "-archive", archive, v}); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := loadSpec(keys)
	if err != nil {
		t.Fatal(err)
	}
	s, err := xarch.OpenStore(archive, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Versions() != 2 {
		t.Fatalf("%d versions, want 2", s.Versions())
	}
	if doc, err := s.Version(2); err != nil || doc != nil {
		t.Fatalf("version 2 = %v, %v; want the empty version", doc, err)
	}
}

// TestAddFromPipeArchivesItsDocument: a pipe reports size 0 whatever it
// carries, so `xarch add` must read it, not take it for an empty version.
func TestAddFromPipeArchivesItsDocument(t *testing.T) {
	dir := t.TempDir()
	keys := filepath.Join(dir, "keys.txt")
	if err := os.WriteFile(keys, []byte("(/, (db, {}))\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	go func() {
		pw.WriteString("<db><x>1</x></db>")
		pw.Close()
	}()
	archive := filepath.Join(dir, "arch")
	src := fmt.Sprintf("/dev/fd/%d", pr.Fd())
	if err := cmdAdd([]string{"-engine", "ext", "-spec", keys, "-archive", archive, src}); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(keys)
	if err != nil {
		t.Fatal(err)
	}
	s, err := xarch.OpenStore(archive, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	doc, err := s.Version(1)
	if err != nil || doc == nil || len(doc.Children) != 1 {
		t.Fatalf("version 1 = %v, %v; want the piped document", doc, err)
	}
}

// TestMemAddSavesTheSnapshot: the in-memory engine's archive file is saved
// by the staged commit, so after each add it holds exactly what Snapshot
// writes and no staged ".tmp" is left beside it.
func TestMemAddSavesTheSnapshot(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	keys := write("keys.txt", "(/, (db, {}))\n(/db, (r, {id}))\n")
	archive := filepath.Join(dir, "arch.xml")
	flags := []string{"-engine", "mem", "-spec", keys, "-archive", archive}
	for i, v := range []string{"<db><r><id>1</id></r></db>", "<db><r><id>1</id></r><r><id>2</id></r></db>"} {
		if err := cmdAdd(append(flags, write(fmt.Sprintf("v%d.xml", i+1), v))); err != nil {
			t.Fatal(err)
		}
		fs := flag.NewFlagSet("snapshot", flag.ContinueOnError)
		sf := addStoreFlags(fs)
		if err := fs.Parse(flags); err != nil {
			t.Fatal(err)
		}
		store, _, err := openStore(sf, false)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		err = store.Snapshot(&want)
		n := store.Versions()
		store.Close()
		if err != nil || n != i+1 {
			t.Fatalf("add %d: %d versions, %v", i+1, n, err)
		}
		if got, err := os.ReadFile(archive); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("add %d: saved file (%v) differs from Snapshot's %d bytes", i+1, err, want.Len())
		}
		if _, err := os.Stat(archive + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("add %d left a staged file: %v", i+1, err)
		}
	}
}

// TestGetStreamsVersion: on both engines `xarch get` prints what
// WriteVersion writes, an empty version as a line on stderr, and a
// version the archive lacks as exit code 4.
func TestGetStreamsVersion(t *testing.T) {
	for _, engine := range []string{"mem", "ext"} {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			write := func(name, data string) string {
				t.Helper()
				p := filepath.Join(dir, name)
				if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
				return p
			}
			keys := write("keys.txt", "(/, (db, {}))\n(/db, (r, {id}))\n(/db/r, (t, {}))\n")
			archive := filepath.Join(dir, "arch")
			flags := []string{"-engine", engine, "-spec", keys, "-archive", archive}
			for _, v := range []string{
				write("v1.xml", `<db><r><id>1</id><t a="&quot;">x &amp; y</t></r><r><id>2</id><t><e/></t></r></db>`),
				write("empty.xml", ""),
			} {
				if err := cmdAdd(append(flags, v)); err != nil {
					t.Fatal(err)
				}
			}
			// get runs `xarch get` with its stdout and stderr in files.
			get := func(v int) (stdout, stderr string, err error) {
				t.Helper()
				saved, savedErr := os.Stdout, os.Stderr
				defer func() { os.Stdout, os.Stderr = saved, savedErr }()
				var files [2]*os.File
				for i, name := range []string{"stdout", "stderr"} {
					if files[i], err = os.Create(filepath.Join(dir, name)); err != nil {
						t.Fatal(err)
					}
					defer files[i].Close()
				}
				os.Stdout, os.Stderr = files[0], files[1]
				err = cmdGet(append(flags, "-version", fmt.Sprint(v)))
				o, oerr := os.ReadFile(files[0].Name())
				e, eerr := os.ReadFile(files[1].Name())
				if oerr != nil || eerr != nil {
					t.Fatal(oerr, eerr)
				}
				return string(o), string(e), err
			}

			fs := flag.NewFlagSet("get", flag.ContinueOnError)
			sf := addStoreFlags(fs)
			if err := fs.Parse(flags); err != nil {
				t.Fatal(err)
			}
			store, _, err := openStore(sf, false)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			err = store.WriteVersion(1, &want)
			store.Close()
			if err != nil || want.Len() == 0 {
				t.Fatalf("WriteVersion(1) wrote %d bytes: %v", want.Len(), err)
			}

			if out, errOut, err := get(1); err != nil || out != want.String() || errOut != "" {
				t.Errorf("get 1: %v, stdout %q, stderr %q; want stdout %q", err, out, errOut, want.String())
			}
			if out, errOut, err := get(2); err != nil || out != "" || errOut != "version 2 is an empty database\n" {
				t.Errorf("get 2: %v, stdout %q, stderr %q", err, out, errOut)
			}
			_, _, err = get(3)
			if exitCode(err) != 4 || err == nil || !strings.Contains(err.Error(), "version 3 does not exist (archive has 2)") {
				t.Errorf("get 3: %v, exit code %d; want 4", err, exitCode(err))
			}
		})
	}
}
