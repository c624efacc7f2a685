package main

import (
	"fmt"
	"os"
	"path/filepath"
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
	if err := cmdAdd([]string{"-engine", "ext", "-novalidate", "-spec", keys, "-archive", archive, src}); err != nil {
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
