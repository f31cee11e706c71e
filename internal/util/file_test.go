package util

import (
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists dir's entries by name.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestAtomicWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "META")
	for _, content := range []string{"first\n", "second, longer\n", "3\n"} {
		if err := AtomicWriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("read %q, want %q", got, content)
		}
		if names := dirNames(t, dir); len(names) != 1 || names[0] != "META" {
			t.Fatalf("directory holds %v after a write, want only META", names)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", fi.Mode().Perm())
	}
}

func TestAtomicWriteFileFailedRenameLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	// A non-empty directory in the target's place makes the rename fail.
	path := filepath.Join(dir, "META")
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("x"), 0o644); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "META" {
		t.Fatalf("directory holds %v after a failed write, want only META", names)
	}
}
