package util

import (
	"os"
	"path/filepath"
)

// AtomicWriteFile replaces path with data durably: it writes a temporary
// file in path's directory, fsyncs it, renames it over path, and fsyncs
// the directory so the rename itself survives a crash. A crash at any
// point leaves either the old contents or the new ones, never a torn
// file, and the temporary file is removed on every failure.
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
