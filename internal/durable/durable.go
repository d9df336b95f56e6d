// Package durable is the one way this repository replaces a file on disk: the
// WAL's shard pin and the forwarder and campaign cursors all go through
// ReplaceFile.
package durable

import (
	"io"
	"os"
	"path/filepath"

	"encore/internal/faultinject"
)

// ReplaceFile atomically replaces path with whatever write produces: the
// bytes go to path+".tmp", are fsynced, and are renamed over path, so a crash
// at any instant leaves the previous contents or the new ones. Any failure
// removes the temporary file and leaves path untouched.
//
// The parent directory is fsynced only when the rename created the name: an
// overwrite already resolves to the old file or the new one after a crash,
// whereas a name that never existed can vanish with its directory entry. That
// keeps a frequent caller (the forwarder's cursor save) at one fsync.
func ReplaceFile(fs faultinject.FS, path string, write func(io.Writer) error) error {
	old, err := fs.Open(path)
	created := os.IsNotExist(err)
	if err == nil {
		old.Close()
	}
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	if created {
		return SyncDir(fs, filepath.Dir(path))
	}
	return nil
}

// SyncDir fsyncs a directory so the renames and removals in it are durable.
func SyncDir(fs faultinject.FS, dir string) error {
	d, err := fs.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
