package fault

import (
	"io/fs"
	"os"
)

// File is the subset of *os.File the durability path needs. Injected
// implementations wrap a real file and interpose on Write and Sync.
type File interface {
	Name() string
	ReadAt(p []byte, off int64) (int, error)
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS abstracts every filesystem operation internal/wal and
// internal/snapshot perform, so faults can be injected at the exact
// syscall the real failure would hit. The zero tool is OS(); tests wrap it
// in an Injector.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames and segment creations
	// within it durable.
	SyncDir(dir string) error
}

// osFS is the passthrough production filesystem.
type osFS struct{}

// OS returns the real filesystem. It is stateless; every call returns an
// equivalent value.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) RemoveAll(path string) error          { return os.RemoveAll(path) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }
func (osFS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
