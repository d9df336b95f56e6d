package faultinject

// The disk surface. FS is the narrow filesystem interface the WAL performs
// all its I/O through; OS() is the transparent host-filesystem
// implementation production code uses, and FaultFS wraps the host
// filesystem with deterministic, imperatively triggered faults — failing
// fsyncs, exhausted write budgets (ENOSPC), short writes, and a Crash that
// models a machine dying: everything written but not fsynced is discarded,
// optionally leaving a torn partial frame at the tail exactly the way a
// real crash mid-append does.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Injected disk errors. They are distinct sentinel values so tests can
// assert which fault a sticky WAL error came from.
var (
	// ErrInjectedFsync is returned by Sync while fsync failures are armed.
	ErrInjectedFsync = errors.New("faultinject: fsync failed (injected)")
	// ErrInjectedNoSpace is returned by Write once the write budget is
	// exhausted, modelling ENOSPC.
	ErrInjectedNoSpace = errors.New("faultinject: no space left on device (injected)")
	// ErrCrashed is returned by every operation after Crash; the "process"
	// that held this FS is dead and a recovery must reopen through a fresh
	// filesystem.
	ErrCrashed = errors.New("faultinject: filesystem crashed (injected)")
)

// File is the per-file surface the WAL needs: sequential reads and writes, a
// seek for the tail reader that resumes where it stopped, fsync, and close.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file to stable storage.
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface the WAL performs all its I/O through.
// Methods mirror the os/filepath functions they replace, including error
// semantics (os.IsNotExist works on returned errors).
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Glob(pattern string) ([]string, error)
}

// osFS is the transparent host-filesystem implementation.
type osFS struct{}

// OS returns the host filesystem; the implementation production code (and
// any WALConfig with a nil FS) uses.
func OS() FS { return osFS{} }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

// FaultFSStats counts the faults a FaultFS actually injected.
type FaultFSStats struct {
	// Writes and Syncs count operations that went through (including
	// faulted ones).
	Writes uint64
	Syncs  uint64
	// FsyncFailures, NoSpaceFailures, and ShortWrites count injected
	// faults by kind.
	FsyncFailures   uint64
	NoSpaceFailures uint64
	ShortWrites     uint64
	// TruncatedFiles counts files Crash cut back to their fsynced length.
	TruncatedFiles int
}

// fileState tracks the durable vs written extent of one file the FaultFS
// opened for writing. It survives Close and follows the file through
// Rename, because a crash must also discard unsynced bytes of files the
// process had already closed without fsyncing.
type fileState struct {
	path    string
	written int64 // bytes handed to the OS
	synced  int64 // bytes known to be on stable storage
}

// FaultFS wraps the host filesystem with deterministic fault injection. All
// faults are armed imperatively (InjectFsyncFailures, SetWriteBudget,
// InjectShortWrites, Crash) so a chaos schedule controls exactly when each
// one starts; nothing fires on its own. Safe for concurrent use.
//
// FaultFS writes real files (it is a wrapper, not an in-memory double), so
// recovery paths exercise the same on-disk bytes a production restart
// would: after Crash, reopen the directory through OS() and replay.
type FaultFS struct {
	mu    sync.Mutex
	files map[string]*fileState

	fsyncErr    error // non-nil: Sync fails
	writeBudget int64 // >= 0: bytes remaining before ENOSPC
	shortWrites int   // > 0: next writes persist a prefix and fail
	crashed     bool

	stats FaultFSStats
}

// NewFaultFS returns a FaultFS over the host filesystem with no faults
// armed; until one is, it behaves exactly like OS().
func NewFaultFS() *FaultFS {
	return &FaultFS{files: make(map[string]*fileState), writeBudget: -1}
}

// InjectFsyncFailures arms fsync failure: every subsequent Sync fails with
// ErrInjectedFsync until ClearFsyncFailures.
func (fs *FaultFS) InjectFsyncFailures() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.fsyncErr = ErrInjectedFsync
}

// ClearFsyncFailures disarms fsync failure.
func (fs *FaultFS) ClearFsyncFailures() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.fsyncErr = nil
}

// SetWriteBudget arms ENOSPC: after n more bytes are written (across all
// files), writes fail with ErrInjectedNoSpace. n = 0 fails the next write;
// a negative n disarms the budget.
func (fs *FaultFS) SetWriteBudget(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writeBudget = n
}

// InjectShortWrites arms n short writes: each persists only half its bytes
// and returns an error wrapping io.ErrShortWrite, the way a write cut off
// by a signal or a filling disk surfaces.
func (fs *FaultFS) InjectShortWrites(n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.shortWrites = n
}

// Crash models the machine dying: every file this FS wrote is truncated
// back to its last fsynced length — discarding bytes the OS had accepted
// but not persisted — except that up to tornBytes of the unsynced suffix
// are kept, leaving the partial frame a real crash strands at a log's tail.
// After Crash every operation returns ErrCrashed; recovery must reopen the
// directory through a fresh filesystem (OS()). It returns the number of
// files truncated.
func (fs *FaultFS) Crash(tornBytes int64) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return 0, ErrCrashed
	}
	fs.crashed = true
	truncated := 0
	for _, st := range fs.files {
		keep := st.synced
		if extra := st.written - st.synced; extra > 0 {
			if extra > tornBytes {
				extra = tornBytes
			}
			keep += extra
		}
		if keep < st.written {
			if err := os.Truncate(st.path, keep); err != nil {
				return truncated, fmt.Errorf("faultinject: crash truncate %s: %w", st.path, err)
			}
			truncated++
		}
	}
	fs.stats.TruncatedFiles = truncated
	return truncated, nil
}

// Stats returns the injected-fault counters.
func (fs *FaultFS) Stats() FaultFSStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// state returns (creating if needed) the tracking entry for a file opened
// for writing; fs.mu held.
func (fs *FaultFS) state(path string) *fileState {
	st, ok := fs.files[path]
	if !ok {
		st = &fileState{path: path}
		fs.files[path] = st
	}
	return st
}

func (fs *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if err := fs.check(); err != nil {
		return err
	}
	return os.MkdirAll(path, perm)
}

// check returns ErrCrashed once Crash has run.
func (fs *FaultFS) check() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	return nil
}

func (fs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	fs.mu.Lock()
	if fs.crashed {
		fs.mu.Unlock()
		return nil, ErrCrashed
	}
	var st *fileState
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		st = fs.state(name)
		if flag&os.O_TRUNC != 0 {
			st.written, st.synced = 0, 0
		}
	}
	fs.mu.Unlock()
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, f: f, st: st}, nil
}

func (fs *FaultFS) Open(name string) (File, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, f: f}, nil
}

func (fs *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	return os.ReadFile(name)
}

func (fs *FaultFS) Rename(oldpath, newpath string) error {
	if err := fs.check(); err != nil {
		return err
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	fs.mu.Lock()
	if st, ok := fs.files[oldpath]; ok {
		delete(fs.files, oldpath)
		st.path = newpath
		fs.files[newpath] = st
	}
	fs.mu.Unlock()
	return nil
}

func (fs *FaultFS) Remove(name string) error {
	if err := fs.check(); err != nil {
		return err
	}
	if err := os.Remove(name); err != nil {
		return err
	}
	fs.mu.Lock()
	delete(fs.files, name)
	fs.mu.Unlock()
	return nil
}

func (fs *FaultFS) Glob(pattern string) ([]string, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	return filepath.Glob(pattern)
}

// faultFile is the File handle FaultFS issues. st is nil for read-only
// opens, which inject nothing.
type faultFile struct {
	fs *FaultFS
	f  *os.File
	st *fileState
}

func (f *faultFile) Name() string { return f.f.Name() }

func (f *faultFile) Read(p []byte) (int, error) {
	if err := f.fs.check(); err != nil {
		return 0, err
	}
	return f.f.Read(p)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) { return f.f.Seek(offset, whence) }

func (f *faultFile) Write(p []byte) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	if fs.crashed {
		fs.mu.Unlock()
		return 0, ErrCrashed
	}
	fs.stats.Writes++
	n := len(p)
	var injected error
	if fs.writeBudget >= 0 {
		if int64(n) > fs.writeBudget {
			n = int(fs.writeBudget)
			injected = ErrInjectedNoSpace
			fs.stats.NoSpaceFailures++
		}
		fs.writeBudget -= int64(n)
	}
	if injected == nil && fs.shortWrites > 0 {
		fs.shortWrites--
		n = n / 2
		injected = fmt.Errorf("faultinject: %w (injected)", io.ErrShortWrite)
		fs.stats.ShortWrites++
	}
	fs.mu.Unlock()
	wrote, err := f.f.Write(p[:n])
	if f.st != nil {
		fs.mu.Lock()
		f.st.written += int64(wrote)
		fs.mu.Unlock()
	}
	if err != nil {
		return wrote, err
	}
	return wrote, injected
}

func (f *faultFile) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	if fs.crashed {
		fs.mu.Unlock()
		return ErrCrashed
	}
	fs.stats.Syncs++
	if fs.fsyncErr != nil {
		fs.stats.FsyncFailures++
		err := fs.fsyncErr
		fs.mu.Unlock()
		return err
	}
	fs.mu.Unlock()
	if err := f.f.Sync(); err != nil {
		return err
	}
	if f.st != nil {
		fs.mu.Lock()
		f.st.synced = f.st.written
		fs.mu.Unlock()
	}
	return nil
}

func (f *faultFile) Close() error {
	// Close even after Crash so file descriptors are not leaked; the data's
	// fate was already decided by the truncation pass.
	return f.f.Close()
}
