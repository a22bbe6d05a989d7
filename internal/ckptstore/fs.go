package ckptstore

import (
	"os"

	"dswp/internal/failpoint"
)

// FS abstracts every filesystem operation FileStore performs, so the
// whole durable path can be exercised under injected faults without a
// hostile filesystem. Production uses OSFS; FileStore always wraps the
// FS it is given with the failpoint hooks below, so arming a
// `ckptstore/file/*` site perturbs a real store with no plumbing — and
// with all sites disarmed the hooks cost one atomic load per IO call,
// noise next to the syscall they precede.
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	ReadDir(dir string) ([]os.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	Remove(path string) error
	Rename(oldpath, newpath string) error
	Truncate(path string, size int64) error
	// CreateTemp creates a unique temp file in dir (os.CreateTemp
	// pattern semantics).
	CreateTemp(dir, pattern string) (File, error)
	// OpenDir opens a directory for fsync.
	OpenDir(dir string) (File, error)
	// OpenAppend opens an existing file for appending writes.
	OpenAppend(path string) (File, error)
}

// File is the open-file surface FileStore needs.
type File interface {
	Name() string
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OSFS returns the real-filesystem implementation.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error)   { return os.ReadDir(dir) }
func (osFS) ReadFile(path string) ([]byte, error)        { return os.ReadFile(path) }
func (osFS) Remove(path string) error                    { return os.Remove(path) }
func (osFS) Rename(oldpath, newpath string) error        { return os.Rename(oldpath, newpath) }
func (osFS) Truncate(path string, size int64) error      { return os.Truncate(path, size) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenDir(dir string) (File, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// The FileStore IO failpoint sites (ckptstore/file/append fails opening a
// log for an epoch append). Error-action policies surface as the
// operation's error (arm with error(ENOSPC) to simulate a full disk at
// exactly the syscall that would report it); the two structured sites
// below inject failure *shapes* rather than plain errors:
//
//   - ckptstore/file/short-write: the write persists only the first half
//     of the buffer and reports the armed error — the partial-write case
//     POSIX allows and code routinely mishandles;
//   - ckptstore/file/torn-rename: the rename RETURNS SUCCESS but the
//     renamed file is truncated to half its length — the lying-disk
//     crash shape where the commit was acknowledged yet the record on
//     disk is garbage. Only the CRC trailer stands between this and a
//     silently wrong resume.
var (
	fpCreate = failpoint.New("ckptstore/file/create")
	fpWrite  = failpoint.New("ckptstore/file/write")
	fpShort  = failpoint.New("ckptstore/file/short-write")
	fpSync   = failpoint.New("ckptstore/file/sync")
	fpRename = failpoint.New("ckptstore/file/rename")
	fpTorn   = failpoint.New("ckptstore/file/torn-rename")
	fpRead   = failpoint.New("ckptstore/file/read")
	fpAppend = failpoint.New("ckptstore/file/append")
)

// hooked wraps an FS with the failpoint sites. FileStore installs it
// unconditionally over whatever FS it is handed.
type hooked struct{ fs FS }

func (h hooked) MkdirAll(dir string, perm os.FileMode) error { return h.fs.MkdirAll(dir, perm) }
func (h hooked) ReadDir(dir string) ([]os.DirEntry, error)   { return h.fs.ReadDir(dir) }
func (h hooked) Remove(path string) error                    { return h.fs.Remove(path) }
func (h hooked) Truncate(path string, size int64) error      { return h.fs.Truncate(path, size) }
func (h hooked) OpenDir(dir string) (File, error)            { return h.fs.OpenDir(dir) }

func (h hooked) ReadFile(path string) ([]byte, error) {
	if err := fpRead.Fail(); err != nil {
		return nil, err
	}
	return h.fs.ReadFile(path)
}

func (h hooked) Rename(oldpath, newpath string) error {
	if err := fpRename.Fail(); err != nil {
		return err
	}
	if terr := fpTorn.Fail(); terr != nil {
		// Torn rename: complete the rename, then shear the destination.
		// The caller sees success; only a read-time CRC check can tell.
		if err := h.fs.Rename(oldpath, newpath); err != nil {
			return err
		}
		if fi, err := os.Stat(newpath); err == nil {
			_ = h.fs.Truncate(newpath, fi.Size()/2)
		}
		return nil
	}
	return h.fs.Rename(oldpath, newpath)
}

func (h hooked) CreateTemp(dir, pattern string) (File, error) {
	if err := fpCreate.Fail(); err != nil {
		return nil, err
	}
	f, err := h.fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return hookedFile{f}, nil
}

// OpenAppend returns a hooked file, so appends meet the same write,
// short-write and sync faults as temp-file writes.
func (h hooked) OpenAppend(path string) (File, error) {
	if err := fpAppend.Fail(); err != nil {
		return nil, err
	}
	f, err := h.fs.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return hookedFile{f}, nil
}

type hookedFile struct{ File }

func (f hookedFile) Write(p []byte) (int, error) {
	if err := fpWrite.Fail(); err != nil {
		return 0, err
	}
	if serr := fpShort.Fail(); serr != nil {
		n, werr := f.File.Write(p[:len(p)/2])
		if werr != nil {
			return n, werr
		}
		return n, serr
	}
	return f.File.Write(p)
}

func (f hookedFile) Sync() error {
	if err := fpSync.Fail(); err != nil {
		return err
	}
	return f.File.Sync()
}
