package main

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/vfs"
)

// fileClass is the role a file of a data directory plays.
type fileClass int

const (
	classWAL fileClass = iota
	classPack
	classManifest
	classOther
	numClasses
)

// classify names the role of a data-directory file from its base name,
// counting the temp files a rename later installs with the file they become.
func classify(path string) fileClass {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "wal-"):
		return classWAL
	case base == durable.PackFile || strings.HasPrefix(base, ".chunks-"):
		return classPack
	case strings.HasPrefix(base, "manifest-") || strings.HasPrefix(base, ".manifest-"):
		return classManifest
	}
	return classOther
}

// ioCounts are the I/O totals of one file class.
type ioCounts struct {
	bytes, writes, syncs int64
	syncTime             time.Duration
}

// ioSnapshot is a copy of every counter of a countingFS.
type ioSnapshot struct {
	class             [numClasses]ioCounts
	renames, syncDirs int64
	walSyncs          []time.Duration // each WAL fsync, in order
}

// countingFS wraps a vfs.FS and counts bytes written, writes and fsyncs per
// file class, plus renames and directory fsyncs. Every call goes to the
// inner FS unchanged and returns its results unchanged: the wrapper adds no
// check and removes none. It also tracks the bytes written to each live
// path, following renames and removals, so a test can compare the counts
// with the files left on disk.
type countingFS struct {
	inner vfs.FS

	mu      sync.Mutex
	snap    ioSnapshot
	written map[string]int64
}

func newCountingFS(inner vfs.FS) *countingFS {
	return &countingFS{inner: inner, written: make(map[string]int64)}
}

// snapshot returns a copy of the counters.
func (c *countingFS) snapshot() ioSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.snap
	s.walSyncs = append([]time.Duration(nil), c.snap.walSyncs...)
	return s
}

// writtenTo returns the bytes written through the wrapper to each live path.
func (c *countingFS) writtenTo() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.written))
	for p, n := range c.written {
		out[p] = n
	}
	return out
}

func (c *countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, path: filepath.Clean(f.Name()), class: classify(f.Name())}, nil
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	return c.wrap(c.inner.OpenFile(name, flag, perm))
}

func (c *countingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return c.wrap(c.inner.CreateTemp(dir, pattern))
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	err := c.inner.Rename(oldpath, newpath)
	c.mu.Lock()
	c.snap.renames++
	if err == nil {
		oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
		c.written[newpath] = c.written[oldpath]
		delete(c.written, oldpath)
	}
	c.mu.Unlock()
	return err
}

func (c *countingFS) Remove(name string) error {
	err := c.inner.Remove(name)
	if err == nil {
		c.mu.Lock()
		delete(c.written, filepath.Clean(name))
		c.mu.Unlock()
	}
	return err
}

func (c *countingFS) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }

func (c *countingFS) Stat(name string) (fs.FileInfo, error) { return c.inner.Stat(name) }

func (c *countingFS) MkdirAll(path string, perm os.FileMode) error {
	return c.inner.MkdirAll(path, perm)
}

func (c *countingFS) SyncDir(dir string) error {
	err := c.inner.SyncDir(dir)
	c.mu.Lock()
	c.snap.syncDirs++
	c.mu.Unlock()
	return err
}

func (c *countingFS) Lock(name string) (io.Closer, error) { return c.inner.Lock(name) }

// countingFile counts the writes and fsyncs of one open file.
type countingFile struct {
	vfs.File
	fs    *countingFS
	path  string
	class fileClass
}

func (f *countingFile) wrote(n int) {
	f.fs.mu.Lock()
	cc := &f.fs.snap.class[f.class]
	cc.bytes += int64(n)
	cc.writes++
	f.fs.written[f.path] += int64(n)
	f.fs.mu.Unlock()
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.wrote(n)
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.wrote(n)
	return n, err
}

func (f *countingFile) Truncate(size int64) error {
	err := f.File.Truncate(size)
	if err == nil {
		f.fs.mu.Lock()
		if f.fs.written[f.path] > size {
			f.fs.written[f.path] = size
		}
		f.fs.mu.Unlock()
	}
	return err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.fs.mu.Lock()
	cc := &f.fs.snap.class[f.class]
	cc.syncs++
	cc.syncTime += d
	if f.class == classWAL {
		f.fs.snap.walSyncs = append(f.fs.snap.walSyncs, d)
	}
	f.fs.mu.Unlock()
	return err
}
