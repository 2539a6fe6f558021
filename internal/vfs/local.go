package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Local is an OS-directory-backed content store: every router file lives as
// a real file under dir, at its mount-relative path. It gives deployments
// a mount whose bytes survive the process — and the conformance
// suite a second, structurally different backend to pin the router's
// backend-neutrality against. The router still owns the namespace: Local
// only mirrors content, so out-of-band edits to dir are not part of the
// model.
type Local struct {
	dir string
	// paths maps router file IDs to mount-relative paths; maintained by
	// Open/Rename/Delete, all called under the router lock.
	paths map[uint64]string
}

// NewLocal returns a backend storing content under dir, which must exist
// (create it with os.MkdirAll). The directory should start empty: files
// enter a mount through the router, never out-of-band.
func NewLocal(dir string) *Local {
	return &Local{dir: dir, paths: make(map[uint64]string)}
}

var _ Backend = (*Local)(nil)

// osPath maps a mount-relative path onto the backing directory.
func (l *Local) osPath(rel string) string {
	return filepath.Join(l.dir, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
}

// resolve returns the OS path for id.
func (l *Local) resolve(id uint64) (string, error) {
	rel, ok := l.paths[id]
	if !ok {
		return "", fmt.Errorf("local: file id %d: %w", id, ErrNotExist)
	}
	return l.osPath(rel), nil
}

// Open implements Backend.
func (l *Local) Open(id uint64, path string, create, truncate bool) error {
	if create {
		if _, ok := l.paths[id]; ok {
			return fmt.Errorf("local: file id %d: %w", id, ErrExist)
		}
		p := l.osPath(path)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return fmt.Errorf("local: %s: %v", path, err)
		}
		f, err := os.OpenFile(p, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("local: %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("local: %s: %v", path, err)
		}
		l.paths[id] = path
		return nil
	}
	p, err := l.resolve(id)
	if err != nil {
		return err
	}
	if truncate {
		if err := os.Truncate(p, 0); err != nil {
			return fmt.Errorf("local: truncate id %d: %v", id, err)
		}
	}
	return nil
}

// Read implements Backend.
func (l *Local) Read(id uint64, off, n int64) ([]byte, int64, error) {
	p, err := l.resolve(id)
	if err != nil {
		return nil, 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return nil, 0, l.wrapFS(id, err)
	}
	size := fi.Size()
	if off < 0 || off >= size {
		return nil, size, nil
	}
	end := size
	if n >= 0 && off+n < size {
		end = off + n
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, 0, l.wrapFS(id, err)
	}
	defer f.Close()
	buf := make([]byte, end-off)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, 0, fmt.Errorf("local: read id %d: %v", id, err)
	}
	return buf, size, nil
}

// Write implements Backend. WriteAt past the end leaves a zero-filled gap,
// matching the in-memory backend.
func (l *Local) Write(id uint64, off int64, data []byte) (int64, error) {
	p, err := l.resolve(id)
	if err != nil {
		return 0, err
	}
	f, err := os.OpenFile(p, os.O_WRONLY, 0o644)
	if err != nil {
		return 0, l.wrapFS(id, err)
	}
	if _, err := f.WriteAt(data, off); err != nil {
		_ = f.Close()
		return 0, fmt.Errorf("local: write id %d: %v", id, err)
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return 0, fmt.Errorf("local: stat id %d: %v", id, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("local: close id %d: %v", id, err)
	}
	return fi.Size(), nil
}

// Close implements Backend (no per-handle OS descriptors are kept).
func (l *Local) Close(id uint64) error { return nil }

// Delete implements Backend.
func (l *Local) Delete(id uint64) error {
	p, err := l.resolve(id)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		return l.wrapFS(id, err)
	}
	delete(l.paths, id)
	return nil
}

// Rename implements Backend.
func (l *Local) Rename(id uint64, oldPath, newPath string) error {
	p, err := l.resolve(id)
	if err != nil {
		return err
	}
	np := l.osPath(newPath)
	if err := os.MkdirAll(filepath.Dir(np), 0o755); err != nil {
		return fmt.Errorf("local: rename id %d: %v", id, err)
	}
	if err := os.Rename(p, np); err != nil {
		return fmt.Errorf("local: rename id %d: %v", id, err)
	}
	l.paths[id] = newPath
	return nil
}

// Stat implements Backend.
func (l *Local) Stat(id uint64) (int64, error) {
	p, err := l.resolve(id)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return 0, l.wrapFS(id, err)
	}
	return fi.Size(), nil
}

// wrapFS translates an OS not-exist into the package sentinel so callers
// dispatch identically across backends.
func (l *Local) wrapFS(id uint64, err error) error {
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("local: file id %d: %w", id, ErrNotExist)
	}
	return fmt.Errorf("local: file id %d: %v", id, err)
}
