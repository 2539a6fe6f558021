package vfs

import (
	"fmt"
	"sort"
	"strings"
)

// mount binds a namespace prefix to a backend. pi caches the backend's
// optional PreImager capability so the hot path pays one nil check, not a
// type assertion per operation.
type mount struct {
	prefix string
	b      Backend
	pi     PreImager
}

func newMount(prefix string, b Backend) *mount {
	m := &mount{prefix: prefix, b: b}
	m.pi, _ = b.(PreImager)
	return m
}

// rel maps a full router path onto the mount's namespace.
func (m *mount) rel(p string) string {
	if m.prefix == "/" {
		return p
	}
	return strings.TrimPrefix(p, m.prefix)
}

// covers reports whether p resolves under this mount's prefix.
func (m *mount) covers(p string) bool {
	if m.prefix == "/" {
		return true
	}
	return p == m.prefix || strings.HasPrefix(p, m.prefix+"/")
}

// Mount attaches a backend at prefix: every file subsequently created under
// prefix stores its content in b, resolved by longest prefix — so one
// session can span heterogeneous storage (an in-memory system volume beside
// an OS-dir-backed documents volume). The prefix directory is created if
// missing. Mounting fails if a mount already claims the exact prefix or if
// files already exist under it (files do not migrate between backends).
func (fs *FS) Mount(prefix string, b Backend) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	prefix = clean(prefix)
	for _, m := range fs.mounts {
		if m.prefix == prefix {
			return fmt.Errorf("vfs: mount %s: %w", prefix, ErrExist)
		}
	}
	if d, err := fs.lookupDir(prefix); err == nil {
		if hasFiles(d) {
			return fmt.Errorf("vfs: mount %s: subtree already has files: %w", prefix, ErrExist)
		}
	}
	if err := fs.mkdirAllLocked(prefix); err != nil {
		return err
	}
	fs.mounts = append(fs.mounts, newMount(prefix, b))
	sortMounts(fs.mounts)
	return nil
}

// Mounts returns the mounted prefixes, longest first — the resolution order.
func (fs *FS) Mounts() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, len(fs.mounts))
	for i, m := range fs.mounts {
		out[i] = m.prefix
	}
	return out
}

// WrapMounts replaces every mount's backend with wrap(prefix, backend) —
// the seam extensions use to interpose on content storage (the versioned
// pre-image extension wraps every mount on monitor attach and unwraps on
// shutdown). Existing files keep their mounts; only the backend pointer and
// its cached capabilities change.
func (fs *FS) WrapMounts(wrap func(prefix string, b Backend) Backend) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, m := range fs.mounts {
		m.b = wrap(m.prefix, m.b)
		m.pi, _ = m.b.(PreImager)
	}
}

// resolveMount returns the longest-prefix mount covering p; fs.mu held.
// There is always a root mount, so resolution cannot fail.
func (fs *FS) resolveMount(p string) *mount {
	for _, m := range fs.mounts {
		if m.covers(p) {
			return m
		}
	}
	return fs.mounts[len(fs.mounts)-1]
}

// sortMounts orders mounts longest-prefix-first so resolveMount's linear
// scan finds the most specific mount.
func sortMounts(ms []*mount) {
	sort.SliceStable(ms, func(i, j int) bool { return len(ms[i].prefix) > len(ms[j].prefix) })
}

// hasFiles reports whether any file exists under d.
func hasFiles(d *dir) bool {
	for _, n := range d.children {
		switch t := n.(type) {
		case *entry:
			return true
		case *dir:
			if hasFiles(t) {
				return true
			}
		}
	}
	return false
}
