package vfs

import "errors"

// ErrCrossMount reports a rename whose source and destination resolve to
// different mounts. Real filesystems refuse cross-volume MoveFileEx the same
// way; callers that want the move must copy and delete explicitly, which the
// detection engine then sees as the read/write/delete stream it really is.
var ErrCrossMount = errors.New("vfs: rename crosses mount boundary")

// Backend is the pluggable content store behind a mount point. The router
// (FS) owns everything namespace- and policy-shaped — the directory tree,
// stable file-ID allocation, read-only attributes, rename tracking, the
// interceptor chain and telemetry — so a backend only stores bytes keyed by
// the router-assigned stable file ID. Every method is called with the
// router's lock held, so implementations need no internal locking against
// router traffic (they may still lock against out-of-band callers such as
// CloneBackend sources).
//
// Paths handed to a backend are mount-relative, rooted, slash-separated
// ("/docs/a.txt"); backends that need none (the in-memory store) may ignore
// them. Open with create=false may receive an empty path — the file is known
// to the backend already and must be resolved by ID.
type Backend interface {
	// Open registers (create=true) or revisits a file. With truncate=true
	// the content is discarded; with create=true the file must not already
	// be known under id.
	Open(id uint64, path string, create, truncate bool) error
	// Read returns the file bytes in [off, off+n) — shorter at end of file,
	// empty when off is at or past it — together with the file's total
	// size. n < 0 reads to the end. The returned slice may alias backend
	// storage: callers must not write through it, and callers that retain
	// it must copy. An aliasing slice's capacity ends at its length, so
	// appending to it reallocates and never reaches spare capacity.
	Read(id uint64, off, n int64) ([]byte, int64, error)
	// Write stores data at off, growing the file as needed (the gap, if
	// any, reads as zero bytes), and returns the new total size.
	Write(id uint64, off int64, data []byte) (int64, error)
	// Close is the handle-close hint; backends holding per-file resources
	// may release them here.
	Close(id uint64) error
	// Delete removes the file's content and forgets the ID.
	Delete(id uint64) error
	// Rename records the file's new mount-relative path. Content and ID are
	// unchanged — the router guarantees both paths resolve to this mount.
	Rename(id uint64, oldPath, newPath string) error
	// Stat returns the file's total size.
	Stat(id uint64) (int64, error)
}

// Cloner is the optional backend capability behind FS.Clone: backends that
// can snapshot themselves cheaply (copy-on-write) return an independent
// copy. Backends without it — or whose CloneBackend returns nil, as a
// wrapping backend over a non-clonable inner does — are materialised into a
// fresh in-memory store when their filesystem is cloned.
type Cloner interface {
	CloneBackend() Backend
}

// PreImager is the optional backend capability the router invokes before a
// destructive mutation — a truncating open, a write, a delete, a
// rename-replace — with the acting process and the file's full router path.
// The versioned extension implements it to retain copies of pre-images;
// plain backends ignore it and pay nothing. The call happens after the
// interceptor's PreOp passes (vetoed operations mutate nothing, so nothing
// is captured) and before the backend mutation, with the router lock held.
type PreImager interface {
	PreImage(id uint64, path string, pid int, kind OpKind)
}
