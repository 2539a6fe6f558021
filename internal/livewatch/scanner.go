// Package livewatch adapts CryptoDrop's data-centric indicators to a real
// on-disk directory.
//
// The paper instruments the Windows kernel, which provides two things a
// portable userspace watcher cannot: per-operation process attribution and
// the payload bytes of every read and write. A file-notification watcher
// (the fsnotify approach) sees only that files changed. This package
// therefore implements the *degraded but deployable* variant: a polling
// scanner (or, on Linux, inotify) detects created/modified/deleted files,
// and a Feeder turns each change into host ops that a host.Session scores
// with the same primary indicators — file type change, similarity loss and
// file-entropy increase — plus bulk deletion, attributing them to a single
// unknown actor. It cannot suspend the offender (no process context), so
// it alerts instead: still an early warning, just without the surgical
// response the kernel driver enables.
//
// The difference between the two deployments is exactly the trade-off the
// paper's architecture section motivates.
package livewatch

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// EventKind classifies a detected change.
type EventKind int

// Change kinds.
const (
	// EventCreated is a file that did not exist at the previous scan.
	EventCreated EventKind = iota + 1
	// EventModified is a file whose size or mtime changed.
	EventModified
	// EventDeleted is a file that disappeared.
	EventDeleted
)

// String returns the kind name.
func (k EventKind) String() string {
	switch k {
	case EventCreated:
		return "created"
	case EventModified:
		return "modified"
	case EventDeleted:
		return "deleted"
	default:
		return "unknown"
	}
}

// Event is one observed filesystem change.
type Event struct {
	// Path is the absolute file path.
	Path string
	// Kind is the change type.
	Kind EventKind
	// Size is the file size after the change (0 for deletions).
	Size int64
}

// Source produces change events for a directory tree. The portable polling
// Scanner and the Linux InotifyScanner both implement it.
type Source interface {
	// Scan returns the changes since the previous call.
	Scan() ([]Event, error)
	// Root is the watched directory.
	Root() string
}

// fileMeta is the snapshot record for one file.
type fileMeta struct {
	size  int64
	mtime int64 // UnixNano
}

// Scanner detects changes to a directory tree between explicit Scan calls
// (a portable polling substitute for inotify/FSEvents/USN journals).
type Scanner struct {
	root string
	prev map[string]fileMeta
}

// NewScanner watches the tree rooted at root. The first Scan returns the
// baseline as no events.
func NewScanner(root string) *Scanner {
	return &Scanner{root: root}
}

// Root returns the watched directory.
func (s *Scanner) Root() string { return s.root }

// Scan snapshots the tree and returns the changes since the previous scan,
// sorted by path (deletions last so the feeder can measure replacements
// first).
func (s *Scanner) Scan() ([]Event, error) {
	cur := make(map[string]fileMeta, len(s.prev))
	err := filepath.WalkDir(s.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			// A file vanishing mid-walk is an expected race, not a failure.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		cur[p] = fileMeta{size: info.Size(), mtime: info.ModTime().UnixNano()}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("livewatch: scan %s: %w", s.root, err)
	}
	var events []Event
	if s.prev != nil {
		for p, m := range cur {
			old, ok := s.prev[p]
			switch {
			case !ok:
				events = append(events, Event{Path: p, Kind: EventCreated, Size: m.size})
			case old != m:
				events = append(events, Event{Path: p, Kind: EventModified, Size: m.size})
			}
		}
		for p := range s.prev {
			if _, ok := cur[p]; !ok {
				events = append(events, Event{Path: p, Kind: EventDeleted})
			}
		}
	}
	s.prev = cur
	sort.Slice(events, func(i, j int) bool {
		if events[i].Kind != events[j].Kind {
			return events[i].Kind < events[j].Kind
		}
		return events[i].Path < events[j].Path
	})
	return events, nil
}
