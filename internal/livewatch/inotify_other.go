//go:build !linux

package livewatch

import "errors"

// InotifyScanner is the Linux inotify event source. Off Linux it cannot be
// constructed: NewInotifyScanner always fails, so callers pick a source
// without build tags of their own.
type InotifyScanner struct{ root string }

// NewInotifyScanner reports that inotify is Linux-only.
func NewInotifyScanner(root string) (*InotifyScanner, error) {
	return nil, errors.New("livewatch: inotify is only available on Linux")
}

// Root returns the watched directory.
func (s *InotifyScanner) Root() string { return s.root }

// Scan returns no events.
func (s *InotifyScanner) Scan() ([]Event, error) { return nil, nil }

// Close releases nothing.
func (s *InotifyScanner) Close() error { return nil }
