//go:build linux

package livewatch

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"unsafe"
)

// InotifyScanner is the Linux fast path: instead of polling the whole tree,
// it subscribes to kernel inotify events for every directory under the
// root (recursively, following newly created directories) and drains the
// accumulated events on each Scan call. It is a Source like the portable
// Scanner, so a Feeder consumes either unchanged.
type InotifyScanner struct {
	root string
	fd   int
	// file wraps the inotify fd so reads go through the runtime poller
	// and Close interrupts a blocked read loop.
	file *os.File

	mu       sync.Mutex
	watches  map[int]string // watch descriptor → directory
	pending  []Event
	pendErr  error
	stopOnce sync.Once
	done     chan struct{}
}

// NewInotifyScanner initialises the inotify instance and watches every
// directory under root. Call Close when done.
func NewInotifyScanner(root string) (*InotifyScanner, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, fmt.Errorf("livewatch: inotify init: %w", err)
	}
	s := &InotifyScanner{
		root:    root,
		fd:      fd,
		file:    os.NewFile(uintptr(fd), "inotify"),
		watches: make(map[int]string),
		done:    make(chan struct{}),
	}
	if err := s.watchTree(root); err != nil {
		_ = s.file.Close()
		return nil, err
	}
	go s.readLoop()
	return s, nil
}

// Root returns the watched directory.
func (s *InotifyScanner) Root() string { return s.root }

const inotifyMask = syscall.IN_CREATE | syscall.IN_CLOSE_WRITE | syscall.IN_DELETE |
	syscall.IN_MOVED_FROM | syscall.IN_MOVED_TO

// watchTree adds watches for dir and every subdirectory.
func (s *InotifyScanner) watchTree(dir string) error {
	return filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if !d.IsDir() {
			return nil
		}
		return s.addWatch(p)
	})
}

func (s *InotifyScanner) addWatch(dir string) error {
	wd, err := syscall.InotifyAddWatch(s.fd, dir, inotifyMask)
	if err != nil {
		return fmt.Errorf("livewatch: watch %s: %w", dir, err)
	}
	s.mu.Lock()
	s.watches[wd] = dir
	s.mu.Unlock()
	return nil
}

// readLoop drains the inotify fd into the pending queue. Reads go through
// the runtime poller, so Close unblocks them with os.ErrClosed.
func (s *InotifyScanner) readLoop() {
	defer close(s.done)
	buf := make([]byte, 64*1024)
	for {
		n, err := s.file.Read(buf)
		if err != nil {
			if errors.Is(err, os.ErrClosed) {
				return
			}
			if errors.Is(err, syscall.EINTR) {
				continue
			}
			s.mu.Lock()
			s.pendErr = fmt.Errorf("livewatch: inotify read: %w", err)
			s.mu.Unlock()
			return
		}
		s.decode(buf[:n])
	}
}

// decode parses raw inotify_event records.
func (s *InotifyScanner) decode(data []byte) {
	const eventSize = syscall.SizeofInotifyEvent
	for off := 0; off+eventSize <= len(data); {
		raw := (*syscall.InotifyEvent)(unsafe.Pointer(&data[off]))
		nameLen := int(raw.Len)
		name := ""
		if nameLen > 0 {
			b := data[off+eventSize : off+eventSize+nameLen]
			for i, c := range b {
				if c == 0 {
					b = b[:i]
					break
				}
			}
			name = string(b)
		}
		off += eventSize + nameLen

		s.mu.Lock()
		dir, ok := s.watches[int(raw.Wd)]
		s.mu.Unlock()
		if !ok || name == "" {
			continue
		}
		p := filepath.Join(dir, name)
		mask := raw.Mask
		switch {
		case mask&syscall.IN_ISDIR != 0:
			// New directory: extend the watch set; directory events are
			// not themselves data events.
			if mask&(syscall.IN_CREATE|syscall.IN_MOVED_TO) != 0 {
				_ = s.watchTree(p)
			}
			continue
		case mask&(syscall.IN_CREATE|syscall.IN_MOVED_TO) != 0:
			s.push(Event{Path: p, Kind: EventCreated, Size: fileSize(p)})
		case mask&syscall.IN_CLOSE_WRITE != 0:
			s.push(Event{Path: p, Kind: EventModified, Size: fileSize(p)})
		case mask&(syscall.IN_DELETE|syscall.IN_MOVED_FROM) != 0:
			s.push(Event{Path: p, Kind: EventDeleted})
		}
	}
}

func fileSize(p string) int64 {
	info, err := os.Stat(p)
	if err != nil {
		return 0
	}
	return info.Size()
}

func (s *InotifyScanner) push(ev Event) {
	s.mu.Lock()
	s.pending = append(s.pending, ev)
	s.mu.Unlock()
}

// Scan drains the queued events since the previous call.
func (s *InotifyScanner) Scan() ([]Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendErr != nil {
		return nil, s.pendErr
	}
	out := s.pending
	s.pending = nil
	return out, nil
}

// Close stops the reader and releases the inotify instance.
func (s *InotifyScanner) Close() error {
	var err error
	s.stopOnce.Do(func() {
		err = s.file.Close()
		<-s.done
	})
	return err
}
