package vfs

import "fmt"

// Memory is the in-memory content store — the backend behind vfs.New, and
// the re-implementation of the original monolithic filesystem's byte
// storage. Content is shared copy-on-write across CloneBackend, so cloning
// a corpus for a fresh experiment run stays cheap even for large trees.
type Memory struct {
	files map[uint64]*memFile
}

type memFile struct {
	data []byte
	// shared marks the data slice as aliased by a clone: copy before
	// mutating.
	shared bool
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{files: make(map[uint64]*memFile)}
}

var _ Backend = (*Memory)(nil)
var _ Cloner = (*Memory)(nil)

// Open implements Backend.
func (m *Memory) Open(id uint64, path string, create, truncate bool) error {
	f, ok := m.files[id]
	if create {
		if ok {
			return fmt.Errorf("memory: file id %d: %w", id, ErrExist)
		}
		m.files[id] = &memFile{}
		return nil
	}
	if !ok {
		return fmt.Errorf("memory: file id %d: %w", id, ErrNotExist)
	}
	if truncate {
		f.data = nil
		f.shared = false
	}
	return nil
}

// Read implements Backend. The returned slice aliases the stored content,
// with its capacity clipped to its length: a caller's append reallocates
// instead of writing into the file's spare capacity.
func (m *Memory) Read(id uint64, off, n int64) ([]byte, int64, error) {
	f, ok := m.files[id]
	if !ok {
		return nil, 0, fmt.Errorf("memory: file id %d: %w", id, ErrNotExist)
	}
	size := int64(len(f.data))
	if off < 0 || off >= size {
		return nil, size, nil
	}
	end := size
	if n >= 0 && off+n < size {
		end = off + n
	}
	return f.data[off:end:end], size, nil
}

// Write implements Backend, honouring copy-on-write sharing.
func (m *Memory) Write(id uint64, off int64, data []byte) (int64, error) {
	f, ok := m.files[id]
	if !ok {
		return 0, fmt.Errorf("memory: file id %d: %w", id, ErrNotExist)
	}
	f.write(off, data)
	return int64(len(f.data)), nil
}

// write stores data at off, honouring copy-on-write sharing. Growth
// follows append's rule (doubling up to 256 bytes, then tapering to about
// 1.25x), so appending a file in chunks copies each byte O(1) times. The
// spare capacity it leaves is never written before it is resliced into
// the file, so the gap of a sparse write reads as zero.
func (f *memFile) write(off int64, data []byte) {
	size, need := int64(len(f.data)), off+int64(len(data))
	switch {
	case need > int64(cap(f.data)) || f.shared && need > size:
		// The clip makes append reallocate, leaving a shared array intact.
		// Appending the bytes past the old end spares clearing memory that
		// is overwritten at once; only a sparse write's gap is cleared.
		if off > size {
			f.data = append(f.data[:size:size], make([]byte, need-size)...)
		} else {
			f.data = append(f.data[:size:size], data[size-off:]...)
			data = data[:size-off]
		}
		f.shared = false
	case f.shared:
		f.data = append([]byte(nil), f.data...)
		f.shared = false
	case need > size:
		f.data = f.data[:need]
	}
	copy(f.data[off:], data)
}

// Close implements Backend (no per-file resources to release).
func (m *Memory) Close(id uint64) error { return nil }

// Delete implements Backend.
func (m *Memory) Delete(id uint64) error {
	if _, ok := m.files[id]; !ok {
		return fmt.Errorf("memory: file id %d: %w", id, ErrNotExist)
	}
	delete(m.files, id)
	return nil
}

// Rename implements Backend (content is path-independent).
func (m *Memory) Rename(id uint64, oldPath, newPath string) error { return nil }

// Stat implements Backend.
func (m *Memory) Stat(id uint64) (int64, error) {
	f, ok := m.files[id]
	if !ok {
		return 0, fmt.Errorf("memory: file id %d: %w", id, ErrNotExist)
	}
	return int64(len(f.data)), nil
}

// CloneBackend implements Cloner: both sides share content slices until
// either writes.
func (m *Memory) CloneBackend() Backend {
	nm := &Memory{files: make(map[uint64]*memFile, len(m.files))}
	for id, f := range m.files {
		f.shared = true
		nm.files[id] = &memFile{data: f.data, shared: true}
	}
	return nm
}
