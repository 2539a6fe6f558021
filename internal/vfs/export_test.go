package vfs

// SpareBytes reports the spare capacity behind the content of the file at
// p, looking through wrapping backends that expose Inner, or -1 when the
// file is not stored in a Memory. Tests use it to show that an aliasing or
// copy-on-write case really has spare capacity to protect.
func SpareBytes(fs *FS, p string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, err := fs.lookupEntry(p)
	if err != nil {
		return -1
	}
	b := e.m.b
	for {
		w, ok := b.(interface{ Inner() Backend })
		if !ok {
			break
		}
		b = w.Inner()
	}
	m, ok := b.(*Memory)
	if !ok {
		return -1
	}
	return MemorySpareBytes(m, e.id)
}

// MemorySpareBytes reports the spare capacity behind file id in m.
func MemorySpareBytes(m *Memory, id uint64) int {
	f, ok := m.files[id]
	if !ok {
		return -1
	}
	return cap(f.data) - len(f.data)
}
