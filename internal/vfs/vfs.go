// Package vfs implements the virtual filesystem layer that substitutes for
// the Windows filesystem and the kernel minifilter attachment the paper
// instruments (§IV-C, Fig. 2). It is structured as a mount router over
// pluggable content backends:
//
//   - FS, the router, owns everything namespace- and policy-shaped: the
//     directory tree, stable file-ID allocation, read-only attributes,
//     rename tracking, the interceptor chain, telemetry and shadow copies.
//     Every backend inherits those semantics unchanged.
//   - A Backend stores content keyed by router-assigned stable file IDs.
//     Memory (the default, behind New) keeps bytes in process with
//     copy-on-write cloning; Local mirrors content into a real OS
//     directory; the versioned extension (internal/vfs/versioned) wraps any
//     backend with copy-on-write pre-image retention for detect-then-
//     recover rollback.
//   - Mount(prefix, backend) attaches additional backends with
//     longest-prefix resolution, so one monitored session spans
//     heterogeneous storage. Renames never cross a mount boundary
//     (ErrCrossMount), matching cross-volume MoveFileEx.
//
// Every create/open/read/write/close/delete/rename is routed through an
// optional Interceptor before and after execution, carrying the process ID,
// the payload bytes and file identity — the same "notifications, file data,
// context" stream the CryptoDrop kernel driver forwards to its analysis
// engine. The interceptor may veto an operation, which is how a detection
// verdict suspends a process's disk access. The analysis engine itself
// never consumes vfs.Op directly: internal/vfsadapter translates each op
// into the backend-neutral core.Event the engine scores.
//
// Files carry stable IDs so state can be tracked across renames and moves —
// the careful move tracking §III requires for Class B ransomware — and the
// filesystem supports read-only attributes, copy-on-write cloning for
// repeated experiments, and Windows-like failure semantics (deleting or
// overwriting a read-only file fails).
package vfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"cryptodrop/internal/telemetry"
)

// Filesystem errors.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrExist    = errors.New("vfs: file already exists")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrReadOnly = errors.New("vfs: file is read-only")
	ErrClosed   = errors.New("vfs: handle is closed")
	ErrNotEmpty = errors.New("vfs: directory not empty")
	ErrBadFlag  = errors.New("vfs: invalid open flags")
)

// OpKind identifies a filesystem operation.
type OpKind int

// Operation kinds delivered to interceptors.
const (
	OpCreate OpKind = iota + 1
	OpOpen
	OpRead
	OpWrite
	OpClose
	OpDelete
	OpRename
)

// String returns the operation name.
func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpClose:
		return "close"
	case OpDelete:
		return "delete"
	case OpRename:
		return "rename"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// OpenFlag controls how a file is opened.
type OpenFlag int

// Open flags; combine with bitwise OR.
const (
	ReadOnly  OpenFlag = 1 << iota // open for reading
	WriteOnly                      // open for writing
	Create                         // create if missing
	Truncate                       // truncate on open
	Append                         // writes go to the end
)

// ReadWrite opens for both reading and writing.
const ReadWrite = ReadOnly | WriteOnly

// Op describes one filesystem operation as seen by an interceptor.
type Op struct {
	// Kind is the operation type.
	Kind OpKind
	// PID is the process performing the operation.
	PID int
	// Path is the canonical file path. For OpRename it is the source.
	Path string
	// NewPath is the rename destination (OpRename only).
	NewPath string
	// FileID is the stable identity of the file operated on.
	FileID uint64
	// ReplacedID is the identity of a file replaced by a rename, or 0.
	ReplacedID uint64
	// Data is the operation payload: bytes written for OpWrite, bytes read
	// for OpRead (populated post-operation). Interceptors must treat it as
	// read-only.
	Data []byte
	// Offset is the file offset of a read or write.
	Offset int64
	// Size is the file size after the operation completes.
	Size int64
	// Flags are the open flags (OpOpen/OpCreate).
	Flags OpenFlag
	// Wrote reports, for OpClose, whether the handle performed any write.
	Wrote bool
}

// Interceptor observes and mediates filesystem operations, playing the role
// of the filter-manager attachment in Fig. 2 of the paper.
type Interceptor interface {
	// PreOp is invoked before the operation executes. Returning a non-nil
	// error vetoes the operation; the error is returned to the caller.
	// For OpRead, Data is not yet populated.
	PreOp(op *Op) error
	// PostOp is invoked after a successful operation with the completed Op.
	PostOp(op *Op)
}

type node interface{ isNode() }

// entry is one file in the router namespace: identity, attributes and the
// mount whose backend stores its content. The router tracks size itself —
// every content mutation flows through it — so the hot path never round-
// trips a backend Stat.
type entry struct {
	id       uint64
	size     int64
	readOnly bool
	m        *mount
}

func (*entry) isNode() {}

type dir struct {
	children map[string]node
}

func (*dir) isNode() {}

func newDir() *dir { return &dir{children: make(map[string]node)} }

// FS is the mount router: a filesystem namespace over one or more content
// backends. The zero value is not usable; create one with New (in-memory
// backend at "/") or NewWith. All methods are safe for concurrent use.
type FS struct {
	mu          sync.Mutex
	root        *dir
	nextID      uint64
	mounts      []*mount
	ids         map[uint64]*entry
	interceptor Interceptor
	opCounts    map[OpKind]int64
	// shadowCopies holds volume snapshots (see shadow.go); lazily created.
	shadowCopies *shadowStore
	// telOps / telBytes expose per-kind operation throughput when a
	// telemetry registry is attached (see SetTelemetry); nil otherwise.
	telOps   [OpRename + 1]*telemetry.Counter
	telBytes [OpRename + 1]*telemetry.Counter
	telOn    bool
}

// New returns an empty filesystem backed by a single in-memory backend
// mounted at "/".
func New() *FS { return NewWith(NewMemory()) }

// NewWith returns an empty filesystem with b mounted at "/". Additional
// backends attach with Mount.
func NewWith(b Backend) *FS {
	return &FS{
		root:     newDir(),
		nextID:   1,
		mounts:   []*mount{newMount("/", b)},
		ids:      make(map[uint64]*entry),
		opCounts: make(map[OpKind]int64),
	}
}

// SetInterceptor installs the interceptor through which every subsequent
// operation is routed. Passing nil detaches it.
func (fs *FS) SetInterceptor(ic Interceptor) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.interceptor = ic
}

// SetTelemetry attaches a registry counting completed operations and moved
// payload bytes by kind (vfs_ops_total / vfs_op_bytes_total). Passing nil
// detaches it.
func (fs *FS) SetTelemetry(reg *telemetry.Registry) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.telOn = reg != nil
	for k := OpCreate; k <= OpRename; k++ {
		if reg == nil {
			fs.telOps[k], fs.telBytes[k] = nil, nil
			continue
		}
		fs.telOps[k] = reg.Counter(`vfs_ops_total{kind="` + k.String() + `"}`)
		fs.telBytes[k] = reg.Counter(`vfs_op_bytes_total{kind="` + k.String() + `"}`)
	}
}

// OpCount returns how many operations of the given kind have completed.
func (fs *FS) OpCount(kind OpKind) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.opCounts[kind]
}

// clean canonicalises a path to a rooted, slash-separated form.
func clean(p string) string {
	p = path.Clean("/" + p)
	return p
}

// splitPath returns the parent directory path and base name.
func splitPath(p string) (parent, base string) {
	p = clean(p)
	return path.Dir(p), path.Base(p)
}

// lookupDir resolves a directory node; fs.mu must be held.
func (fs *FS) lookupDir(p string) (*dir, error) {
	p = clean(p)
	cur := fs.root
	if p == "/" {
		return cur, nil
	}
	for _, part := range strings.Split(p[1:], "/") {
		n, ok := cur.children[part]
		if !ok {
			return nil, fmt.Errorf("%s: %w", p, ErrNotExist)
		}
		d, ok := n.(*dir)
		if !ok {
			return nil, fmt.Errorf("%s: %w", p, ErrNotDir)
		}
		cur = d
	}
	return cur, nil
}

// lookupEntry resolves a file entry; fs.mu must be held.
func (fs *FS) lookupEntry(p string) (*entry, error) {
	parent, base := splitPath(p)
	d, err := fs.lookupDir(parent)
	if err != nil {
		return nil, err
	}
	n, ok := d.children[base]
	if !ok {
		return nil, fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	e, ok := n.(*entry)
	if !ok {
		return nil, fmt.Errorf("%s: %w", p, ErrIsDir)
	}
	return e, nil
}

// pre runs the interceptor's PreOp; fs.mu must be held (it is released
// around the callback so interceptors may query the filesystem). A veto is
// wrapped with the vetoed operation's kind and path, preserving the
// interceptor's error chain for errors.Is (e.g. cryptodrop.ErrSuspended).
func (fs *FS) pre(op *Op) error {
	ic := fs.interceptor
	if ic == nil {
		return nil
	}
	fs.mu.Unlock()
	err := ic.PreOp(op)
	fs.mu.Lock()
	if err != nil {
		return fmt.Errorf("vfs: %s %s: %w", op.Kind, op.Path, err)
	}
	return err
}

// post runs the interceptor's PostOp and bumps counters; fs.mu must be held.
func (fs *FS) post(op *Op) {
	fs.opCounts[op.Kind]++
	if fs.telOn {
		fs.telOps[op.Kind].Inc()
		if n := int64(len(op.Data)); n > 0 {
			fs.telBytes[op.Kind].Add(n)
		}
	}
	ic := fs.interceptor
	if ic == nil {
		return
	}
	fs.mu.Unlock()
	ic.PostOp(op)
	fs.mu.Lock()
}

// preImage offers the entry's current content to the mount's pre-image
// capability (the versioned extension) before a destructive mutation;
// fs.mu must be held. Plain backends pay one nil check.
func (fs *FS) preImage(e *entry, p string, pid int, kind OpKind) {
	if e.m.pi != nil {
		e.m.pi.PreImage(e.id, p, pid, kind)
	}
}

// Mkdir creates a single directory.
func (fs *FS) Mkdir(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, base := splitPath(p)
	d, err := fs.lookupDir(parent)
	if err != nil {
		return err
	}
	if _, ok := d.children[base]; ok {
		return fmt.Errorf("%s: %w", p, ErrExist)
	}
	d.children[base] = newDir()
	return nil
}

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.mkdirAllLocked(p)
}

// mkdirAllLocked is MkdirAll with fs.mu held.
func (fs *FS) mkdirAllLocked(p string) error {
	p = clean(p)
	if p == "/" {
		return nil
	}
	cur := fs.root
	for _, part := range strings.Split(p[1:], "/") {
		n, ok := cur.children[part]
		if !ok {
			nd := newDir()
			cur.children[part] = nd
			cur = nd
			continue
		}
		d, ok := n.(*dir)
		if !ok {
			return fmt.Errorf("%s: %w", p, ErrNotDir)
		}
		cur = d
	}
	return nil
}

// Handle is an open file descriptor bound to a process.
type Handle struct {
	fs     *FS
	e      *entry
	path   string
	pid    int
	flags  OpenFlag
	offset int64
	wrote  bool
	closed bool
}

// Open opens a file on behalf of pid. Create requires WriteOnly. A created
// file stores its content in the backend whose mount prefix is the longest
// match for p.
func (fs *FS) Open(pid int, p string, flags OpenFlag) (*Handle, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if flags&(ReadOnly|WriteOnly) == 0 {
		return nil, ErrBadFlag
	}
	p = clean(p)
	parent, base := splitPath(p)
	d, err := fs.lookupDir(parent)
	if err != nil {
		return nil, err
	}
	var e *entry
	created := false
	switch n := d.children[base].(type) {
	case nil:
		if flags&Create == 0 {
			return nil, fmt.Errorf("%s: %w", p, ErrNotExist)
		}
		e = &entry{id: fs.nextID, m: fs.resolveMount(p)}
		created = true
	case *entry:
		e = n
	case *dir:
		return nil, fmt.Errorf("%s: %w", p, ErrIsDir)
	}
	if flags&WriteOnly != 0 && e.readOnly {
		return nil, fmt.Errorf("%s: %w", p, ErrReadOnly)
	}
	kind := OpOpen
	if created {
		kind = OpCreate
	}
	op := &Op{Kind: kind, PID: pid, Path: p, FileID: e.id, Flags: flags, Size: e.size}
	if err := fs.pre(op); err != nil {
		return nil, err
	}
	if created {
		if err := e.m.b.Open(e.id, e.m.rel(p), true, false); err != nil {
			return nil, err
		}
		fs.nextID++
		d.children[base] = e
		fs.ids[e.id] = e
	}
	if flags&Truncate != 0 && flags&WriteOnly != 0 && e.size > 0 {
		fs.preImage(e, p, pid, OpOpen)
		if err := e.m.b.Open(e.id, e.m.rel(p), false, true); err != nil {
			return nil, err
		}
		e.size = 0
		op.Size = 0
	}
	h := &Handle{fs: fs, e: e, path: p, pid: pid, flags: flags}
	fs.post(op)
	return h, nil
}

// Create creates (or truncates) a file open for writing, like os.Create.
func (fs *FS) Create(pid int, p string) (*Handle, error) {
	return fs.Open(pid, p, WriteOnly|Create|Truncate)
}

// Path returns the path the handle was opened with.
func (h *Handle) Path() string { return h.path }

// FileID returns the stable identity of the open file.
func (h *Handle) FileID() uint64 { return h.e.id }

// Read reads up to len(buf) bytes from the current offset.
func (h *Handle) Read(buf []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, ErrClosed
	}
	if h.flags&ReadOnly == 0 {
		return 0, fmt.Errorf("%s: handle not open for reading: %w", h.path, ErrBadFlag)
	}
	if h.offset >= h.e.size {
		return 0, nil
	}
	op := &Op{Kind: OpRead, PID: h.pid, Path: h.path, FileID: h.e.id, Offset: h.offset, Size: h.e.size}
	if err := h.fs.pre(op); err != nil {
		return 0, err
	}
	data, _, err := h.e.m.b.Read(h.e.id, h.offset, int64(len(buf)))
	if err != nil {
		return 0, err
	}
	n := copy(buf, data)
	op.Data = data[:n]
	h.offset += int64(n)
	h.fs.post(op)
	return n, nil
}

// ReadAll reads the entire file content from offset zero.
func (h *Handle) ReadAll() ([]byte, error) {
	h.fs.mu.Lock()
	size := h.e.size
	h.fs.mu.Unlock()
	buf := make([]byte, size)
	h.fs.mu.Lock()
	h.offset = 0
	h.fs.mu.Unlock()
	n, err := h.Read(buf)
	return buf[:n], err
}

// Write writes data at the current offset (or the end, with Append),
// growing the file as needed.
func (h *Handle) Write(data []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, ErrClosed
	}
	if h.flags&WriteOnly == 0 {
		return 0, fmt.Errorf("%s: handle not open for writing: %w", h.path, ErrBadFlag)
	}
	off := h.offset
	if h.flags&Append != 0 {
		off = h.e.size
	}
	op := &Op{Kind: OpWrite, PID: h.pid, Path: h.path, FileID: h.e.id, Data: data, Offset: off}
	op.Size = off + int64(len(data))
	if h.e.size > op.Size {
		op.Size = h.e.size
	}
	if err := h.fs.pre(op); err != nil {
		return 0, err
	}
	h.fs.preImage(h.e, h.path, h.pid, OpWrite)
	newSize, err := h.e.m.b.Write(h.e.id, off, data)
	if err != nil {
		return 0, err
	}
	h.e.size = newSize
	h.offset = off + int64(len(data))
	h.wrote = true
	h.fs.post(op)
	return len(data), nil
}

// SeekTo sets the handle offset for the next read or write.
func (h *Handle) SeekTo(offset int64) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.offset = offset
}

// Close closes the handle. Closing twice returns ErrClosed.
func (h *Handle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	op := &Op{Kind: OpClose, PID: h.pid, Path: h.path, FileID: h.e.id, Size: h.e.size, Wrote: h.wrote}
	if err := h.fs.pre(op); err != nil {
		return err
	}
	if err := h.e.m.b.Close(h.e.id); err != nil {
		return err
	}
	h.closed = true
	h.fs.post(op)
	return nil
}

// Delete removes a file. Deleting a read-only file fails (Windows
// semantics), and deleting a non-empty directory fails with ErrNotEmpty.
func (fs *FS) Delete(pid int, p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = clean(p)
	parent, base := splitPath(p)
	d, err := fs.lookupDir(parent)
	if err != nil {
		return err
	}
	n, ok := d.children[base]
	if !ok {
		return fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	switch t := n.(type) {
	case *dir:
		if len(t.children) > 0 {
			return fmt.Errorf("%s: %w", p, ErrNotEmpty)
		}
		delete(d.children, base)
		return nil
	case *entry:
		if t.readOnly {
			return fmt.Errorf("%s: %w", p, ErrReadOnly)
		}
		op := &Op{Kind: OpDelete, PID: pid, Path: p, FileID: t.id, Size: t.size}
		if err := fs.pre(op); err != nil {
			return err
		}
		fs.preImage(t, p, pid, OpDelete)
		if err := t.m.b.Delete(t.id); err != nil {
			return err
		}
		delete(d.children, base)
		delete(fs.ids, t.id)
		fs.post(op)
		return nil
	}
	return nil
}

// Rename moves a file, replacing an existing destination file (Windows
// MoveFileEx semantics). Replacing a read-only destination fails, and a
// rename whose destination resolves to a different mount fails with
// ErrCrossMount — content does not migrate between backends.
func (fs *FS) Rename(pid int, oldp, newp string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oldp, newp = clean(oldp), clean(newp)
	if oldp == newp {
		return nil
	}
	oparent, obase := splitPath(oldp)
	od, err := fs.lookupDir(oparent)
	if err != nil {
		return err
	}
	n, ok := od.children[obase]
	if !ok {
		return fmt.Errorf("%s: %w", oldp, ErrNotExist)
	}
	e, ok := n.(*entry)
	if !ok {
		return fmt.Errorf("%s: rename of directories not supported: %w", oldp, ErrIsDir)
	}
	nparent, nbase := splitPath(newp)
	nd, err := fs.lookupDir(nparent)
	if err != nil {
		return err
	}
	if nm := fs.resolveMount(newp); nm != e.m {
		return fmt.Errorf("vfs: rename %s -> %s: %w", oldp, newp, ErrCrossMount)
	}
	var replaced *entry
	if existing, ok := nd.children[nbase]; ok {
		ef, ok := existing.(*entry)
		if !ok {
			return fmt.Errorf("%s: %w", newp, ErrIsDir)
		}
		if ef.readOnly {
			return fmt.Errorf("%s: %w", newp, ErrReadOnly)
		}
		replaced = ef
	}
	op := &Op{Kind: OpRename, PID: pid, Path: oldp, NewPath: newp, FileID: e.id, Size: e.size}
	if replaced != nil {
		op.ReplacedID = replaced.id
	}
	if err := fs.pre(op); err != nil {
		return err
	}
	if replaced != nil {
		fs.preImage(replaced, newp, pid, OpRename)
		if err := replaced.m.b.Delete(replaced.id); err != nil {
			return err
		}
		delete(fs.ids, replaced.id)
	}
	if err := e.m.b.Rename(e.id, e.m.rel(oldp), e.m.rel(newp)); err != nil {
		return err
	}
	delete(od.children, obase)
	nd.children[nbase] = e
	fs.post(op)
	return nil
}

// WriteFile creates p with the given content in a single
// create/write/close sequence (all filtered).
func (fs *FS) WriteFile(pid int, p string, data []byte) error {
	h, err := fs.Create(pid, p)
	if err != nil {
		return err
	}
	if _, err := h.Write(data); err != nil {
		_ = h.Close()
		return err
	}
	return h.Close()
}

// ReadFile reads the whole file through the filter as pid.
func (fs *FS) ReadFile(pid int, p string) ([]byte, error) {
	h, err := fs.Open(pid, p, ReadOnly)
	if err != nil {
		return nil, err
	}
	data, err := h.ReadAll()
	if cerr := h.Close(); err == nil {
		err = cerr
	}
	return data, err
}

// FileInfo describes a file or directory.
type FileInfo struct {
	// Path is the canonical path.
	Path string
	// Size is the content length in bytes (0 for directories).
	Size int64
	// IsDir reports whether the entry is a directory.
	IsDir bool
	// ReadOnly reports the read-only attribute.
	ReadOnly bool
	// FileID is the stable file identity (0 for directories).
	FileID uint64
}

// Stat describes the entry at p without passing through the interceptor
// (directory metadata operations are not scored by the paper's engine).
func (fs *FS) Stat(p string) (FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = clean(p)
	if p == "/" {
		return FileInfo{Path: "/", IsDir: true}, nil
	}
	parent, base := splitPath(p)
	d, err := fs.lookupDir(parent)
	if err != nil {
		return FileInfo{}, err
	}
	switch n := d.children[base].(type) {
	case nil:
		return FileInfo{}, fmt.Errorf("%s: %w", p, ErrNotExist)
	case *dir:
		return FileInfo{Path: p, IsDir: true}, nil
	case *entry:
		return FileInfo{Path: p, Size: n.size, ReadOnly: n.readOnly, FileID: n.id}, nil
	}
	return FileInfo{}, fmt.Errorf("%s: %w", p, ErrNotExist)
}

// List returns the entries of directory p, sorted by name.
func (fs *FS) List(p string) ([]FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.lookupDir(p)
	if err != nil {
		return nil, err
	}
	p = clean(p)
	names := make([]string, 0, len(d.children))
	for name := range d.children {
		names = append(names, name)
	}
	sort.Strings(names)
	infos := make([]FileInfo, 0, len(names))
	for _, name := range names {
		full := path.Join(p, name)
		switch n := d.children[name].(type) {
		case *dir:
			infos = append(infos, FileInfo{Path: full, IsDir: true})
		case *entry:
			infos = append(infos, FileInfo{Path: full, Size: n.size, ReadOnly: n.readOnly, FileID: n.id})
		}
	}
	return infos, nil
}

// Walk visits every entry under root in depth-first lexical order.
func (fs *FS) Walk(root string, fn func(info FileInfo) error) error {
	infos, err := fs.List(root)
	if err != nil {
		return err
	}
	for _, info := range infos {
		if err := fn(info); err != nil {
			return err
		}
		if info.IsDir {
			if err := fs.Walk(info.Path, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetReadOnly sets or clears the read-only attribute of a file.
func (fs *FS) SetReadOnly(p string, ro bool) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, err := fs.lookupEntry(p)
	if err != nil {
		return err
	}
	e.readOnly = ro
	return nil
}

// ReadFileRaw returns the file's content without passing through the
// interceptor — the analysis engine's privileged kernel-side access for
// snapshotting a file's state before it changes.
func (fs *FS) ReadFileRaw(p string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, err := fs.lookupEntry(p)
	if err != nil {
		return nil, err
	}
	data, _, err := e.m.b.Read(e.id, 0, -1)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// ReadFileRawByID returns content by file ID, regardless of the file's
// current path. It returns ErrNotExist if no file has that ID.
func (fs *FS) ReadFileRawByID(id uint64) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, ok := fs.ids[id]
	if !ok {
		return nil, fmt.Errorf("file id %d: %w", id, ErrNotExist)
	}
	data, _, err := e.m.b.Read(e.id, 0, -1)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// RestoreFileRawByID overwrites the file's content without passing through
// the interceptor — the recovery coordinator's privileged rollback write.
// The read-only attribute is ignored, as a kernel-side restore would.
func (fs *FS) RestoreFileRawByID(id uint64, content []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, ok := fs.ids[id]
	if !ok {
		return fmt.Errorf("file id %d: %w", id, ErrNotExist)
	}
	return fs.restoreEntry(e, content)
}

// RestoreFileRaw writes content at p without passing through the
// interceptor, overwriting an existing file or recreating a deleted one
// (with a fresh file ID) — the recovery path for files whose ID no longer
// exists because the attacker deleted or replaced them.
func (fs *FS) RestoreFileRaw(p string, content []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = clean(p)
	if e, err := fs.lookupEntry(p); err == nil {
		return fs.restoreEntry(e, content)
	} else if !errors.Is(err, ErrNotExist) {
		return err
	}
	parent, base := splitPath(p)
	if err := fs.mkdirAllLocked(parent); err != nil {
		return err
	}
	d, err := fs.lookupDir(parent)
	if err != nil {
		return err
	}
	e := &entry{id: fs.nextID, m: fs.resolveMount(p)}
	if err := e.m.b.Open(e.id, e.m.rel(p), true, false); err != nil {
		return err
	}
	fs.nextID++
	d.children[base] = e
	fs.ids[e.id] = e
	return fs.restoreEntry(e, content)
}

// restoreEntry truncates and rewrites an entry's content; fs.mu held.
func (fs *FS) restoreEntry(e *entry, content []byte) error {
	if err := e.m.b.Open(e.id, "", false, true); err != nil {
		return err
	}
	e.size = 0
	if len(content) > 0 {
		size, err := e.m.b.Write(e.id, 0, content)
		if err != nil {
			return err
		}
		e.size = size
	}
	return nil
}

// Clone returns a copy-on-write copy of the filesystem. The clone has no
// interceptor attached and independent operation counters. Backends that
// can snapshot themselves (Cloner — the in-memory backend) share content
// until either side writes, so cloning is cheap even for large trees;
// other backends (Local) are materialised into fresh in-memory backends,
// so a clone is always self-contained and side-effect-free.
func (fs *FS) Clone() *FS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nfs := &FS{
		root:     newDir(),
		nextID:   fs.nextID,
		ids:      make(map[uint64]*entry, len(fs.ids)),
		opCounts: make(map[OpKind]int64),
	}
	mm := make(map[*mount]*mount, len(fs.mounts))
	materialise := make(map[*mount]bool)
	for _, m := range fs.mounts {
		var nb Backend
		if c, ok := m.b.(Cloner); ok {
			nb = c.CloneBackend()
		}
		if nb == nil {
			nb = NewMemory()
			materialise[m] = true
		}
		nm := newMount(m.prefix, nb)
		mm[m] = nm
		nfs.mounts = append(nfs.mounts, nm)
	}
	nfs.root = cloneDirInto(fs.root, mm, materialise, nfs)
	return nfs
}

// cloneDirInto deep-copies the namespace, remapping entries onto the
// clone's mounts and copying content into materialised backends.
func cloneDirInto(d *dir, mm map[*mount]*mount, materialise map[*mount]bool, nfs *FS) *dir {
	nd := newDir()
	for name, n := range d.children {
		switch t := n.(type) {
		case *dir:
			nd.children[name] = cloneDirInto(t, mm, materialise, nfs)
		case *entry:
			ne := &entry{id: t.id, size: t.size, readOnly: t.readOnly, m: mm[t.m]}
			if materialise[t.m] {
				data, _, err := t.m.b.Read(t.id, 0, -1)
				if err == nil {
					if err := ne.m.b.Open(ne.id, "", true, false); err == nil && len(data) > 0 {
						if size, werr := ne.m.b.Write(ne.id, 0, data); werr == nil {
							ne.size = size
						}
					}
				}
			}
			nd.children[name] = ne
			nfs.ids[ne.id] = ne
		}
	}
	return nd
}

// Stats summarises the tree under root.
type Stats struct {
	Files int
	Dirs  int
	Bytes int64
}

// TreeStats counts files, directories and bytes under root.
func (fs *FS) TreeStats(root string) (Stats, error) {
	var s Stats
	err := fs.Walk(root, func(info FileInfo) error {
		if info.IsDir {
			s.Dirs++
		} else {
			s.Files++
			s.Bytes += info.Size
		}
		return nil
	})
	return s, err
}
