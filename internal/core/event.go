package core

// The engine is backend-neutral: it consumes a stream of Events — the
// paper's "file system operations" abstraction (§III, Fig. 2) — and asks a
// ContentSource for file bytes when an indicator needs them. Nothing in the
// hot path knows which monitoring vantage point produced the stream: the
// in-memory VFS filter chain, a live directory watcher, or a recorded trace
// are all thin adapters that translate their native representation into
// Events (see DESIGN.md, "Event model and backends").

// EventKind identifies the file operation an Event describes.
type EventKind int

// The event kinds. They mirror the operations of the paper's minifilter
// vantage point; every backend maps its native notifications onto these.
const (
	EvCreate EventKind = iota + 1 // a new file came into existence
	EvOpen                        // an existing file was opened
	EvRead                        // payload bytes were read
	EvWrite                       // payload bytes were written
	EvClose                       // a handle was closed (Wrote marks write handles)
	EvDelete                      // a file was removed
	EvRename                      // a file moved (possibly replacing another)
)

// String returns the kind name.
func (k EventKind) String() string {
	switch k {
	case EvCreate:
		return "create"
	case EvOpen:
		return "open"
	case EvRead:
		return "read"
	case EvWrite:
		return "write"
	case EvClose:
		return "close"
	case EvDelete:
		return "delete"
	case EvRename:
		return "rename"
	default:
		return "unknown"
	}
}

// EventFlag carries open-intent bits on EvCreate/EvOpen events. The engine
// itself only consults EvWriteIntent (to decide whether an open destroys a
// previous version worth snapshotting); the remaining bits let adapters
// preserve full open semantics through the event stream.
type EventFlag uint32

const (
	// EvReadIntent marks a handle opened for reading.
	EvReadIntent EventFlag = 1 << iota
	// EvWriteIntent marks a handle opened for writing: the previous
	// version of the file is about to be destroyed.
	EvWriteIntent
	// EvCreateIntent marks an open that may create the file.
	EvCreateIntent
	// EvTruncate marks an open that truncates existing content.
	EvTruncate
	// EvAppend marks a handle whose writes go to the end of the file.
	EvAppend
)

// Event is one backend-neutral file operation. Backends construct Events by
// value (no allocation) and hand them to Engine.PreEvent/Engine.Handle.
//
// Ordering contract: events for one scoring group (PID, or family under
// Config.FamilyOf) must be delivered in operation order; the engine
// serialises scoring per group, so cross-group interleaving is free.
// PreEvent for an operation must precede its Handle.
type Event struct {
	// Kind is the operation.
	Kind EventKind
	// PID is the acting process (resolved to a scoring group by
	// Config.FamilyOf when set).
	PID int
	// Path is the canonical file path; for EvRename it is the source.
	Path string
	// NewPath is the rename destination (EvRename only).
	NewPath string
	// FileID is the stable identity of the file operated on. It is the key
	// the engine hands to the ContentSource and the key under which
	// previous-version state is cached, so it must survive renames.
	FileID uint64
	// ReplacedID is, for EvRename, the identity of a file the rename
	// replaced at NewPath (0 if none).
	ReplacedID uint64
	// Data is the operation payload: bytes written for EvWrite, bytes read
	// for EvRead. The engine treats it as read-only and does not retain it.
	Data []byte
	// Offset is the payload position for EvRead/EvWrite.
	Offset int64
	// Size is the file size when the event fired. For EvOpen with
	// EvWriteIntent it must be the size before any truncation — a positive
	// Size is what tells the engine a previous version exists to snapshot.
	Size int64
	// Flags carries open-intent bits (EvCreate/EvOpen).
	Flags EventFlag
	// Wrote reports, for EvClose, whether the handle performed any write —
	// the trigger for transformation evaluation.
	Wrote bool
}

// ContentSource supplies current file content by stable file ID. The engine
// calls it from PreEvent (to snapshot a version about to be destroyed) and
// from Handle (to measure the result of a completed transformation); calls
// happen without any engine lock held and may run concurrently.
//
// A backend without byte access (e.g. a notification-only watcher that has
// already lost the pre-image) returns an error for unavailable content; the
// affected indicators simply do not fire. The returned slice must not be
// mutated afterwards — return a copy if the backing store changes in place.
type ContentSource interface {
	Content(id uint64) ([]byte, error)
}

// noContent is the ContentSource used when New is handed nil: every lookup
// misses, so content-dependent indicators never fire but the payload-level
// indicators (entropy delta over reads/writes, deletion, funneling) still
// work.
type noContent struct{}

func (noContent) Content(uint64) ([]byte, error) { return nil, errNoContent }

type contentError string

func (e contentError) Error() string { return string(e) }

// errNoContent reports a ContentSource miss.
const errNoContent = contentError("core: no content source")
