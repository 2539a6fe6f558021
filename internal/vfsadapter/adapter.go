// Package vfsadapter connects the backend-neutral detection engine to the
// in-memory VFS: it sits in the filter chain (the minifilter vantage point
// of the paper's Fig. 2), translates each *vfs.Op into a core.Event, and
// exposes the filesystem's raw content reads as the engine's ContentSource.
//
// The translation is mechanical and allocation-free — Events are built on
// the stack and passed by value — so attaching the engine through this
// adapter costs the same as the engine implementing filter.Filter itself
// did before the event model was extracted.
package vfsadapter

import (
	"cryptodrop/internal/core"
	"cryptodrop/internal/vfs"
)

// Filter adapts a core.Engine to the vfs filter chain. PreOp feeds the
// engine's snapshot pass; PostOp feeds scoring. It never vetoes.
type Filter struct {
	eng *core.Engine
}

// New returns a chain filter driving eng from vfs operations.
func New(eng *core.Engine) *Filter { return &Filter{eng: eng} }

// Engine returns the wrapped engine.
func (f *Filter) Engine() *core.Engine { return f.eng }

// Name identifies the detector in a filter chain.
func (f *Filter) Name() string { return "cryptodrop" }

// PreOp hands the engine its pre-operation look at state about to be
// destroyed. It never vetoes.
func (f *Filter) PreOp(op *vfs.Op) error {
	f.eng.PreEvent(EventFromOp(op))
	return nil
}

// PostOp hands the completed operation to the engine for scoring.
func (f *Filter) PostOp(op *vfs.Op) {
	f.eng.Handle(EventFromOp(op))
}

// evKinds maps vfs operation kinds to event kinds. Indexed by vfs.OpKind;
// the zero entry is unused (op kinds start at 1).
var evKinds = [...]core.EventKind{
	vfs.OpCreate: core.EvCreate,
	vfs.OpOpen:   core.EvOpen,
	vfs.OpRead:   core.EvRead,
	vfs.OpWrite:  core.EvWrite,
	vfs.OpClose:  core.EvClose,
	vfs.OpDelete: core.EvDelete,
	vfs.OpRename: core.EvRename,
}

// EventFromOp translates one vfs operation into the engine's event model.
// The payload slice is shared, not copied: the engine treats Data as
// read-only and does not retain it past the call.
func EventFromOp(op *vfs.Op) core.Event {
	return core.Event{
		Kind:       evKinds[op.Kind],
		PID:        op.PID,
		Path:       op.Path,
		NewPath:    op.NewPath,
		FileID:     op.FileID,
		ReplacedID: op.ReplacedID,
		Data:       op.Data,
		Offset:     op.Offset,
		Size:       op.Size,
		Flags:      flagsFromOpen(op.Flags),
		Wrote:      op.Wrote,
	}
}

// flagsFromOpen translates vfs open flags into event intent bits.
func flagsFromOpen(fl vfs.OpenFlag) core.EventFlag {
	var out core.EventFlag
	if fl&vfs.ReadOnly != 0 {
		out |= core.EvReadIntent
	}
	if fl&vfs.WriteOnly != 0 {
		out |= core.EvWriteIntent
	}
	if fl&vfs.Create != 0 {
		out |= core.EvCreateIntent
	}
	if fl&vfs.Truncate != 0 {
		out |= core.EvTruncate
	}
	if fl&vfs.Append != 0 {
		out |= core.EvAppend
	}
	return out
}

// source exposes a vfs as the engine's ContentSource through the privileged
// raw read (no handle, no op events, no interceptor recursion).
type source struct {
	fs *vfs.FS
}

// Source returns a core.ContentSource reading file content from fsys by ID.
func Source(fsys *vfs.FS) core.ContentSource { return source{fs: fsys} }

func (s source) Content(id uint64) ([]byte, error) {
	return s.fs.ReadFileRawByID(id)
}
