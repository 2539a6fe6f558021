// Package vfsadapter connects the in-memory VFS to a detection session: it
// sits in the filter chain (the minifilter vantage point of the paper's
// Fig. 2), translates each *vfs.Op into the backend-neutral core.Event, and
// submits it to a host.Session with the content the engine will read staged
// inside, so every op is counted, logged and replayable from the WAL alone.
// PreOp submits a baseline-only op only when PreEvent would read a file the
// engine has not measured yet (first touch, never per write chunk); PostOp
// submits an op whose zero-Kind PreEvent leaves only Handle to run. Which
// files to stage is the engine's own rule (core.Engine.PreReads/HandleReads).
package vfsadapter

import (
	"context"
	"sync"

	"cryptodrop/internal/core"
	"cryptodrop/internal/host"
	"cryptodrop/internal/vfs"
)

// Filter feeds a direct host session from vfs filter-chain callbacks; it
// never vetoes.
type Filter struct {
	fs   *vfs.FS
	sess *host.Session
}

// New returns a filter submitting fsys's operations to sess, which must be
// direct: the filter reuses its staging buffers once Submit returns.
func New(fsys *vfs.FS, sess *host.Session) *Filter { return &Filter{fs: fsys, sess: sess} }

// Name identifies the detector in a filter chain.
func (f *Filter) Name() string { return "cryptodrop" }

// handleOnly is the PreEvent of a post-operation op: a zero Kind.
var handleOnly core.Event

// PreOp submits the pre-operation side when it reads unmeasured content.
// PreEvent records nothing for an empty or vanished file, so only files
// with content are staged, and an op staging none is not submitted.
func (f *Filter) PreOp(op *vfs.Op) error {
	ev := EventFromOp(op)
	ids, n := f.sess.Engine().PreReads(&ev)
	if n == 0 {
		return nil
	}
	st := stagedPool.Get().(*staged)
	defer st.release()
	for _, id := range ids[:n] {
		if data, err := f.fs.ReadFileRawByID(id); err == nil && len(data) > 0 {
			st.m[id] = data
		}
	}
	if len(st.m) > 0 {
		st.pre = ev
		f.submit(host.Op{PreEvent: &st.pre, Pre: st.m})
	}
	return nil
}

// PostOp submits the completed operation unless the engine ignores it. An
// unreadable file stages nothing, so the engine's read fails as this did.
func (f *Filter) PostOp(op *vfs.Op) {
	hop := host.Op{Event: EventFromOp(op), PreEvent: &handleOnly}
	scored, measured := f.sess.Engine().HandleReads(&hop.Event)
	if !scored {
		return
	}
	if measured {
		st := stagedPool.Get().(*staged)
		defer st.release()
		if data, err := f.fs.ReadFileRawByID(hop.Event.FileID); err == nil {
			st.m[hop.Event.FileID] = data
		}
		hop.Post = st.m
	}
	f.submit(hop)
}

// submit applies hop on the direct session, which waits on no context; a
// closed session drops it, as a detached filter would.
func (f *Filter) submit(hop host.Op) { _ = f.sess.Submit(context.TODO(), hop) }

// staged holds one op's staged content. It is pooled: a direct session
// keeps none of it past Submit, so a staged op allocates no map.
type staged struct {
	pre core.Event
	m   map[uint64][]byte
}

var stagedPool = sync.Pool{New: func() any { return &staged{m: make(map[uint64][]byte, 2)} }}

func (st *staged) release() {
	clear(st.m)
	st.pre = core.Event{}
	stagedPool.Put(st)
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
