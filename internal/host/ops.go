package host

// Op constructors: the one definition of the Op contract for producers
// (the facade, livewatch's Feeder, the wire client's callers). Each returns
// one canonical Op so producers never hand-fill the struct: event kinds,
// write-intent flags and staged-content maps are easy to get subtly wrong (a
// missing Wrote bit silently skews scoring).
//
// The file ID is the producer's stable identity for a file across renames —
// any uint64 scheme works as long as it is consistent within a session.
// Staged content (before/after) rides in the op and is read only while the
// op is scored; producers therefore need no server-side filesystem at all.

import "cryptodrop/internal/core"

// OpBaseline seeds the engine's pre-state for an existing file without
// scoring a modification: an open-for-write announcement staging the file's
// current content. Stream it once per protected file before the ops that
// modify it, so the first real change measures similarity and entropy
// against the true original rather than an empty baseline.
func OpBaseline(pid int, path string, id uint64, content []byte) Op {
	return Op{
		PreEvent: &core.Event{
			Kind: core.EvOpen, PID: pid, Path: path, FileID: id,
			Flags: core.EvWriteIntent, Size: int64(len(content)),
		},
		Pre: map[uint64][]byte{id: content},
	}
}

// OpWrite captures one full rewrite cycle — open with write intent, modify,
// close — in a single op: before is the content the writer found, after the
// content it left. This is the workhorse for producers that observe whole
// file versions (editor saves, ransomware rewrites).
func OpWrite(pid int, path string, id uint64, before, after []byte) Op {
	op := OpClose(pid, path, id, after)
	op.PreEvent = &core.Event{
		Kind: core.EvOpen, PID: pid, Path: path, FileID: id,
		Flags: core.EvWriteIntent, Size: int64(len(before)),
	}
	op.Pre = map[uint64][]byte{id: before}
	return op
}

// OpClose scores a written-to file closing with the given final content,
// when the open was announced earlier (OpBaseline or OpCreate). Producers
// that cannot pair opens with closes should prefer OpWrite.
func OpClose(pid int, path string, id uint64, after []byte) Op {
	return Op{
		Event: core.Event{
			Kind: core.EvClose, PID: pid, Path: path, FileID: id,
			Size: int64(len(after)), Wrote: true,
		},
		Post: map[uint64][]byte{id: after},
	}
}

// OpCreate announces a file born under the watch; the creating process owns
// its subsequent modifications.
func OpCreate(pid int, path string, id uint64) Op {
	return Op{Event: core.Event{
		Kind: core.EvCreate, PID: pid, Path: path, FileID: id,
		Flags: core.EvWriteIntent | core.EvCreateIntent,
	}}
}

// OpDelete scores a file removal — the bulk-deletion secondary indicator's
// input.
func OpDelete(pid int, path string, id uint64) Op {
	return Op{Event: core.Event{Kind: core.EvDelete, PID: pid, Path: path, FileID: id}}
}

// OpRename scores a rename; with a changed extension it feeds the
// file-type funneling indicator.
func OpRename(pid int, oldPath, newPath string, id uint64) Op {
	return Op{Event: core.Event{
		Kind: core.EvRename, PID: pid, Path: oldPath, NewPath: newPath, FileID: id,
	}}
}
