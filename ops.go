package cryptodrop

// Op constructors for producers feeding host sessions or the wire client —
// the builders behind Session.Submit and the detection service's ingest
// stream. Each forwards to internal/host, which holds the one definition of
// the Op contract; see there for what every op stages.

import "cryptodrop/internal/host"

// OpBaseline seeds the engine's pre-state for an existing file without
// scoring a modification: an open-for-write announcement staging the file's
// current content. Stream it once per protected file before the ops that
// modify it, so the first real change measures similarity and entropy
// against the true original rather than an empty baseline.
func OpBaseline(pid int, path string, id uint64, content []byte) Op {
	return host.OpBaseline(pid, path, id, content)
}

// OpWrite captures one full rewrite cycle — open with write intent, modify,
// close — in a single op: before is the content the writer found, after the
// content it left. This is the workhorse for producers that observe whole
// file versions (editor saves, ransomware rewrites).
func OpWrite(pid int, path string, id uint64, before, after []byte) Op {
	return host.OpWrite(pid, path, id, before, after)
}

// OpClose scores a written-to file closing with the given final content,
// when the open was announced earlier (OpBaseline or OpCreate). Producers
// that cannot pair opens with closes should prefer OpWrite.
func OpClose(pid int, path string, id uint64, after []byte) Op {
	return host.OpClose(pid, path, id, after)
}

// OpCreate announces a file born under the watch; the creating process owns
// its subsequent modifications.
func OpCreate(pid int, path string, id uint64) Op { return host.OpCreate(pid, path, id) }

// OpDelete scores a file removal — the bulk-deletion secondary indicator's
// input.
func OpDelete(pid int, path string, id uint64) Op { return host.OpDelete(pid, path, id) }

// OpRename scores a rename; with a changed extension it feeds the
// file-type funneling indicator.
func OpRename(pid int, oldPath, newPath string, id uint64) Op {
	return host.OpRename(pid, oldPath, newPath, id)
}
