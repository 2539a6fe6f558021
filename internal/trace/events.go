package trace

import (
	"encoding/base64"
	"fmt"

	"cryptodrop/internal/core"
	"cryptodrop/internal/vfs"
	"cryptodrop/internal/vfsadapter"
)

// EventReplayer feeds a recorded operation stream directly into a
// core.Engine — no filesystem is reconstructed and no handles are opened.
// It emits exactly one PreEvent/Handle pair per record, in record order,
// which is precisely the stream the live engine consumed, so handle modes,
// repeated opens and left-open handles replay as they happened. On a
// complete trace over a known corpus it reproduces the live scoreboard,
// detections and flight-recorder trace bit for bit (pinned by the
// cross-backend conformance suite).
//
// The replayer maintains its own content store, seeded from the corpus the
// trace was captured over, and mutates it as write/rename/delete records go
// by; it serves the engine's ContentSource lookups from that store. Records
// whose pre-state is unknown (opens of files outside the seeded corpus) are
// skipped, mirroring how a trace is a partial view of a machine.
type EventReplayer struct {
	byPath map[string]*replayFile
	byID   map[uint64]*replayFile
}

type replayFile struct {
	id   uint64
	data []byte
}

// NewEventReplayer returns a replayer with an empty content store.
func NewEventReplayer() *EventReplayer {
	return &EventReplayer{
		byPath: make(map[string]*replayFile),
		byID:   make(map[uint64]*replayFile),
	}
}

// Seed installs a file's pre-trace content under its stable ID and path.
func (r *EventReplayer) Seed(path string, id uint64, content []byte) {
	f := &replayFile{id: id, data: append([]byte(nil), content...)}
	r.byPath[path] = f
	r.byID[id] = f
}

// SeedFromFS seeds the store from every file in fsys — typically a corpus
// rebuilt from the same deterministic spec the trace was captured over, so
// file IDs line up with the recorded ones.
func (r *EventReplayer) SeedFromFS(fsys *vfs.FS) error {
	err := fsys.Walk("/", func(info vfs.FileInfo) error {
		if info.IsDir {
			return nil
		}
		content, err := fsys.ReadFileRaw(info.Path)
		if err != nil {
			return fmt.Errorf("%s: %w", info.Path, err)
		}
		r.Seed(info.Path, info.FileID, content)
		return nil
	})
	if err != nil {
		return fmt.Errorf("trace: seed: %w", err)
	}
	return nil
}

// Content implements core.ContentSource over the replayer's store. The
// returned slice is a copy: the store mutates as the replay advances.
func (r *EventReplayer) Content(id uint64) ([]byte, error) {
	f, ok := r.byID[id]
	if !ok {
		return nil, fmt.Errorf("trace: no content for file id %d", id)
	}
	return append([]byte(nil), f.data...), nil
}

// event converts a record to the engine's event model, reusing the one
// vfs→Event mapping so a replayed record and a live operation translate
// identically.
func (rec *Record) event() core.Event {
	op := vfs.Op{
		Kind:       kindByName[rec.Op],
		PID:        rec.PID,
		Path:       rec.Path,
		NewPath:    rec.NewPath,
		FileID:     rec.FileID,
		ReplacedID: rec.ReplacedID,
		Offset:     rec.Offset,
		Size:       rec.Size,
		Flags:      vfs.OpenFlag(rec.Flags),
		Wrote:      rec.Wrote,
	}
	return vfsadapter.EventFromOp(&op)
}

// Replay emits the records into eng in order. The engine must have been
// constructed with this replayer as its ContentSource. Undecodable payloads
// and records whose pre-state is missing from the store are skipped.
func (r *EventReplayer) Replay(eng *core.Engine, records []Record) (ReplayResult, error) {
	var res ReplayResult
	for i := range records {
		rec := &records[i]
		if r.apply(eng, rec) {
			res.Applied++
		} else {
			res.Skipped++
		}
	}
	return res, nil
}

// Advance fast-forwards the content store through records without emitting
// anything: every store mutation (writes, truncating opens, deletes, renames)
// happens exactly as in Replay, but no engine sees the events. It exists for
// checkpoint resume — an engine restored from a snapshot taken after record N
// needs a ContentSource whose store has also advanced through records [0,N),
// and Advance rebuilds that store state from the same seeded corpus. The
// applied/skipped split matches what Replay would have reported.
func (r *EventReplayer) Advance(records []Record) ReplayResult {
	var res ReplayResult
	for i := range records {
		if r.apply(nil, &records[i]) {
			res.Applied++
		} else {
			res.Skipped++
		}
	}
	return res
}

// apply emits one record; it reports whether the record was applied. A nil
// engine mutates only the content store (the Advance fast-forward path) —
// the applied/skipped decision is identical either way.
func (r *EventReplayer) apply(eng *core.Engine, rec *Record) bool {
	ev := rec.event()
	switch ev.Kind {
	case core.EvCreate:
		// A newly created (empty) file: register it so later writes land.
		r.Seed(rec.Path, rec.FileID, nil)
		if eng != nil {
			eng.PreEvent(ev)
			eng.Handle(ev)
		}

	case core.EvOpen:
		f := r.byPath[rec.Path]
		if f == nil {
			if ev.Flags&core.EvCreateIntent == 0 {
				return false // pre-state unknown: outside the seeded corpus
			}
			r.Seed(rec.Path, rec.FileID, nil)
			f = r.byPath[rec.Path]
		}
		if eng != nil {
			// The live PreOp saw the size before any truncation; the record
			// carries the post-truncation size. Reconstruct the pre-size from
			// the store.
			pre := ev
			pre.Size = int64(len(f.data))
			eng.PreEvent(pre)
		}
		if ev.Flags&core.EvTruncate != 0 && ev.Flags&core.EvWriteIntent != 0 {
			f.data = nil
		}
		if eng != nil {
			eng.Handle(ev)
		}

	case core.EvRead:
		// The payload is authoritative: it is exactly what the live engine
		// saw, whether or not the file is in the store.
		data, err := base64.StdEncoding.DecodeString(rec.DataB64)
		if err != nil {
			return false
		}
		if eng != nil {
			ev.Data = data
			eng.PreEvent(ev)
			eng.Handle(ev)
		}

	case core.EvWrite:
		data, err := base64.StdEncoding.DecodeString(rec.DataB64)
		if err != nil {
			return false
		}
		if eng != nil {
			ev.Data = data
			eng.PreEvent(ev)
		}
		if f := r.byPath[rec.Path]; f != nil {
			f.write(rec.Offset, data)
		}
		if eng != nil {
			eng.Handle(ev)
		}

	case core.EvClose:
		// Emitted even for files missing from the store: the live close of
		// a just-deleted file behaves the same way (its content read fails,
		// so the transformation evaluation is a no-op).
		if eng != nil {
			eng.PreEvent(ev)
			eng.Handle(ev)
		}

	case core.EvDelete:
		if eng != nil {
			eng.PreEvent(ev)
		}
		if f := r.byPath[rec.Path]; f != nil {
			delete(r.byPath, rec.Path)
			delete(r.byID, f.id)
		}
		if eng != nil {
			eng.Handle(ev)
		}

	case core.EvRename:
		if eng != nil {
			eng.PreEvent(ev)
		}
		if old := r.byPath[rec.NewPath]; old != nil && rec.ReplacedID != 0 {
			delete(r.byID, old.id)
		}
		if f := r.byPath[rec.Path]; f != nil {
			delete(r.byPath, rec.Path)
			r.byPath[rec.NewPath] = f
		}
		if eng != nil {
			eng.Handle(ev)
		}

	default:
		return false
	}
	return true
}

// write mirrors the vfs file write: store data at off, growing as needed.
func (f *replayFile) write(off int64, data []byte) {
	need := off + int64(len(data))
	if need > int64(len(f.data)) {
		nd := make([]byte, need)
		copy(nd, f.data)
		f.data = nd
	}
	copy(f.data[off:], data)
}
