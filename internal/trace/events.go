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
// by; it serves the engine's ContentSource lookups from that store. The
// bytes live in a vfs.Memory keyed by file ID, so replayed writes grow
// files by the same rule as live ones. Records whose pre-state is unknown
// (opens of files outside the seeded corpus) are skipped, mirroring how a
// trace is a partial view of a machine. One record walk (begin, finish)
// advances the store for Replay, Advance and BuildHostOps alike.
type EventReplayer struct {
	// byPath maps a path to the ID of the file it names; a file's content
	// is in mem under that ID. Every ID byPath names is stored in mem, so
	// the store calls on those IDs cannot fail and their errors are
	// dropped.
	byPath map[string]uint64
	mem    *vfs.Memory
}

// NewEventReplayer returns a replayer with an empty content store.
func NewEventReplayer() *EventReplayer {
	return &EventReplayer{byPath: make(map[string]uint64), mem: vfs.NewMemory()}
}

// Seed installs a file's pre-trace content under its stable ID and path,
// replacing any content stored under id.
func (r *EventReplayer) Seed(path string, id uint64, content []byte) {
	if r.mem.Open(id, path, true, false) != nil {
		_ = r.mem.Open(id, path, false, true) // already stored: empty it
	}
	_, _ = r.mem.Write(id, 0, content)
	r.byPath[path] = id
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
	data, _, err := r.mem.Read(id, 0, -1)
	if err != nil {
		return nil, fmt.Errorf("trace: no content for file id %d", id)
	}
	return append([]byte(nil), data...), nil
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

// step is one record split at the engine's two callbacks, as begin returns
// it: the event PreEvent sees, the event Handle sees, and the stored files
// whose content each may read.
type step struct {
	pre, ev core.Event
	// preIDs[:nPre] are the files PreEvent may read (core.StaticPreReads).
	// They include a rename's moving file, whose bytes Handle reads too.
	preIDs [2]uint64
	nPre   int
	// post marks a close: Handle measures ev.FileID as finish leaves it.
	post bool
}

// begin decodes rec and applies the skip rules, reporting false for a
// record that is skipped: an open of a file outside the store without
// create intent (its pre-state is unknown) and an undecodable payload. It
// makes the store changes that precede PreEvent (registering created files)
// and returns the record's step. Replay, Advance and BuildHostOps all walk
// records as begin, then PreEvent's side, then finish, then Handle's side.
func (r *EventReplayer) begin(rec *Record) (step, bool) {
	st := step{ev: rec.event()}
	preSize := st.ev.Size
	switch st.ev.Kind {
	case core.EvCreate:
		r.Seed(rec.Path, rec.FileID, nil)
	case core.EvOpen:
		id, ok := r.byPath[rec.Path]
		if !ok {
			if st.ev.Flags&core.EvCreateIntent == 0 {
				return st, false
			}
			r.Seed(rec.Path, rec.FileID, nil)
			id = rec.FileID
		}
		// The live PreOp saw the size before any truncation; the record
		// carries the post-truncation size.
		preSize, _ = r.mem.Stat(id)
	case core.EvRead, core.EvWrite:
		// The payload is authoritative: it is exactly what the live engine
		// saw, whether or not the file is in the store.
		data, err := base64.StdEncoding.DecodeString(rec.DataB64)
		if err != nil {
			return st, false
		}
		st.ev.Data = data
	case core.EvClose:
		// A file missing from the store (deleted under an open handle)
		// stays missing, so the live close's failed read is reproduced.
		st.post = true
	case core.EvDelete, core.EvRename:
	default:
		return st, false
	}
	st.pre = st.ev
	st.pre.Size = preSize
	st.preIDs, st.nPre = core.StaticPreReads(&st.pre)
	return st, true
}

// finish makes the store changes Handle observes: a truncating write-open
// empties the file, a write lands its bytes, a delete drops the file and a
// rename moves it over whatever it replaced. A rename from a path outside
// the store over a replaced file leaves the new path outside the store
// too: its content is unknown.
func (r *EventReplayer) finish(rec *Record, st *step) {
	switch st.ev.Kind {
	case core.EvOpen:
		if st.ev.Flags&core.EvTruncate != 0 && st.ev.Flags&core.EvWriteIntent != 0 {
			_ = r.mem.Open(r.byPath[rec.Path], "", false, true)
		}
	case core.EvWrite:
		if id, ok := r.byPath[rec.Path]; ok {
			_, _ = r.mem.Write(id, rec.Offset, st.ev.Data)
		}
	case core.EvDelete:
		if id, ok := r.byPath[rec.Path]; ok {
			delete(r.byPath, rec.Path)
			_ = r.mem.Delete(id)
		}
	case core.EvRename:
		if old, ok := r.byPath[rec.NewPath]; ok && rec.ReplacedID != 0 {
			delete(r.byPath, rec.NewPath)
			_ = r.mem.Delete(old)
		}
		if id, ok := r.byPath[rec.Path]; ok {
			delete(r.byPath, rec.Path)
			r.byPath[rec.NewPath] = id
		}
	}
}

// Replay emits the records into eng in order. The engine must have been
// constructed with this replayer as its ContentSource. Records begin skips
// are counted, not emitted.
func (r *EventReplayer) Replay(eng *core.Engine, records []Record) (ReplayResult, error) {
	var res ReplayResult
	for i := range records {
		rec := &records[i]
		st, ok := r.begin(rec)
		if !ok {
			res.Skipped++
			continue
		}
		res.Applied++
		eng.PreEvent(st.pre)
		r.finish(rec, &st)
		eng.Handle(st.ev)
	}
	return res, nil
}

// Advance fast-forwards the content store through records without emitting
// anything: the same walk as Replay with no engine between its steps. It
// exists for checkpoint resume — an engine restored from a snapshot taken
// after record N needs a ContentSource whose store has also advanced
// through records [0,N), and Advance rebuilds that store state from the
// same seeded corpus. The applied/skipped split matches Replay's.
func (r *EventReplayer) Advance(records []Record) ReplayResult {
	var res ReplayResult
	for i := range records {
		st, ok := r.begin(&records[i])
		if !ok {
			res.Skipped++
			continue
		}
		res.Applied++
		r.finish(&records[i], &st)
	}
	return res
}
