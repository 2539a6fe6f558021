package trace

import (
	"encoding/base64"

	"cryptodrop/internal/core"
	"cryptodrop/internal/host"
)

// BuildHostOps translates a recorded operation stream into host ingest ops,
// carrying every byte the engine will need inside the ops themselves: the
// producer-side store advances exactly as EventReplayer.Replay's does, but
// instead of driving an engine it stages pre-state content in Op.Pre,
// post-state content in Op.Post, and evicts staged IDs once the op is
// scored. A host session applying the returned ops (in order, with no
// fallback ContentSource) produces a scoreboard, detection list and flight
// trace bit-identical to EventReplayer.Replay over the same records — the
// conformance suite pins this.
//
// The receiver must be seeded exactly as for EventReplayer.Replay; building
// consumes the store (it mutates as records go by), so use a fresh replayer
// per build. Skip rules match EventReplayer.Replay: undecodable payloads and
// opens of files outside the seeded corpus are dropped.
func (r *EventReplayer) BuildHostOps(records []Record) ([]host.Op, ReplayResult) {
	var res ReplayResult
	ops := make([]host.Op, 0, len(records))
	for i := range records {
		op, ok := r.buildOp(&records[i])
		if !ok {
			res.Skipped++
			continue
		}
		res.Applied++
		ops = append(ops, op)
	}
	return ops, res
}

// copyBytes snapshots store data for staging: the store mutates after the
// op is built, the staged slice must not.
func copyBytes(b []byte) []byte { return append([]byte(nil), b...) }

// stage adds id→content to the map, allocating it on first use.
func stage(m map[uint64][]byte, id uint64, content []byte) map[uint64][]byte {
	if m == nil {
		m = make(map[uint64][]byte, 1)
	}
	m[id] = content
	return m
}

// buildOp translates one record, advancing the store exactly as
// EventReplayer.apply does; it reports whether the record translates (false
// mirrors apply's skip rules).
func (r *EventReplayer) buildOp(rec *Record) (host.Op, bool) {
	ev := rec.event()
	op := host.Op{Event: ev}
	switch ev.Kind {
	case core.EvCreate:
		// A newly created (empty) file: register it so later writes land.
		r.Seed(rec.Path, rec.FileID, nil)

	case core.EvOpen:
		f := r.byPath[rec.Path]
		if f == nil {
			if ev.Flags&core.EvCreateIntent == 0 {
				return host.Op{}, false // pre-state unknown
			}
			r.Seed(rec.Path, rec.FileID, nil)
			f = r.byPath[rec.Path]
		}
		// The live PreOp saw the size before any truncation; the record
		// carries the post-truncation size. Reconstruct the pre-size (and
		// stage the pre-truncation content) from the store. Staging reads
		// the ID-keyed side exactly as the replayer's Content does.
		pre := ev
		pre.Size = int64(len(f.data))
		op.PreEvent = &pre
		if g := r.byID[ev.FileID]; g != nil {
			op.Pre = stage(op.Pre, ev.FileID, copyBytes(g.data))
			op.Evict = append(op.Evict, ev.FileID)
		}
		if ev.Flags&core.EvTruncate != 0 && ev.Flags&core.EvWriteIntent != 0 {
			f.data = nil
		}

	case core.EvRead:
		data, err := base64.StdEncoding.DecodeString(rec.DataB64)
		if err != nil {
			return host.Op{}, false
		}
		op.Event.Data = data

	case core.EvWrite:
		data, err := base64.StdEncoding.DecodeString(rec.DataB64)
		if err != nil {
			return host.Op{}, false
		}
		op.Event.Data = data
		// PreEvent may snapshot the pre-write content (the fallback for
		// handles opened before the engine attached).
		if g := r.byID[ev.FileID]; g != nil {
			op.Pre = stage(op.Pre, ev.FileID, copyBytes(g.data))
			op.Evict = append(op.Evict, ev.FileID)
		}
		if f := r.byPath[rec.Path]; f != nil {
			f.write(rec.Offset, data)
		}

	case core.EvClose:
		// Handle measures the completed rewrite; a file missing from the
		// store stays missing from the overlay, so the content read fails
		// and the evaluation no-ops exactly as in a live run.
		if g := r.byID[ev.FileID]; g != nil {
			op.Post = stage(op.Post, ev.FileID, copyBytes(g.data))
			op.Evict = append(op.Evict, ev.FileID)
		}

	case core.EvDelete:
		if f := r.byPath[rec.Path]; f != nil {
			delete(r.byPath, rec.Path)
			delete(r.byID, f.id)
		}

	case core.EvRename:
		// PreEvent snapshots the replaced file and/or the moving file;
		// Handle measures the moving file at its destination. The bytes do
		// not change across a rename, so staging the pre-state covers both
		// sides of the pair.
		if rec.ReplacedID != 0 {
			if g := r.byID[rec.ReplacedID]; g != nil {
				op.Pre = stage(op.Pre, rec.ReplacedID, copyBytes(g.data))
				op.Evict = append(op.Evict, rec.ReplacedID)
			}
		}
		if g := r.byID[ev.FileID]; g != nil {
			op.Pre = stage(op.Pre, ev.FileID, copyBytes(g.data))
			op.Evict = append(op.Evict, ev.FileID)
		}
		if old := r.byPath[rec.NewPath]; old != nil && rec.ReplacedID != 0 {
			delete(r.byID, old.id)
		}
		if f := r.byPath[rec.Path]; f != nil {
			delete(r.byPath, rec.Path)
			r.byPath[rec.NewPath] = f
		}

	default:
		return host.Op{}, false
	}
	return op, true
}
