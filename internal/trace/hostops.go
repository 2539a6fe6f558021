package trace

import (
	"cryptodrop/internal/core"
	"cryptodrop/internal/host"
)

// BuildHostOps translates a recorded operation stream into host ingest ops,
// carrying every byte the engine will need inside the ops themselves: it
// walks the store exactly as EventReplayer.Replay does, but instead of
// driving an engine it stages the files PreEvent may read in Op.Pre before
// finish, and the file Handle measures in Op.Post after it. A host session
// applying the returned ops in order produces a scoreboard, detection
// list and flight trace bit-identical to EventReplayer.Replay over the same
// records — the conformance suite pins this.
//
// The receiver must be seeded exactly as for EventReplayer.Replay; building
// consumes the store (it mutates as records go by), so use a fresh replayer
// per build. Skipped records are those Replay skips.
func (r *EventReplayer) BuildHostOps(records []Record) ([]host.Op, ReplayResult) {
	var res ReplayResult
	ops := make([]host.Op, 0, len(records))
	for i := range records {
		rec := &records[i]
		st, ok := r.begin(rec)
		if !ok {
			res.Skipped++
			continue
		}
		res.Applied++
		op := host.Op{Event: st.ev}
		if st.ev.Kind == core.EvOpen {
			pre := st.pre
			op.PreEvent = &pre
		}
		for _, id := range st.preIDs[:st.nPre] {
			r.stage(&op.Pre, id)
		}
		r.finish(rec, &st)
		if st.post {
			r.stage(&op.Post, st.ev.FileID)
		}
		ops = append(ops, op)
	}
	return ops, res
}

// stage copies id's stored content into *m, allocating it on first use; a
// file missing from the store stages nothing, so the session's read fails as
// the live one did. The copy is taken because the store mutates after the
// op is built.
func (r *EventReplayer) stage(m *map[uint64][]byte, id uint64) {
	data, _, err := r.mem.Read(id, 0, -1)
	if err != nil {
		return
	}
	if *m == nil {
		*m = make(map[uint64][]byte, 1)
	}
	(*m)[id] = append([]byte(nil), data...)
}
