package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"cryptodrop/internal/entropy"
	"cryptodrop/internal/magic"
	"cryptodrop/internal/sdhash"
	"cryptodrop/internal/snapshot"
	"cryptodrop/internal/telemetry"
)

// This file implements the engine side of the durable-session contract: a
// versioned, deterministic capture of every piece of state that decides a
// verdict — the scoreboard, the previous-version file cache, the
// creator map, the detection log, the operation counter, the payload-blind
// flag, and the flight recorder — plus the restore path that rebuilds an
// identically-configured engine from it.
//
// The contract has two halves:
//
//   - Identity. Every snapshot embeds the engine's indicator-registry
//     fingerprint and a hash of the scoring-relevant configuration. Restore
//     verifies both before touching any state, so a checkpoint can never be
//     silently replayed into a pipeline that would score it differently
//     (ErrSnapshotMismatch names the diverging field).
//   - Determinism. Encoding the same quiesced engine twice yields the same
//     bytes, and a restored engine continues bit-identically: maps travel in
//     sorted key order, floats as exact IEEE-754 bit patterns, and the
//     flight recorder's sequence counter resumes where it stopped.
//
// Callers must quiesce the engine around Snapshot and Restore: no
// concurrent PreEvent/Handle. The host guarantees this by checkpointing
// only between batches (queued sessions) or under the direct mutex (direct
// sessions). Both still take the engine lock, so concurrent readers see
// the state before or after, never a mix.

// engineSnapshotVersion is the engine snapshot format version. Bump it when
// the payload layout changes; restore refuses other versions with a typed
// error wrapping snapshot.ErrVersion. Version 2 dropped version 1's
// per-file incremental-entropy tracker section; version 3 dropped the
// per-mean weighting flag, which the indicator registry now decides;
// version 4 dropped the sampled measurement tier's per-process escalation
// latch and per-file prefix-entropy fields.
const engineSnapshotVersion = 4

// The durable-session sentinels, re-exported from internal/snapshot under
// the names the facade exposes.
var (
	// ErrSnapshotMismatch reports a structurally valid snapshot produced by a
	// differently-configured pipeline (different indicator registry or
	// different scoring configuration). Restoring it is refused before any
	// state is installed.
	ErrSnapshotMismatch = snapshot.ErrMismatch
	// ErrSnapshotCorrupt reports a snapshot that is structurally damaged:
	// truncated, checksum-failed, or impossible field values.
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
)

// configHash returns a stable fingerprint ("cfg3-…") of the scoring-relevant
// engine configuration: the fields that change what verdict an event stream
// produces, including the detection policy's type and field values.
// Performance and observability knobs (MeasureCache, Telemetry,
// tracers, sinks) are deliberately excluded — they are verdict-preserving
// by construction (pinned by the bit-identity conformance suites), so a
// checkpoint taken with memoization on restores fine into an engine with it
// off. FamilyOf cannot be hashed (it is code); snapshots store
// already-resolved scoring-group PIDs, so restoring under a different family
// mapping only affects operations after the restore point.
func (e *Engine) configHash() string {
	c := &e.cfg
	h := fnv.New64a()
	fmt.Fprintf(h,
		"root=%s nonunion=%x union=%x edelta=%x simmax=%d funnel=%d points=%+v nocipherdelta=%t policy=%T%+v",
		c.ProtectedRoot,
		math.Float64bits(c.NonUnionThreshold), math.Float64bits(c.UnionThreshold), math.Float64bits(c.EntropyDeltaThreshold),
		c.SimilarityMatchMax, c.FunnelingThreshold, c.Points, c.NewCipherWithoutDelta,
		e.pol, e.pol,
	)
	return fmt.Sprintf("cfg3-%016x", h.Sum64())
}

// SnapshotIdentity returns the envelope identity every snapshot of this
// engine is sealed with and restore expects: the engine snapshot format
// version, the indicator-registry fingerprint ("reg1-…", the same
// canonical identity the audit bundles carry) and the scoring-config hash
// ("cfg3-…"). Hosts fold the version into their own envelope versions and
// embed the fingerprints, so a checkpoint is refused at open time, before
// engine state is decoded.
func (e *Engine) SnapshotIdentity() snapshot.Header {
	return snapshot.Header{Version: engineSnapshotVersion, Registry: e.reg.Fingerprint(), Config: e.configHash()}
}

// Snapshot captures the engine's complete scoring state as a sealed,
// versioned byte blob reflecting every operation observed so far. The
// caller must quiesce the engine: no concurrent PreEvent or Handle.
func (e *Engine) Snapshot() ([]byte, error) {
	enc := snapshot.NewEncoder()
	enc.Varint(e.opIndex.Load())
	enc.Bool(e.payloadBlind.Load())
	e.mu.Lock()
	e.encodeDetections(enc)
	e.encodeProcs(enc)
	err := e.encodeFiles(enc)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	e.encodeFlight(enc)
	return snapshot.Seal(e.SnapshotIdentity(), enc.Data()), nil
}

// Restore rebuilds the engine's scoring state from a snapshot captured by an
// identically-configured engine. The envelope's version, registry
// fingerprint and config hash are verified first (ErrSnapshotCorrupt /
// snapshot.ErrVersion / ErrSnapshotMismatch), then the entire payload is
// decoded into staging structures, and only a fully valid decode is
// installed — a damaged snapshot can never leave the engine half-restored.
// Existing scoring state is replaced wholesale. The caller must quiesce the
// engine, exactly as for Snapshot.
func (e *Engine) Restore(data []byte) error {
	h, payload, err := snapshot.Open(data)
	if err != nil {
		return err
	}
	if err := h.Check(e.SnapshotIdentity()); err != nil {
		return err
	}
	d := snapshot.NewDecoder(payload)
	opIdx := d.Varint()
	blind := d.Bool()
	dets := decodeDetections(d)
	procs := e.decodeProcs(d)
	states, creators := decodeFiles(d)
	flight, recorded, hasFlight := decodeFlight(d)
	if d.Err() != nil {
		return d.Err()
	}
	if d.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in engine payload", ErrSnapshotCorrupt, d.Len())
	}

	// The decode is fully valid: install.
	e.opIndex.Store(opIdx)
	e.payloadBlind.Store(blind)
	e.mu.Lock()
	e.detections, e.procs, e.files, e.creators = dets, procs, states, creators
	e.mu.Unlock()
	if t := e.tel; t != nil && t.recorder != nil {
		if hasFlight {
			t.recorder.Restore(flight, recorded)
		} else {
			t.recorder.Restore(nil, 0)
		}
	}
	return nil
}

// encodeDetections writes the detection log in occurrence order; e.mu
// held.
func (e *Engine) encodeDetections(enc *snapshot.Encoder) {
	enc.Uvarint(uint64(len(e.detections)))
	for _, det := range e.detections {
		enc.Varint(int64(det.PID))
		enc.F64(det.Score)
		enc.F64(det.Threshold)
		enc.Bool(det.Union)
		enc.Varint(det.OpIndex)
		encodeIndicatorPoints(enc, det.Indicators)
	}
}

func decodeDetections(d *snapshot.Decoder) []Detection {
	n := d.Count()
	var out []Detection
	for i := 0; i < n; i++ {
		det := Detection{
			PID:       int(d.Varint()),
			Score:     d.F64(),
			Threshold: d.F64(),
			Union:     d.Bool(),
			OpIndex:   d.Varint(),
		}
		det.Indicators = decodeIndicatorPoints(d)
		if d.Err() != nil {
			return nil
		}
		out = append(out, det)
	}
	return out
}

// encodeIndicatorPoints writes an indicator→points map in sorted ID order.
func encodeIndicatorPoints(enc *snapshot.Encoder, m map[Indicator]float64) {
	ids := make([]Indicator, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	enc.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		enc.Uvarint(uint64(id))
		enc.F64(m[id])
	}
}

func decodeIndicatorPoints(d *snapshot.Decoder) map[Indicator]float64 {
	n := d.Count()
	m := make(map[Indicator]float64, n)
	for i := 0; i < n; i++ {
		id := Indicator(d.Uvarint())
		m[id] = d.F64()
	}
	return m
}

// encodeStringSet writes a set in sorted order.
func encodeStringSet(enc *snapshot.Encoder, set map[string]bool) {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		enc.String(k)
	}
}

func decodeStringSet(d *snapshot.Decoder) map[string]bool {
	n := d.Count()
	set := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		set[d.String()] = true
	}
	return set
}

// encodeMean writes one WeightedMean's internal state.
func encodeMean(enc *snapshot.Encoder, s entropy.MeanState) {
	enc.F64(s.SumWeighted)
	enc.F64(s.SumWeights)
	enc.Varint(int64(s.Ops))
	enc.Varint(s.Bytes)
}

func decodeMean(d *snapshot.Decoder) entropy.MeanState {
	return entropy.MeanState{
		SumWeighted: d.F64(),
		SumWeights:  d.F64(),
		Ops:         int(d.Varint()),
		Bytes:       d.Varint(),
	}
}

// encodeProcs writes every scoreboard entry sorted by scoring-group PID, so
// the encoding is independent of map order; e.mu held.
func (e *Engine) encodeProcs(enc *snapshot.Encoder) {
	procs := make([]*procState, 0, len(e.procs))
	for _, ps := range e.procs {
		procs = append(procs, ps)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].pid < procs[j].pid })
	enc.Uvarint(uint64(len(procs)))
	for _, ps := range procs {
		enc.Varint(int64(ps.pid))
		enc.F64(ps.score)
		read, write := ps.delta.State()
		encodeMean(enc, read)
		encodeMean(enc, write)
		// indicatorSeen values are always true; only the keys travel.
		seen := make([]Indicator, 0, len(ps.indicatorSeen))
		for id := range ps.indicatorSeen {
			seen = append(seen, id)
		}
		sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
		enc.Uvarint(uint64(len(seen)))
		for _, id := range seen {
			enc.Uvarint(uint64(id))
		}
		encodeIndicatorPoints(enc, ps.indicatorPoints)
		encodeStringSet(enc, ps.typesRead)
		encodeStringSet(enc, ps.typesWritten)
		enc.Bool(ps.unionFired)
		enc.Bool(ps.detected)
		enc.Varint(int64(ps.deletes))
		enc.Varint(int64(ps.filesTransformed))
		// extsTouched preserves first-touch order; extSeen is derived on
		// restore.
		enc.Uvarint(uint64(len(ps.extsTouched)))
		for _, ext := range ps.extsTouched {
			enc.String(ext)
		}
		encodeStringSet(enc, ps.dirsTouched)
		enc.Uvarint(uint64(len(ps.history)))
		for _, hp := range ps.history {
			enc.Varint(hp.OpIndex)
			enc.F64(hp.Score)
		}
	}
}

func (e *Engine) decodeProcs(d *snapshot.Decoder) map[int]*procState {
	n := d.Count()
	out := make(map[int]*procState, n)
	for i := 0; i < n; i++ {
		ps := newProcState(int(d.Varint()), e.byteWeighted)
		ps.score = d.F64()
		read := decodeMean(d)
		write := decodeMean(d)
		ps.delta.SetState(read, write)
		for j, m := 0, d.Count(); j < m; j++ {
			ps.indicatorSeen[Indicator(d.Uvarint())] = true
		}
		ps.indicatorPoints = decodeIndicatorPoints(d)
		ps.typesRead = decodeStringSet(d)
		ps.typesWritten = decodeStringSet(d)
		ps.unionFired = d.Bool()
		ps.detected = d.Bool()
		ps.deletes = int(d.Varint())
		ps.filesTransformed = int(d.Varint())
		for j, m := 0, d.Count(); j < m; j++ {
			ps.touchExt(d.String())
		}
		ps.dirsTouched = decodeStringSet(d)
		for j, m := 0, d.Count(); j < m; j++ {
			ps.history = append(ps.history, ScorePoint{OpIndex: d.Varint(), Score: d.F64()})
		}
		if d.Err() != nil {
			return nil
		}
		out[ps.pid] = ps
	}
	return out
}

// encodeFiles writes the previous-version file cache and the creator map,
// each sorted by file ID; e.mu held.
func (e *Engine) encodeFiles(enc *snapshot.Encoder) error {
	ids := sortedIDs(e.files)
	enc.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		st := e.files[id]
		enc.Uvarint(id)
		enc.Bool(st != nil)
		if st == nil {
			continue
		}
		enc.String(st.typ.Name)
		enc.String(st.typ.ID)
		enc.Varint(int64(st.typ.Category))
		if st.digest != nil {
			text, err := st.digest.MarshalText()
			if err != nil {
				return fmt.Errorf("snapshot file %d: %w", id, err)
			}
			enc.Bool(true)
			enc.Bytes(text)
		} else {
			enc.Bool(false)
		}
		enc.Varint(st.size)
		enc.F64(st.entropy)
	}

	ids = sortedIDs(e.creators)
	enc.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		enc.Uvarint(id)
		enc.Varint(int64(e.creators[id]))
	}
	return nil
}

// sortedIDs returns m's keys in ascending order.
func sortedIDs[V any](m map[uint64]V) []uint64 {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func decodeFiles(d *snapshot.Decoder) (states map[uint64]*fileState, creators map[uint64]int) {
	states = make(map[uint64]*fileState)
	for i, n := 0, d.Count(); i < n; i++ {
		id := d.Uvarint()
		if !d.Bool() {
			states[id] = nil
			continue
		}
		st := &fileState{}
		st.typ.Name = d.String()
		st.typ.ID = d.String()
		st.typ.Category = magic.Category(d.Varint())
		if d.Bool() {
			text := d.Bytes()
			if d.Err() == nil {
				dg := new(sdhash.Digest)
				if err := dg.UnmarshalText(text); err != nil {
					d.Fail("file %d digest: %v", id, err)
					return nil, nil
				}
				st.digest = dg
			}
		}
		st.size = d.Varint()
		st.entropy = d.F64()
		if d.Err() != nil {
			return nil, nil
		}
		states[id] = st
	}
	creators = make(map[uint64]int)
	for i, n := 0, d.Count(); i < n; i++ {
		id := d.Uvarint()
		creators[id] = int(d.Varint())
	}
	return states, creators
}

// encodeFlight writes the flight recorder's buffered events and its all-time
// recorded count, so restored traces resume with identical sequence numbers.
// A presence flag keeps recorder-less engines' snapshots restorable into
// recorder-equipped ones (the events are simply absent) and vice versa.
func (e *Engine) encodeFlight(enc *snapshot.Encoder) {
	var fr *telemetry.FlightRecorder
	if t := e.tel; t != nil {
		fr = t.recorder
	}
	if fr == nil {
		enc.Bool(false)
		return
	}
	enc.Bool(true)
	events, recorded := fr.Snapshot()
	enc.Uvarint(recorded)
	enc.Uvarint(uint64(len(events)))
	for _, ev := range events {
		enc.Uvarint(ev.Seq)
		enc.Varint(int64(ev.Group))
		enc.Varint(ev.OpIndex)
		enc.String(ev.Path)
		enc.String(ev.Indicator)
		enc.Varint(int64(ev.IndicatorID))
		enc.F64(ev.Points)
		enc.F64(ev.ScoreAfter)
		enc.Bool(ev.Union)
		enc.Varint(ev.At)
	}
}

func decodeFlight(d *snapshot.Decoder) (events []telemetry.FireEvent, recorded uint64, present bool) {
	if !d.Bool() {
		return nil, 0, false
	}
	recorded = d.Uvarint()
	n := d.Count()
	for i := 0; i < n; i++ {
		ev := telemetry.FireEvent{
			Seq:         d.Uvarint(),
			Group:       int(d.Varint()),
			OpIndex:     d.Varint(),
			Path:        d.String(),
			Indicator:   d.String(),
			IndicatorID: int(d.Varint()),
			Points:      d.F64(),
			ScoreAfter:  d.F64(),
			Union:       d.Bool(),
			At:          d.Varint(),
		}
		if d.Err() != nil {
			return nil, 0, false
		}
		events = append(events, ev)
	}
	return events, recorded, true
}
