package core

import (
	"fmt"
	"sort"

	"cryptodrop/internal/audit"
	"cryptodrop/internal/telemetry"
)

// This file assembles detection audit bundles (internal/audit): the
// self-contained "why was this process flagged" record emitted through
// Config.AuditSink. Assembly runs in dispatch, outside all engine locks;
// everything that must be read consistently with the detection (score
// composition, files lost, deletions) was captured under the shard lock
// inside firedDetection, and the firing history comes from the flight
// recorder's causal prefix.

// buildAuditBundle assembles the audit record for one fired detection.
func (e *Engine) buildAuditBundle(fd firedDetection) *audit.Bundle {
	det := fd.det
	b := &audit.Bundle{
		Version:   2,
		SessionID: e.cfg.SessionID,
		PID:       det.PID,
		Score:     det.Score,
		Threshold: det.Threshold,
		Union:     det.Union,
		OpIndex:   det.OpIndex,
		FilesLost: fd.filesLost,
		Deletes:   fd.deletes,
		Engine: audit.EngineConfig{
			ProtectedRoot:         e.cfg.ProtectedRoot,
			NonUnionThreshold:     e.cfg.NonUnionThreshold,
			UnionThreshold:        e.cfg.UnionThreshold,
			EntropyDeltaThreshold: e.cfg.EntropyDeltaThreshold,
			SimilarityMatchMax:    e.cfg.SimilarityMatchMax,
			FunnelingThreshold:    e.cfg.FunnelingThreshold,
			NewCipherWithoutDelta: e.cfg.NewCipherWithoutDelta,
			PayloadBlind:          e.payloadBlind.Load(),
		},
		Registry: audit.RegistryInfo{
			Fingerprint: e.reg.Fingerprint(),
			Policy:      fmt.Sprintf("%T", e.pol),
		},
	}
	for _, u := range e.reg.Units() {
		d := u.Decl()
		b.Registry.Units = append(b.Registry.Units, fmt.Sprintf("%d:%s", d.ID, d.Name))
	}
	if e.memo != nil {
		s := e.memo.Stats()
		b.Measurement.Cache = &audit.CacheStats{
			Hits:      int64(s.Hits),
			Misses:    int64(s.Misses),
			Evictions: int64(s.Evictions),
			Entries:   int64(s.Entries),
			Bytes:     s.Bytes,
		}
	}
	if e.tel != nil {
		b.Measurement.ContentReadFailures = e.tel.readFails.Value()
	}

	// Per-indicator contributions, from the detection's own point totals
	// (captured under the shard lock — exact even when the flight ring
	// wrapped), sorted by registry ID.
	ids := make([]Indicator, 0, len(det.Indicators))
	for id := range det.Indicators {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	contribs := make([]audit.Contribution, 0, len(ids)+1)
	byID := make(map[int]int, len(ids)+1)
	var sum float64
	for _, id := range ids {
		name := e.indNames[id]
		if name == "" {
			name = id.String()
		}
		byID[int(id)] = len(contribs)
		contribs = append(contribs, audit.Contribution{
			Indicator: name, ID: int(id), Points: det.Indicators[id],
		})
		sum += det.Indicators[id]
	}
	// The policy-level share (the union bonus under the default policy) is
	// the residual beyond the indicator totals, so contributions always sum
	// to the detection score exactly. Its label is recovered from the trace
	// when a recorder saw the acceleration event.
	accelLabel := ""

	// The causal firing history: the group's trace clipped to events at or
	// before the detection's operation index (awards recorded after the
	// threshold crossing, or drained later under higher op indices, are
	// post-detection and excluded).
	var recorder *telemetry.FlightRecorder
	if e.tel != nil {
		recorder = e.tel.recorder
	}
	if recorder != nil {
		full := recorder.Trace(det.PID)
		prefix := telemetry.Trace{Group: det.PID, Truncated: full.Truncated, Dropped: full.Dropped}
		seenPath := make(map[string]bool)
		for _, ev := range full.Events {
			if ev.OpIndex > det.OpIndex {
				continue
			}
			prefix.Events = append(prefix.Events, ev)
			prefix.TotalPoints += ev.Points
			if ev.Path != "" && !seenPath[ev.Path] {
				seenPath[ev.Path] = true
				b.FilesTouched = append(b.FilesTouched, ev.Path)
			}
			if ev.IndicatorID == 0 {
				accelLabel = ev.Indicator
			}
			i, ok := byID[ev.IndicatorID]
			if !ok {
				continue
			}
			c := &contribs[i]
			c.Fires++
			if c.Fires == 1 {
				c.FirstOpIndex, c.FirstAt = ev.OpIndex, ev.At
			}
			c.LastOpIndex, c.LastAt = ev.OpIndex, ev.At
		}
		b.Trace = prefix
		if n := len(prefix.Events); n > 0 {
			b.OpsToDetection = det.OpIndex - prefix.Events[0].OpIndex
			if prefix.Events[0].At != 0 {
				b.TimeToDetectionNs = prefix.Events[n-1].At - prefix.Events[0].At
			}
		}
	} else {
		b.Trace = telemetry.Trace{Group: det.PID}
	}

	if resid := det.Score - sum; resid > 1e-9 || resid < -1e-9 {
		label := accelLabel
		if label == "" {
			label = "acceleration"
		}
		c := audit.Contribution{Indicator: label, Points: resid}
		if recorder != nil {
			for _, ev := range b.Trace.Events {
				if ev.IndicatorID == 0 && ev.Indicator == label {
					c.Fires++
					if c.Fires == 1 {
						c.FirstOpIndex, c.FirstAt = ev.OpIndex, ev.At
					}
					c.LastOpIndex, c.LastAt = ev.OpIndex, ev.At
				}
			}
		}
		contribs = append(contribs, c)
	}
	b.Contributions = contribs
	return b
}
