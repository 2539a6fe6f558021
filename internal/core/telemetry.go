package core

import (
	"cryptodrop/internal/indicator"
	"cryptodrop/internal/telemetry"
)

// engineTelemetry groups every metric handle the engine touches on its hot
// path. A nil *engineTelemetry disables all instrumentation at the cost of
// one branch per call site; individual handles are themselves nil-safe, so
// a flight recorder can be attached without a registry and vice versa.
type engineTelemetry struct {
	// fires counts indicator firings, keyed by registry indicator ID. The
	// series set is derived from the engine's indicator registry, so a
	// composed-in unit (a honeyfile, a custom indicator) gets its own
	// series without any telemetry change.
	fires map[indicator.ID]*telemetry.Counter
	// names caches each registered indicator's declared name for
	// flight-recorder attribution.
	names map[indicator.ID]string
	// unions counts policy acceleration firings (union bonus by default).
	unions *telemetry.Counter
	// detections counts threshold crossings.
	detections *telemetry.Counter
	// detScore and detTransformed are the score / files-transformed
	// distributions at detection time.
	detScore       *telemetry.Histogram
	detTransformed *telemetry.Histogram
	// measureLat is the file-measurement kernel latency.
	measureLat *telemetry.Histogram
	// lockWait is the sampled proc-shard lock acquisition wait.
	lockWait *telemetry.Histogram
	// readFails counts ContentSource read failures on the measurement path.
	// A failed read is not "empty content": it aborts the measurement, and
	// this counter is what distinguishes the two after the fact.
	readFails *telemetry.Counter
	// auditBundles counts detection audit bundles emitted to the sink.
	auditBundles *telemetry.Counter
	// recorder captures per-group indicator firings for post-hoc
	// explanation of detections.
	recorder *telemetry.FlightRecorder
}

// lockWaitSampleMask samples one in 64 proc-shard lock acquisitions when
// telemetry is enabled, keeping two clock reads off most operations.
const lockWaitSampleMask = 63

// newEngineTelemetry wires the engine's metrics into reg and attaches the
// flight recorder, deriving one fire-counter series per indicator in the
// engine's registry ir. It returns nil — telemetry fully off — when both
// reg and fr are nil. With a nil reg every metric handle is nil (no-op) and
// only the recorder is live.
func newEngineTelemetry(reg *telemetry.Registry, fr *telemetry.FlightRecorder, ir *indicator.Registry) *engineTelemetry {
	if reg == nil && fr == nil {
		return nil
	}
	t := &engineTelemetry{
		recorder: fr,
		fires:    make(map[indicator.ID]*telemetry.Counter, ir.Len()),
		names:    make(map[indicator.ID]string, ir.Len()),
	}
	for _, u := range ir.Units() {
		d := u.Decl()
		t.names[d.ID] = d.Name
		t.fires[d.ID] = reg.Counter(`engine_indicator_fires_total{indicator="` + d.Name + `"}`)
	}
	t.unions = reg.Counter("engine_union_fires_total")
	t.detections = reg.Counter("engine_detections_total")
	t.detScore = reg.Histogram("engine_detection_score", telemetry.ScoreBuckets())
	t.detTransformed = reg.Histogram("engine_detection_files_transformed", telemetry.CountBuckets())
	t.measureLat = reg.Histogram("engine_measure_seconds", telemetry.DefaultLatencyBuckets())
	t.lockWait = reg.Histogram("engine_proc_shard_lock_wait_seconds", telemetry.DefaultLatencyBuckets())
	t.readFails = reg.Counter("engine_content_read_failures_total")
	t.auditBundles = reg.Counter("engine_audit_bundles_total")
	return t
}

// registerObsSeries exposes the span tracer's recorded/dropped accounting
// as metric series, so a wrapped ring is visible in exposition instead of
// silently clipping traces; called once at engine construction when both a
// registry and a tracer exist.
func registerObsSeries(reg *telemetry.Registry, tr *telemetry.SpanTracer) {
	if reg == nil || tr == nil {
		return
	}
	reg.GaugeFunc("engine_spans_recorded_total", func() float64 { return float64(tr.Recorded()) })
	reg.GaugeFunc("engine_spans_dropped_total", func() float64 { return float64(tr.Dropped()) })
}

// indicatorName resolves an indicator ID to its registered declared name,
// falling back to ID.String() for units the registry does not hold.
func (t *engineTelemetry) indicatorName(id indicator.ID) string {
	if name, ok := t.names[id]; ok {
		return name
	}
	return id.String()
}

// fired records one indicator award; proc-shard lock held (so events for a
// scoring group are captured in award order).
func (t *engineTelemetry) fired(ps *procState, id indicator.ID, pts float64, opIdx int64, path string) {
	if t == nil {
		return
	}
	t.fires[id].Inc()
	t.recorder.Record(telemetry.FireEvent{
		Group:       ps.pid,
		OpIndex:     opIdx,
		Path:        path,
		Indicator:   t.indicatorName(id),
		IndicatorID: int(id),
		Points:      pts,
		ScoreAfter:  ps.score,
		Union:       ps.unionFired,
	})
}

// accelerated records the policy's one-time acceleration bonus under its
// own label ("union-bonus" for the default union policy); proc-shard lock
// held.
func (t *engineTelemetry) accelerated(ps *procState, label string, pts float64, opIdx int64) {
	if t == nil {
		return
	}
	t.unions.Inc()
	t.recorder.Record(telemetry.FireEvent{
		Group:      ps.pid,
		OpIndex:    opIdx,
		Indicator:  label,
		Points:     pts,
		ScoreAfter: ps.score,
		Union:      true,
	})
}

// detected records a threshold crossing; proc-shard lock held.
func (t *engineTelemetry) detected(ps *procState) {
	if t == nil {
		return
	}
	t.detections.Inc()
	t.detScore.Observe(ps.score)
	t.detTransformed.Observe(float64(ps.filesTransformed))
}

// readFailed counts one ContentSource read failure on the measurement path.
func (t *engineTelemetry) readFailed() {
	if t == nil {
		return
	}
	t.readFails.Inc()
}

// auditEmitted counts one audit bundle handed to the sink.
func (t *engineTelemetry) auditEmitted() {
	if t == nil {
		return
	}
	t.auditBundles.Inc()
}
