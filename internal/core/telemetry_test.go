package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cryptodrop/internal/telemetry"
)

// fireCounter reads the per-indicator fire counter for ind.
func fireCounter(reg *telemetry.Registry, ind Indicator) int64 {
	return reg.Counter(fmt.Sprintf("engine_indicator_fires_total{indicator=%q}", ind.String())).Value()
}

// TestTelemetryCountersMatchScriptedRun encrypts a known number of files
// with detection effectively disabled, so every indicator firing count is
// predictable: each fully transformed file fires type-change and similarity
// exactly once, and the union bonus fires exactly once overall.
func TestTelemetryCountersMatchScriptedRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	fr := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	cfg := DefaultConfig(testRoot)
	cfg.NonUnionThreshold = 1e9
	cfg.UnionThreshold = 1e9
	cfg.Telemetry = reg
	cfg.FlightRecorder = fr
	fs, eng := setup(t, cfg)

	const pid = 42
	const encrypted = 6
	infos, err := fs.List(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	// Encrypt text-like files only: their similarity digests are dense, so
	// every transformation reliably fires the similarity indicator (sparse
	// digests — compressed formats — are deliberately not trusted).
	texty := map[string]bool{".txt": true, ".csv": true, ".md": true, ".html": true, ".xml": true}
	n := 0
	for _, info := range infos {
		if n == encrypted {
			break
		}
		if i := strings.LastIndexByte(info.Path, '.'); i < 0 || !texty[info.Path[i:]] {
			continue
		}
		encryptInPlace(t, fs, pid, info.Path)
		n++
	}
	if n != encrypted {
		t.Fatalf("corpus has only %d text-like files, need %d", n, encrypted)
	}

	if got := fireCounter(reg, IndicatorTypeChange); got != encrypted {
		t.Errorf("type-change fires = %d, want %d", got, encrypted)
	}
	if got := fireCounter(reg, IndicatorSimilarity); got != encrypted {
		t.Errorf("similarity fires = %d, want %d", got, encrypted)
	}
	if got := reg.Counter("engine_union_fires_total").Value(); got != 1 {
		t.Errorf("union fires = %d, want 1", got)
	}
	if got := reg.Counter("engine_detections_total").Value(); got != 0 {
		t.Errorf("detections = %d, want 0 (thresholds disabled)", got)
	}

	// Counters must be internally consistent with the scoreboard: fires
	// times per-fire points reproduces the indicator's point totals for the
	// single-valued indicators.
	rep, ok := eng.Report(pid)
	if !ok {
		t.Fatal("no report for pid")
	}
	if want := float64(encrypted) * cfg.Points.TypeChange; rep.IndicatorPoints[IndicatorTypeChange] != want {
		t.Errorf("type-change points = %g, want %g", rep.IndicatorPoints[IndicatorTypeChange], want)
	}

	// The flight recorder saw the same history the counters did: per
	// indicator, trace events and counter values agree, and summing points
	// over the trace reproduces the reported score exactly.
	trace := fr.Trace(pid)
	byInd := make(map[string]int64)
	for _, ev := range trace.Events {
		byInd[ev.Indicator]++
	}
	for _, ind := range []Indicator{IndicatorTypeChange, IndicatorSimilarity, IndicatorEntropyDelta, IndicatorDeletion, IndicatorFunneling} {
		if got, want := byInd[ind.String()], fireCounter(reg, ind); got != want {
			t.Errorf("trace has %d %v events, counter says %d", got, ind, want)
		}
	}
	if byInd["union-bonus"] != 1 {
		t.Errorf("trace has %d union-bonus events, want 1", byInd["union-bonus"])
	}
	if math.Abs(trace.TotalPoints-rep.Score) > 1e-9 {
		t.Errorf("trace points sum to %g, scoreboard says %g", trace.TotalPoints, rep.Score)
	}
	if last := trace.Events[len(trace.Events)-1]; math.Abs(last.ScoreAfter-rep.Score) > 1e-9 {
		t.Errorf("last trace event ScoreAfter = %g, scoreboard says %g", last.ScoreAfter, rep.Score)
	}

	// Measurement latency was recorded on the synchronous path too.
	if got := reg.Histogram("engine_measure_seconds", nil).Count(); got == 0 {
		t.Error("no measure latency observations")
	}
}

// TestTelemetryDetectionTrace runs a default-config attack to detection and
// checks the detection is fully explainable from the flight recorder.
func TestTelemetryDetectionTrace(t *testing.T) {
	reg := telemetry.NewRegistry()
	fr := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	var detections []Detection
	cfg := DefaultConfig(testRoot)
	cfg.OnDetection = func(d Detection) { detections = append(detections, d) }
	cfg.Telemetry = reg
	cfg.FlightRecorder = fr
	fs, eng := setup(t, cfg)

	const pid = 77
	infos, err := fs.List(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if len(detections) > 0 {
			break
		}
		encryptInPlace(t, fs, pid, info.Path)
	}
	if len(detections) == 0 {
		t.Fatal("no detection")
	}
	d := detections[0]

	if got := reg.Counter("engine_detections_total").Value(); got != 1 {
		t.Errorf("detections counter = %d, want 1", got)
	}
	if got := reg.Histogram("engine_detection_score", nil).Count(); got != 1 {
		t.Errorf("detection score histogram count = %d, want 1", got)
	}

	// The trace must reconstruct the detection: accumulating event points in
	// order reaches the detection score exactly, at an event whose recorded
	// ScoreAfter agrees (in-flight evaluations may keep scoring briefly
	// after the detection fires, so the detection is a prefix of the trace).
	trace := fr.Trace(pid)
	if len(trace.Events) == 0 {
		t.Fatal("empty detection trace")
	}
	if trace.Truncated {
		t.Fatal("trace truncated; raise capacity for this test")
	}
	cum := 0.0
	explained := false
	prev := 0.0
	for _, ev := range trace.Events {
		cum += ev.Points
		if math.Abs(cum-d.Score) < 1e-9 && math.Abs(ev.ScoreAfter-d.Score) < 1e-9 {
			explained = true
		}
		// Events arrive in per-group order: ScoreAfter is non-decreasing.
		if ev.ScoreAfter < prev-1e-9 {
			t.Fatalf("ScoreAfter regressed: %g after %g (seq %d)", ev.ScoreAfter, prev, ev.Seq)
		}
		prev = ev.ScoreAfter
	}
	if !explained {
		t.Errorf("no trace prefix sums to the detection score %g (trace total %g)", d.Score, trace.TotalPoints)
	}
	// The full trace explains the final scoreboard state.
	rep, ok := eng.Report(pid)
	if !ok {
		t.Fatal("no report for pid")
	}
	if math.Abs(trace.TotalPoints-rep.Score) > 1e-9 {
		t.Errorf("trace points sum to %g, final scoreboard says %g", trace.TotalPoints, rep.Score)
	}
}

// TestTelemetryDisabledIsIdentical verifies a nil registry changes nothing:
// the same attack produces a bit-identical scoreboard with telemetry on and
// off.
func TestTelemetryDisabledIsIdentical(t *testing.T) {
	run := func(reg *telemetry.Registry, fr *telemetry.FlightRecorder) ProcessReport {
		cfg := DefaultConfig(testRoot)
		cfg.Telemetry = reg
		cfg.FlightRecorder = fr
		fs, eng := setup(t, cfg)
		const pid = 9
		infos, err := fs.List(testRoot)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range infos {
			encryptInPlace(t, fs, pid, info.Path)
		}
		rep, ok := eng.Report(pid)
		if !ok {
			t.Fatal("no report")
		}
		return rep
	}
	off := run(nil, nil)
	on := run(telemetry.NewRegistry(), telemetry.NewFlightRecorder(1024))
	if off.Score != on.Score || off.Detected != on.Detected || off.FilesTransformed != on.FilesTransformed {
		t.Fatalf("telemetry changed verdicts: off=%+v on=%+v", off, on)
	}
	for ind, pts := range off.IndicatorPoints {
		if on.IndicatorPoints[ind] != pts {
			t.Fatalf("indicator %v: off=%g on=%g", ind, pts, on.IndicatorPoints[ind])
		}
	}
}
