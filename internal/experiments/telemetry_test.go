package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cryptodrop/internal/corpus"
	"cryptodrop/internal/telemetry"
)

// TestRosterTelemetrySummaries runs a reduced roster with per-run telemetry
// and checks every detected outcome carries an explainable summary: the
// indicator mix is populated, measurement latency was observed, and the
// flight-recorder trace reproduces the detection score as a prefix sum.
func TestRosterTelemetrySummaries(t *testing.T) {
	r, err := NewRunner(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	r.EnableTelemetrySummaries()
	roster := reducedRoster(t)[:6]
	outcomes, err := r.RunRoster(roster, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range outcomes {
		if out.Telemetry == nil {
			t.Fatalf("%s: no telemetry summary", out.Sample.ID)
		}
		ts := out.Telemetry
		if len(ts.IndicatorFires) == 0 {
			t.Errorf("%s: empty indicator mix", out.Sample.ID)
		}
		if ts.MeasureCount == 0 {
			t.Errorf("%s: no measurements recorded", out.Sample.ID)
		}
		if ts.MeasureP99 < ts.MeasureP50 {
			t.Errorf("%s: p99 %g < p50 %g", out.Sample.ID, ts.MeasureP99, ts.MeasureP50)
		}
		if !out.Detected {
			continue
		}
		if ts.Detections != 1 {
			t.Errorf("%s: detections counter = %d, want 1", out.Sample.ID, ts.Detections)
		}
		if ts.Trace == nil || len(ts.Trace.Events) == 0 {
			t.Errorf("%s: detected but no flight-recorder trace", out.Sample.ID)
			continue
		}
		// The detection score appears as a prefix sum of the trace.
		cum, explained := 0.0, false
		for _, ev := range ts.Trace.Events {
			cum += ev.Points
			if math.Abs(cum-out.Score) < 1e-9 && math.Abs(ev.ScoreAfter-out.Score) < 1e-9 {
				explained = true
				break
			}
		}
		if !explained && math.Abs(ts.Trace.TotalPoints-out.Score) > 1e-9 {
			t.Errorf("%s: no trace prefix sums to detection score %g (trace total %g)",
				out.Sample.ID, out.Score, ts.Trace.TotalPoints)
		}
	}

	// Per-family aggregation covers every family that produced summaries.
	rows := IndicatorMixByFamily(outcomes)
	if len(rows) == 0 {
		t.Fatal("no indicator-mix rows")
	}
	for _, row := range rows {
		if row.Samples == 0 || len(row.Fires) == 0 {
			t.Errorf("family %s: empty aggregation row: %+v", row.Family, row)
		}
	}

	// The summaries survive the JSON export round trip.
	var buf bytes.Buffer
	if err := WriteOutcomesJSON(&buf, outcomes); err != nil {
		t.Fatal(err)
	}
	back, err := ReadOutcomesJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range back {
		if o.Telemetry == nil {
			t.Fatalf("outcome %d lost telemetry in export", i)
		}
		if o.Telemetry.MeasureCount != outcomes[i].Telemetry.MeasureCount {
			t.Fatalf("outcome %d: measure count changed in round trip", i)
		}
	}
}

// TestSharedRegistryAcrossRoster attaches one shared registry to the runner
// and checks the live exposition a /metrics scrape would see after a roster:
// per-indicator fire counters and measurement histograms.
func TestSharedRegistryAcrossRoster(t *testing.T) {
	reg := telemetry.NewRegistry()
	spec := corpus.Spec{Seed: 30, Files: 300, Dirs: 40, SizeScale: 0.25}
	r, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	r.SetTelemetry(reg, nil)
	roster := reducedRoster(t)[:4]
	outcomes, err := r.RunRoster(roster, nil)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for _, o := range outcomes {
		if o.Detected {
			detected++
		}
	}
	if got := reg.Counter("engine_detections_total").Value(); got != int64(detected) {
		t.Errorf("shared detections counter = %d, roster detected %d", got, detected)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`engine_indicator_fires_total{indicator="similarity"}`,
		`engine_indicator_fires_total{indicator="file-type-change"}`,
		"engine_measure_seconds_bucket",
		"engine_measure_seconds_count",
		`vfs_ops_total{kind=`,
		`filter_pre_seconds_bucket{filter="cryptodrop"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics exposition missing %q", want)
		}
	}

	// The expvar-style view is valid JSON carrying the same counters.
	buf.Reset()
	if err := reg.WriteVars(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("vars not JSON: %v", err)
	}
}
