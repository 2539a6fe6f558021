package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"cryptodrop/internal/audit"
	"cryptodrop/internal/indicator"
	"cryptodrop/internal/telemetry"
)

// obsAttack encrypts the whole corpus as pid under cfg and returns the final
// report and the engine.
func obsAttack(t *testing.T, cfg Config, pid int) (ProcessReport, *Engine) {
	t.Helper()
	fs, eng := setup(t, cfg)
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
	return rep, eng
}

// TestObservabilityDisabledIsIdentical pins the one-branch-when-disabled
// contract for the new layer: the same attack with a span tracer and audit
// sink attached produces a scoreboard deeply equal to the bare run. Tracing
// and auditing observe; they never perturb.
func TestObservabilityDisabledIsIdentical(t *testing.T) {
	const pid = 11
	bare := DefaultConfig(testRoot)
	off, _ := obsAttack(t, bare, pid)

	cfg := DefaultConfig(testRoot)
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.FlightRecorder = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	cfg.SpanTracer = telemetry.NewSpanTracer(0, 1)
	cfg.AuditSink = &audit.MemorySink{}
	cfg.SessionID = "obs-test"
	on, _ := obsAttack(t, cfg, pid)

	if !reflect.DeepEqual(off, on) {
		t.Fatalf("observability changed the scoreboard:\noff: %+v\non:  %+v", off, on)
	}
}

// TestSpanTracerCapturesPipeline samples every operation and checks the span
// buffer tells the whole pipeline story — dispatch, measurement, awards,
// policy decisions — and exports as valid Chrome trace JSON.
func TestSpanTracerCapturesPipeline(t *testing.T) {
	tr := telemetry.NewSpanTracer(0, 1)
	cfg := DefaultConfig(testRoot)
	cfg.SpanTracer = tr
	rep, _ := obsAttack(t, cfg, 21)
	if !rep.Detected {
		t.Fatal("attack not detected")
	}

	cats := make(map[string]int)
	names := make(map[string]int)
	for _, sp := range tr.Spans() {
		cats[sp.Cat]++
		names[sp.Name]++
	}
	for _, cat := range []string{"dispatch", "measure", "award", "policy"} {
		if cats[cat] == 0 {
			t.Errorf("no %q spans recorded (cats: %v)", cat, cats)
		}
	}
	if names["op write"] == 0 {
		t.Errorf("no \"op write\" dispatch spans (names: %v)", names)
	}
	if names["award file-type-change"] == 0 {
		t.Errorf("no file-type-change award spans (names: %v)", names)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name  string          `json:"name"`
			Phase string          `json:"ph"`
			PID   int             `json:"pid"`
			TID   int             `json:"tid"`
			Ts    float64         `json:"ts"`
			Args  json.RawMessage `json:"args,omitempty"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("export is not valid Chrome trace JSON: %v", err)
	}
	meta, complete := 0, 0
	for _, ev := range chrome.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
		case "X":
			complete++
		}
	}
	if meta == 0 {
		t.Error("no process_name metadata events (lanes unlabelled)")
	}
	if complete != int(tr.Recorded())-int(tr.Dropped()) {
		t.Errorf("exported %d complete events, tracer holds %d", complete, tr.Recorded()-tr.Dropped())
	}
}

// TestSpanSamplingBounds checks a sparse sampling rate records roughly one
// in N dispatch spans — the tracer must not record every op at -trace-sample
// rates meant for production.
func TestSpanSamplingBounds(t *testing.T) {
	tr := telemetry.NewSpanTracer(0, 8)
	cfg := DefaultConfig(testRoot)
	cfg.NonUnionThreshold = 1e9
	cfg.UnionThreshold = 1e9
	cfg.SpanTracer = tr
	_, eng := obsAttack(t, cfg, 22)
	ops := eng.OpIndex()
	dispatch := 0
	for _, sp := range tr.Spans() {
		if sp.Cat == "dispatch" {
			dispatch++
		}
	}
	want := int(ops) / 8
	if dispatch < want/2 || dispatch > want*2+1 {
		t.Fatalf("sampled %d dispatch spans over %d ops at rate 1/8, want about %d", dispatch, ops, want)
	}
}

// TestAuditBundleOnDetection runs a default attack with a memory sink and
// verifies the emitted bundle is a complete, self-consistent explanation of
// the detection.
func TestAuditBundleOnDetection(t *testing.T) {
	sink := &audit.MemorySink{}
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig(testRoot)
	cfg.Telemetry = reg
	cfg.FlightRecorder = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	cfg.AuditSink = sink
	cfg.SessionID = "audit-test"
	rep, eng := obsAttack(t, cfg, 31)
	if !rep.Detected {
		t.Fatal("attack not detected")
	}

	bundles := sink.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("emitted %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	det := eng.Detections()[0]

	if b.SessionID != "audit-test" || b.PID != det.PID || b.Score != det.Score ||
		b.Threshold != det.Threshold || b.Union != det.Union || b.OpIndex != det.OpIndex {
		t.Fatalf("bundle header disagrees with detection: %+v vs %+v", b, det)
	}

	// The invariant the goldens also pin: per-indicator contributions sum to
	// the detection score exactly.
	sum := 0.0
	for _, c := range b.Contributions {
		sum += c.Points
		if c.Indicator == "" {
			t.Errorf("contribution with empty indicator name: %+v", c)
		}
	}
	if math.Abs(sum-b.Score) > 1e-9 {
		t.Fatalf("contributions sum to %g, score is %g", sum, b.Score)
	}

	// The causal trace is the pre-detection prefix: every event at or before
	// the detection's op index, none after.
	if len(b.Trace.Events) == 0 {
		t.Fatal("bundle has no causal firing history")
	}
	for _, ev := range b.Trace.Events {
		if ev.OpIndex > b.OpIndex {
			t.Fatalf("trace event at op %d is after the detection (op %d)", ev.OpIndex, b.OpIndex)
		}
	}
	if b.FilesLost == 0 {
		t.Error("bundle reports no files lost for a full-corpus encryption")
	}
	if len(b.FilesTouched) == 0 {
		t.Error("bundle lists no touched files")
	}
	if !strings.HasPrefix(b.Registry.Fingerprint, "reg1-") {
		t.Errorf("registry fingerprint %q lacks the reg1- scheme prefix", b.Registry.Fingerprint)
	}
	if len(b.Registry.Units) == 0 || b.Registry.Policy == "" {
		t.Errorf("registry identity incomplete: %+v", b.Registry)
	}
	if b.Engine.ProtectedRoot != testRoot || b.Engine.NonUnionThreshold == 0 {
		t.Errorf("engine config incomplete: %+v", b.Engine)
	}
	if b.Measurement.Tier != "full" {
		t.Errorf("measurement tier %q, want full", b.Measurement.Tier)
	}
	if got := reg.Counter("engine_audit_bundles_total").Value(); got != 1 {
		t.Errorf("engine_audit_bundles_total = %d, want 1", got)
	}

	// And the bundle survives a JSONL round trip.
	var buf bytes.Buffer
	jl := audit.NewJSONLSink(&buf)
	jl.Emit(b)
	if jl.Err() != nil {
		t.Fatal(jl.Err())
	}
	back, err := audit.ReadBundles(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !reflect.DeepEqual(back[0], *b) {
		t.Fatalf("bundle did not survive JSONL round trip:\nout: %+v\nback: %+v", *b, back[0])
	}
}

// TestAuditBundleWithoutRecorder checks a sink without a flight recorder
// still gets a correct bundle: contributions from the detection's own
// totals, no causal history.
func TestAuditBundleWithoutRecorder(t *testing.T) {
	sink := &audit.MemorySink{}
	cfg := DefaultConfig(testRoot)
	cfg.AuditSink = sink
	rep, _ := obsAttack(t, cfg, 41)
	if !rep.Detected {
		t.Fatal("attack not detected")
	}
	bundles := sink.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("emitted %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	sum := 0.0
	for _, c := range b.Contributions {
		sum += c.Points
	}
	if math.Abs(sum-b.Score) > 1e-9 {
		t.Fatalf("contributions sum to %g, score is %g", sum, b.Score)
	}
	if len(b.Trace.Events) != 0 {
		t.Fatalf("bundle has %d trace events without a recorder", len(b.Trace.Events))
	}
}

// TestRegistryFingerprintIdentity checks the fingerprint identifies the unit
// set: equal for equal registries, different once composition changes.
func TestRegistryFingerprintIdentity(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	_, e1 := setup(t, cfg)
	_, e2 := setup(t, cfg)
	b1 := e1.buildAuditBundle(firedDetection{})
	b2 := e2.buildAuditBundle(firedDetection{})
	if b1.Registry.Fingerprint != b2.Registry.Fingerprint {
		t.Fatalf("same registry, different fingerprints: %q vs %q",
			b1.Registry.Fingerprint, b2.Registry.Fingerprint)
	}
	for _, reg := range []*indicator.Registry{
		indicator.Default().Without(IndicatorFunneling),
		indicator.Default().With(indicator.ByteWeightedEntropyDelta()),
	} {
		cfg2 := DefaultConfig(testRoot)
		cfg2.Indicators = reg
		_, e3 := setup(t, cfg2)
		if b3 := e3.buildAuditBundle(firedDetection{}); b3.Registry.Fingerprint == b1.Registry.Fingerprint {
			t.Fatalf("different unit sets share a fingerprint: %v", reg.IDs())
		}
	}
}
