package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"cryptodrop/internal/indicator"
	"cryptodrop/internal/policy"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

// attackRun drives a deterministic mixed attack (in-place encryption of
// every corpus file, then a couple of deletions) against a fresh setup and
// returns the engine plus the acting PID.
func attackRun(t *testing.T, cfg Config) (*Engine, int) {
	t.Helper()
	fs, eng := setup(t, cfg)
	pid := 700
	infos, err := fs.List(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	for i, info := range infos {
		if i >= len(infos)-2 {
			if err := fs.Delete(pid, info.Path); err != nil {
				t.Fatal(err)
			}
			continue
		}
		encryptInPlace(t, fs, pid, info.Path)
	}
	return eng, pid
}

// TestRegistryOrderInvariance pins that scoring is a function of the
// registry's contents, never its registration order: a permuted registry
// yields bit-identical scoreboards, detections and flight-recorder traces.
func TestRegistryOrderInvariance(t *testing.T) {
	base := DefaultConfig(testRoot)
	base.FlightRecorder = telemetry.NewFlightRecorder(0)
	engA, pid := attackRun(t, base)

	perm := DefaultConfig(testRoot)
	def := indicator.Default().Units()
	perm.Indicators = indicator.NewRegistry(def[4], def[1], def[3], def[0], def[2])
	perm.FlightRecorder = telemetry.NewFlightRecorder(0)
	engB, _ := attackRun(t, perm)

	if !reflect.DeepEqual(engA.Reports(), engB.Reports()) {
		t.Fatal("permuted registry produced different scoreboard reports")
	}
	if !reflect.DeepEqual(engA.Detections(), engB.Detections()) {
		t.Fatal("permuted registry produced different detections")
	}
	trA := base.FlightRecorder.Trace(pid)
	trB := perm.FlightRecorder.Trace(pid)
	if !reflect.DeepEqual(trA, trB) {
		t.Fatal("permuted registry produced a different flight trace")
	}
	if len(trA.Events) == 0 {
		t.Fatal("attack produced no flight-recorder events")
	}
}

// countingSource wraps a ContentSource and counts Content calls.
type countingSource struct {
	inner ContentSource
	calls atomic.Int64
}

func (s *countingSource) Content(id uint64) ([]byte, error) {
	s.calls.Add(1)
	return s.inner.Content(id)
}

// TestDisabledIndicatorNeverMeasures pins the feature-gating contract: with
// every content-consuming unit removed from the registry, the engine never
// calls the ContentSource — disabling indicators really does stop the
// measurement work, not just the awards.
func TestDisabledIndicatorNeverMeasures(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	cfg.Indicators = indicator.Default().Without(
		indicator.TypeChange, indicator.Similarity, indicator.EntropyDelta, indicator.Funneling)

	fs := vfs.New()
	if err := fs.MkdirAll(testRoot); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(0, testRoot+"/a.txt", []byte("original document content, long enough to matter")); err != nil {
		t.Fatal(err)
	}
	src := &countingSource{inner: testSource{fs}}
	eng := New(cfg, src)
	fs.SetInterceptor(interceptorFunc{eng})

	if got := eng.Features(); got != indicator.FeatCreator {
		t.Fatalf("deletion-only registry Features = %b, want FeatCreator", got)
	}

	pid := 41
	encryptInPlace(t, fs, pid, testRoot+"/a.txt")
	if err := fs.Delete(pid, testRoot+"/a.txt"); err != nil {
		t.Fatal(err)
	}

	if n := src.calls.Load(); n != 0 {
		t.Fatalf("ContentSource called %d times with no content-consuming unit registered", n)
	}
	rep, ok := eng.Report(pid)
	if !ok {
		t.Fatal("no report for acting pid")
	}
	if rep.IndicatorPoints[IndicatorDeletion] <= 0 {
		t.Fatal("deletion indicator did not fire")
	}
	for _, ind := range []Indicator{IndicatorTypeChange, IndicatorSimilarity, IndicatorEntropyDelta, IndicatorFunneling} {
		if rep.IndicatorPoints[ind] != 0 {
			t.Fatalf("removed indicator %v earned points", ind)
		}
	}
}

// TestTelemetrySeriesFollowRegistry pins that per-indicator telemetry
// series are derived from the engine's registry declarations: a composed-in
// unit gets its own series, and every series name is the declared name.
func TestTelemetrySeriesFollowRegistry(t *testing.T) {
	decoy := testRoot + "/!decoy.txt"
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig(testRoot)
	cfg.Telemetry = reg
	cfg.Indicators = indicator.Default().With(indicator.NewHoneyfile(decoy))

	fs, eng := setup(t, cfg)
	if err := fs.WriteFile(0, decoy, []byte("decoy ledger")); err != nil {
		t.Fatal(err)
	}
	pid := 90
	encryptInPlace(t, fs, pid, decoy)

	if v := reg.Counter(`engine_indicator_fires_total{indicator="honeyfile"}`).Value(); v == 0 {
		t.Fatal("honeyfile series did not count the decoy touch")
	}
	for _, u := range eng.Indicators().Units() {
		d := u.Decl()
		series := `engine_indicator_fires_total{indicator="` + d.Name + `"}`
		// Registered at engine construction; a drifting name would create a
		// fresh zero counter here instead of reusing the engine's handle.
		_ = reg.Counter(series)
	}
}

// TestHoneyfileDetection pins the decoy unit end to end at the engine
// level: a single write to a guarded path detects instantly at the default
// threshold, with the award attributed to the honeyfile indicator.
func TestHoneyfileDetection(t *testing.T) {
	decoy := testRoot + "/!passwords.txt"
	cfg := DefaultConfig(testRoot)
	cfg.Indicators = indicator.Default().With(indicator.NewHoneyfile(decoy))
	var dets []Detection
	cfg.OnDetection = func(d Detection) { dets = append(dets, d) }

	fs, eng := setup(t, cfg)
	if err := fs.WriteFile(0, decoy, []byte("decoy content")); err != nil {
		t.Fatal(err)
	}
	pid := 91
	encryptInPlace(t, fs, pid, decoy)

	if len(dets) == 0 {
		t.Fatal("decoy write produced no detection")
	}
	if dets[0].Indicators[IndicatorHoneyfile] <= 0 {
		t.Fatalf("detection not attributed to honeyfile: %+v", dets[0].Indicators)
	}
	rep, _ := eng.Report(pid)
	if !rep.Detected {
		t.Fatal("report does not show detection")
	}
}

// TestHoneyfileRenameAndDelete pins the touch hooks a move-out (Class B)
// or dispose (Class C) attack would hit: renaming or deleting a decoy
// fires without any write.
func TestHoneyfileRenameAndDelete(t *testing.T) {
	decoyA := testRoot + "/!decoy_a.txt"
	decoyB := testRoot + "/!decoy_b.txt"
	cfg := DefaultConfig(testRoot)
	cfg.Indicators = indicator.NewRegistry(indicator.NewHoneyfile(decoyA, decoyB))

	fs, eng := setup(t, cfg)
	for _, p := range []string{decoyA, decoyB} {
		if err := fs.WriteFile(0, p, []byte("decoy")); err != nil {
			t.Fatal(err)
		}
	}
	pid := 92
	if err := fs.Rename(pid, decoyA, "/Windows/Temp/stash.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(pid, decoyB); err != nil {
		t.Fatal(err)
	}

	rep, ok := eng.Report(pid)
	if !ok {
		t.Fatal("no report for acting pid")
	}
	// One rename touch + one delete touch = two awards.
	if got := rep.IndicatorPoints[IndicatorHoneyfile]; got != 2*DefaultPoints().Honeyfile {
		t.Fatalf("honeyfile points = %v, want %v", got, 2*DefaultPoints().Honeyfile)
	}
}

// TestMajorityPolicyAccelerates pins the pluggable-policy seam: under the
// majority-voting policy a Class A attack reaches the quorum of distinct
// indicators and detects at the accelerated threshold.
func TestMajorityPolicyAccelerates(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	cfg.Policy = &policy.Majority{}
	var dets []Detection
	cfg.OnDetection = func(d Detection) { dets = append(dets, d) }
	eng, pid := attackRun(t, cfg)

	if len(dets) == 0 {
		t.Fatal("majority policy never detected the attack")
	}
	rep, _ := eng.Report(pid)
	if !rep.Union {
		t.Fatal("majority quorum did not latch acceleration")
	}
	if th := dets[0].Threshold; th != cfg.UnionThreshold {
		t.Fatalf("accelerated detection threshold = %v, want %v", th, cfg.UnionThreshold)
	}
}
