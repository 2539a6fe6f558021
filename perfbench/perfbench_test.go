package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"cryptodrop/internal/core"
	"cryptodrop/internal/telemetry"
)

// tinyScale keeps the facade corpus (7-zip is detected only on a corpus of
// about this size) but sets up once, pools one specimen per pairing, and
// times the ladder and kernels briefly.
func tinyScale() scale {
	sc := fullScale
	sc.setupReps = 1
	sc.specimens = 1
	sc.streamRepeats = 1
	sc.spanCap = 1 << 18
	sc.kernelBytes = 1 << 20
	sc.ladderMin = 0
	return sc
}

func tinyConfig(t *testing.T, workload string, seed int64, traced bool) runConfig {
	return runConfig{
		workload: workload, seed: seed, seconds: 50 * time.Millisecond,
		traced: traced, outDir: t.TempDir(), sc: tinyScale(),
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func betterOf(d metricDef) string {
	if d.lower {
		return "lower"
	}
	return "higher"
}

// TestBenchmarkFileMatchesCatalogue pins BENCHMARK.json to the metric
// tables the program prints.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q, want %q", i, w.Name, workloads[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != betterOf(d) || m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v, want %s %s %s %g", i, m, d.name, d.unit, betterOf(d), d.bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != betterOf(d) {
			t.Errorf("per_layer %d: %+v, want %s %s %s", i, m, d.name, d.unit, betterOf(d))
		}
	}
}

// lastLine parses the JSON result a run prints last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// checkPrinted asserts the result names exactly the declared metrics, with
// their units, and passes the verdict gate.
func checkPrinted(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("verdict gate: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, declared %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not printed", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestWorkloadsPrintDeclaredMetrics runs every workload at tiny scale,
// traced, and checks both printed forms: the end-to-end metrics (every one
// non-zero) and the per-layer metrics.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w, 1, true)
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			untraced := cfg
			untraced.traced = false
			if err := printResult(&out, untraced, rep); err != nil {
				t.Fatal(err)
			}
			res := lastLine(t, out.String())
			checkPrinted(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end %s reads %g", d.name, res.Metrics[d.name].Value)
				}
			}
			out.Reset()
			if err := printResult(&out, cfg, rep); err != nil {
				t.Fatal(err)
			}
			res = lastLine(t, out.String())
			checkPrinted(t, res, perLayer)
			if v := res.Metrics["trace.spans_dropped"].Value; v != 0 {
				t.Errorf("the traced pass dropped %g spans", v)
			}
		})
	}
}

// TestHeldOutSeedPassesGate runs every workload untraced on a seed the
// benchmark was not tuned on.
func TestHeldOutSeedPassesGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			rep, err := runWorkload(tinyConfig(t, w, 7, false))
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("seed 7: %d of %d ops failed: %v", rep.failed, rep.attempted, rep.failures)
			}
		})
	}
}

// TestGateCountsWrongFacadeVerdict feeds the facade a unit whose expected
// verdict is wrong and checks every op of that unit counts as failed.
func TestGateCountsWrongFacadeVerdict(t *testing.T) {
	cfg := tinyConfig(t, "attack", 1, false)
	env, err := newFacadeEnv(cfg, "attack")
	if err != nil {
		t.Fatal(err)
	}
	env.units = env.units[:1]
	env.units[0].expect = false // the sample is detected; the reference says it is not
	env.boundary = 1
	p, err := env.pass(cfg, passLimits{maxUnits: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted == 0 || p.failed != p.attempted || len(p.failures) != 1 {
		t.Fatalf("attempted %d failed %d failures %v; want every op of the one unit failed", p.attempted, p.failed, p.failures)
	}
}

// TestGateCountsWrongIngestReference corrupts one stream's reference
// verdict and checks the ops of every session replaying it count as
// failed, and no others.
func TestGateCountsWrongIngestReference(t *testing.T) {
	cfg := tinyConfig(t, "ingest", 1, false)
	env, err := newIngestEnv(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := env.pool[0]
	if len(bad.dets) == 0 {
		t.Fatalf("stream %s has no reference detection", bad.name)
	}
	bad.dets = append([]core.Detection(nil), bad.dets...)
	bad.dets[0].Score++
	var want int64
	for _, s := range env.assign {
		if s == bad {
			want += int64(len(s.ops))
		}
	}
	res, err := env.epoch(context.Background(), cfg, false, telemetry.NewRegistry(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != want {
		t.Fatalf("failed %d ops, want %d (the sessions replaying %s): %v", res.failed, want, bad.name, res.failures)
	}
}
