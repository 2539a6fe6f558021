package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cryptodrop/internal/corpus"
	"cryptodrop/internal/experiments"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/snapshot"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/trace"
)

// captureAttackTrace records one detected Class A attack over the Seed-7
// test corpus into dir and returns the trace path. Every cdreplay test
// replays against `-seed 7 -files 200 -dirs 20 -scale 0.25`.
func captureAttackTrace(t *testing.T, dir string) string {
	t.Helper()
	tracePath := filepath.Join(dir, "attack.jsonl")
	spec := corpus.Spec{Seed: 7, Files: 200, Dirs: 20, SizeScale: 0.25}
	var sample ransomware.Sample
	found := false
	for _, s := range ransomware.Roster(spec.Seed) {
		if s.Profile.Class == ransomware.ClassA {
			sample, found = s, true
			break
		}
	}
	if !found {
		t.Fatal("no Class A sample in roster")
	}
	runner, err := experiments.NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(f)
	runner.SetTraceRecorder(rec)
	out, err := runner.RunSample(sample)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatalf("sample %s not detected during capture", sample.ID)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return tracePath
}

// replayArgs are the corpus flags matching captureAttackTrace's machine.
var replayArgs = []string{"-seed", "7", "-files", "200", "-dirs", "20", "-scale", "0.25"}

// TestReplayTraceOutRoundTrip captures an attack trace, replays it through
// the command with -trace-out, and checks the dumped flight-recorder JSON
// explains the replayed detection: a detection trace exists, parses back,
// and its ordered events sum to a score past the paper's union threshold.
func TestReplayTraceOutRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full capture+replay cycle")
	}
	dir := t.TempDir()
	tracePath := captureAttackTrace(t, dir)
	outPath := filepath.Join(dir, "flight.json")

	// Replay through the command with flight-recorder dumping and full
	// pipeline span tracing on.
	spansPath := filepath.Join(dir, "spans.json")
	args := append([]string{
		"-trace", tracePath,
		"-trace-out", outPath,
		"-spans-out", spansPath,
	}, replayArgs...)
	if err := run(args); err != nil {
		t.Fatalf("cdreplay run: %v", err)
	}

	// The span dump is a valid Chrome trace with spans from every pipeline
	// stage the replay exercises: dispatch, awards and policy decisions.
	rawSpans, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			Cat   string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rawSpans, &chrome); err != nil {
		t.Fatalf("spans-out is not valid Chrome trace JSON: %v", err)
	}
	spanCats := make(map[string]int)
	for _, ev := range chrome.TraceEvents {
		if ev.Phase == "X" {
			spanCats[ev.Cat]++
		}
	}
	for _, cat := range []string{"dispatch", "award", "policy"} {
		if spanCats[cat] == 0 {
			t.Fatalf("span dump has no %q spans (cats: %v)", cat, spanCats)
		}
	}

	// Round-trip: the dumped JSON parses back into traces.
	g, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	traces, err := telemetry.ReadTraces(g)
	if err != nil {
		t.Fatalf("parse dumped traces: %v", err)
	}
	if len(traces) == 0 {
		t.Fatal("no traces dumped for a detected replay")
	}
	tr := traces[0]
	if len(tr.Events) == 0 {
		t.Fatal("detection trace has no events")
	}
	sum := 0.0
	var prevSeq uint64
	for i, ev := range tr.Events {
		sum += ev.Points
		if i > 0 && ev.Seq <= prevSeq {
			t.Fatalf("events out of order: seq %d then %d", prevSeq, ev.Seq)
		}
		prevSeq = ev.Seq
	}
	if math.Abs(sum-tr.TotalPoints) > 1e-9 {
		t.Fatalf("event points sum to %g, TotalPoints says %g", sum, tr.TotalPoints)
	}
	// The replayed detection crossed a detection threshold; the union
	// threshold (140) is the lowest possible.
	if tr.TotalPoints < 140 {
		t.Fatalf("detection trace sums to %g, below any detection threshold", tr.TotalPoints)
	}
	if last := tr.Events[len(tr.Events)-1]; math.Abs(last.ScoreAfter-sum) > 1e-9 {
		t.Fatalf("final ScoreAfter %g disagrees with cumulative points %g", last.ScoreAfter, sum)
	}
}

func TestReplayRequiresTrace(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -trace accepted")
	}
}

// TestReplayCheckpointResumeRoundTrip pins the cdreplay resume contract:
// a checkpointing replay emits resumable checkpoints, and resuming from ANY
// of them reproduces the straight-through replay's flight-trace dump byte
// for byte. A resume under drifted tuning flags is refused.
func TestReplayCheckpointResumeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full capture+replay cycle")
	}
	dir := t.TempDir()
	tracePath := captureAttackTrace(t, dir)

	// Straight-through reference dump.
	refOut := filepath.Join(dir, "ref.json")
	if err := run(append([]string{"-trace", tracePath, "-trace-out", refOut}, replayArgs...)); err != nil {
		t.Fatalf("reference replay: %v", err)
	}
	want, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpointing replay: same verdicts, plus emitted checkpoints.
	ckDir := filepath.Join(dir, "ck")
	ckOut := filepath.Join(dir, "ck.json")
	if err := run(append([]string{"-trace", tracePath, "-trace-out", ckOut,
		"-checkpoint-dir", ckDir, "-checkpoint-every", "40"}, replayArgs...)); err != nil {
		t.Fatalf("checkpointing replay: %v", err)
	}
	if got, err := os.ReadFile(ckOut); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("chunked replay dump diverged from straight-through (err=%v)", err)
	}
	ckpts, err := filepath.Glob(filepath.Join(ckDir, "ckpt-*.cdck"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) < 2 {
		t.Fatalf("only %d checkpoints emitted; the resume loop needs at least 2", len(ckpts))
	}
	sort.Strings(ckpts)

	// Resume from every emitted checkpoint (the final one included: a pure
	// restore with an empty tail) and demand the identical dump.
	for i, ck := range ckpts {
		out := filepath.Join(dir, fmt.Sprintf("resume-%d.json", i))
		if err := run(append([]string{"-trace", tracePath, "-trace-out", out,
			"-resume", ck}, replayArgs...)); err != nil {
			t.Fatalf("resume from %s: %v", ck, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("resume from %s diverged from the straight-through replay", ck)
		}
	}

	// Drifted tuning flags → typed refusal, not silent divergence.
	err = run(append([]string{"-trace", tracePath, "-threshold", "100",
		"-resume", ckpts[0]}, replayArgs...))
	if !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("drifted resume: got %v, want ErrMismatch", err)
	}

	// A version-1 envelope (the format version alone, without the engine
	// snapshot's) is refused as a format version.
	data, err := os.ReadFile(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	h, payload, err := snapshot.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	h.Version = 1
	old := filepath.Join(dir, "old.cdck")
	if err := os.WriteFile(old, snapshot.Seal(h, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(append([]string{"-trace", tracePath, "-resume", old}, replayArgs...))
	if !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("version-1 checkpoint: got %v, want ErrVersion", err)
	}

	// A version-3 engine snapshot (it still carried the sampled tier's
	// escalation latch and prefix-entropy fields) is refused as a format
	// version, not as tuning drift, whether only the embedded snapshot is
	// at version 3 or the whole checkpoint is as the previous build wrote
	// it, under that build's "cfg2-" config hash. Nothing is replayed and
	// the file is left as it was.
	d := snapshot.NewDecoder(payload)
	idx := d.Varint()
	blob := d.Bytes()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	eh, epayload, err := snapshot.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	embedded := eh
	embedded.Version = 3
	prev := snapshot.Header{Version: 3, Registry: eh.Registry, Config: "cfg2-0123456789abcdef"}
	for _, c := range []struct {
		name         string
		outer, inner snapshot.Header
	}{
		{"embedded-v3", eh.Wrap(replayCheckpointVersion), embedded},
		{"previous-build", prev.Wrap(replayCheckpointVersion), prev},
	} {
		enc := snapshot.NewEncoder()
		enc.Varint(idx)
		enc.Bytes(snapshot.Seal(c.inner, epayload))
		sealed := snapshot.Seal(c.outer, enc.Data())
		ck := filepath.Join(dir, c.name+".cdck")
		if err := os.WriteFile(ck, sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, c.name+".json")
		err := run(append([]string{"-trace", tracePath, "-trace-out", out, "-resume", ck}, replayArgs...))
		if !errors.Is(err, snapshot.ErrVersion) || errors.Is(err, snapshot.ErrMismatch) {
			t.Fatalf("%s checkpoint: got %v, want ErrVersion and not ErrMismatch", c.name, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("%s checkpoint: refused resume still wrote %s (stat err %v)", c.name, out, err)
		}
		if after, err := os.ReadFile(ck); err != nil || !bytes.Equal(after, sealed) {
			t.Fatalf("%s checkpoint: refused resume changed the file (err %v)", c.name, err)
		}
	}
}
