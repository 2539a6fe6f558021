package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cryptodrop/internal/audit"
)

// TestSelftestObservabilityOutputs drives the full selftest — three staged
// corpora, one encrypted, fleet endpoint self-checked — with every
// observability surface armed, then validates the artifacts: the Chrome
// trace parses and holds spans, and the detection's audit bundle parses with
// per-indicator contributions summing to the detection score.
func TestSelftestObservabilityOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full selftest cycle")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "spans.json")
	auditPath := filepath.Join(dir, "audit.jsonl")

	err := run([]string{
		"-selftest",
		"-interval", "50ms",
		"-slow-ms", "1",
		"-trace-out", tracePath,
		"-audit-out", auditPath,
	})
	if err != nil {
		t.Fatalf("selftest: %v", err)
	}

	// The Chrome trace is valid JSON with complete events from the pipeline.
	raw, err := os.ReadFile(tracePath)
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
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace-out is not valid Chrome trace JSON: %v", err)
	}
	cats := make(map[string]int)
	for _, ev := range chrome.TraceEvents {
		if ev.Phase == "X" {
			cats[ev.Cat]++
		}
	}
	if len(chrome.TraceEvents) == 0 || cats["dispatch"] == 0 {
		t.Fatalf("trace has %d events, dispatch spans %d — want both > 0 (cats: %v)",
			len(chrome.TraceEvents), cats["dispatch"], cats)
	}

	// The audit JSONL parses back and explains the detection: contributions
	// sum to the score, the causal trace is present, files were lost.
	f, err := os.Open(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bundles, err := audit.ReadBundles(f)
	if err != nil {
		t.Fatalf("audit-out did not parse: %v", err)
	}
	if len(bundles) == 0 {
		t.Fatal("no audit bundle for the selftest detection")
	}
	b := bundles[0]
	sum := 0.0
	for _, c := range b.Contributions {
		sum += c.Points
	}
	if math.Abs(sum-b.Score) > 1e-9 {
		t.Fatalf("contributions sum to %g, detection score is %g", sum, b.Score)
	}
	if b.SessionID == "" {
		t.Fatal("bundle carries no session ID")
	}
	if b.Registry.Fingerprint == "" {
		t.Fatal("bundle carries no registry fingerprint")
	}
	if len(b.Trace.Events) == 0 {
		t.Fatal("bundle carries no causal firing history")
	}
	if b.TimeToDetectionNs <= 0 {
		t.Fatalf("time-to-detection %d, want > 0 (timestamps enabled)", b.TimeToDetectionNs)
	}
}

// TestSelftestInotify runs the three-root selftest on the Linux inotify
// source: only the encrypted root's session may alert (the selftest errors
// otherwise). Off Linux the flag must fail with the platform error.
func TestSelftestInotify(t *testing.T) {
	if testing.Short() {
		t.Skip("full selftest cycle")
	}
	err := run([]string{"-selftest", "-inotify", "-interval", "50ms"})
	if runtime.GOOS != "linux" {
		if err == nil || !strings.Contains(err.Error(), "only available on Linux") {
			t.Fatalf("-inotify off Linux: err = %v, want the Linux-only error", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("inotify selftest: %v", err)
	}
}

// TestSelftestPolling runs the three-root selftest on the default polling
// source with no observability outputs armed, under a time limit of its own:
// the selftest errors unless only the encrypted root's session alerts.
func TestSelftestPolling(t *testing.T) {
	if testing.Short() {
		t.Skip("full selftest cycle")
	}
	done := make(chan error, 1)
	go func() { done <- run([]string{"-selftest", "-interval", "150ms"}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("polling selftest: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("polling selftest did not finish within 60s")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunRequiresDirs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no -dir and no -selftest accepted")
	}
}

// TestInotifyRequiresDir pins that choosing the event source does not stand
// in for a watched root: -inotify without -dir or -selftest is refused with
// the usage error, before any source is opened.
func TestInotifyRequiresDir(t *testing.T) {
	err := run([]string{"-inotify", "-interval", "10ms"})
	if err == nil || !strings.Contains(err.Error(), "pass -dir") {
		t.Fatalf("-inotify without -dir: err = %v, want the missing -dir error", err)
	}
}

// TestRecoverSelftest runs the crash-and-recover selftest end to end: it
// must complete without error (the selftest itself errors on any divergence
// between the recovered and uninterrupted runs), both with its built-in
// defaults and with an explicit checkpoint directory + every-op cadence.
func TestRecoverSelftest(t *testing.T) {
	if err := run([]string{"-selftest-recover"}); err != nil {
		t.Fatalf("recover selftest: %v", err)
	}
	dir := t.TempDir()
	if err := run([]string{"-selftest-recover", "-checkpoint-dir", dir, "-checkpoint-every", "1"}); err != nil {
		t.Fatalf("recover selftest (every-op): %v", err)
	}
	if ckpts, err := filepath.Glob(filepath.Join(dir, "*.ckpt")); err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint file left in -checkpoint-dir (err=%v)", err)
	}
}

// TestRestoreRequiresCheckpointDir pins the flag contract.
func TestRestoreRequiresCheckpointDir(t *testing.T) {
	if err := run([]string{"-restore", "-dir", t.TempDir()}); err == nil {
		t.Fatal("-restore without -checkpoint-dir accepted")
	}
}
