// Command cdreplay re-scores a recorded operation trace offline:
//
//	cryptodrop -family TeslaCrypt -trace /tmp/t.jsonl   # capture
//	cdreplay -trace /tmp/t.jsonl                        # re-score
//	cdreplay -trace /tmp/t.jsonl -threshold 100         # what-if tuning
//
// The replay feeds the recorded event stream straight into a fresh detection
// engine — no filesystem is reconstructed. The engine's content lookups are
// served from a corpus content store rebuilt from the recorded machine's
// spec (same seed ⇒ same file IDs), so detections are reproducible and
// engine parameters can be tuned without re-running malware.
//
// Long replays can checkpoint and resume:
//
//	cdreplay -trace t.jsonl -checkpoint-dir /tmp/ck -checkpoint-every 5000
//	cdreplay -trace t.jsonl -resume /tmp/ck/ckpt-010000.cdck
//
// A checkpoint seals the engine's complete snapshot together with the record
// index it was taken at, under the engine's registry/config identity — a
// resume under different tuning flags is refused rather than silently
// diverging. Resuming fast-forwards the content store through the covered
// records and replays only the tail; the final scoreboard, detections and
// dumped flight traces are bit-identical to a straight-through replay.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cryptodrop/internal/core"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/snapshot"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/trace"
	"cryptodrop/internal/vfs"
)

// replayCheckpointVersion is the cdreplay checkpoint format version.
// Sealed checkpoints carry it folded with the embedded engine snapshot's
// version (snapshot.Header.Wrap); version 1 envelopes carried it alone.
const replayCheckpointVersion = 2

// writeReplayCheckpoint seals {record index, engine snapshot} under the
// engine's identity into dir.
func writeReplayCheckpoint(dir string, idx int, eng *core.Engine) (string, error) {
	blob, err := eng.Snapshot()
	if err != nil {
		return "", err
	}
	enc := snapshot.NewEncoder()
	enc.Varint(int64(idx))
	enc.Bytes(blob)
	sealed := snapshot.Seal(eng.SnapshotIdentity().Wrap(replayCheckpointVersion), enc.Data())
	path := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.cdck", idx))
	return path, os.WriteFile(path, sealed, 0o644)
}

// readReplayCheckpoint verifies a checkpoint against eng's identity,
// restores the engine from it, and returns the record index to resume at.
func readReplayCheckpoint(path string, eng *core.Engine) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	h, payload, err := snapshot.Open(data)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if err := h.Check(eng.SnapshotIdentity().Wrap(replayCheckpointVersion)); err != nil {
		if errors.Is(err, snapshot.ErrMismatch) {
			return 0, fmt.Errorf("%s: %w (was it taken under different tuning flags?)", path, err)
		}
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	d := snapshot.NewDecoder(payload)
	idx := int(d.Varint())
	blob := d.Bytes()
	if d.Err() != nil {
		return 0, fmt.Errorf("%s: %w", path, d.Err())
	}
	if idx < 0 {
		return 0, fmt.Errorf("%s: %w: negative record index", path, snapshot.ErrCorrupt)
	}
	if err := eng.Restore(blob); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return idx, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cdreplay:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cdreplay", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "trace file to replay (required)")
		seed      = fs.Int64("seed", 2016, "corpus seed of the recorded machine")
		files     = fs.Int("files", 1500, "corpus file count of the recorded machine")
		dirs      = fs.Int("dirs", 150, "corpus directory count")
		scale     = fs.Float64("scale", 0.5, "corpus size scale")
		threshold = fs.Float64("threshold", 0, "override the non-union threshold (0 = default)")
		noCorpus  = fs.Bool("no-corpus", false, "replay against an empty content store (trace-created files only)")
		traceOut  = fs.String("trace-out", "", "dump flight-recorder detection traces to this JSON file")
		spansOut  = fs.String("spans-out", "", "trace every operation's pipeline spans and write a Chrome trace-event JSON file")
		ckptDir   = fs.String("checkpoint-dir", "", "directory for -checkpoint-every checkpoint files")
		ckptEvery = fs.Int("checkpoint-every", 0, "write a resumable engine checkpoint every N records (0 = off; requires -checkpoint-dir)")
		resume    = fs.String("resume", "", "resume the replay from this checkpoint file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := trace.Read(f)
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return fmt.Errorf("trace %s is empty", *tracePath)
	}

	// Seed the replayer's content store from the recorded machine's corpus.
	// The corpus is built deterministically from the spec, so paths and file
	// IDs align with the recorded ones.
	replayer := trace.NewEventReplayer()
	root := corpus.DefaultRoot
	if !*noCorpus {
		fsys := vfs.New()
		m, err := corpus.Build(fsys, corpus.Spec{Seed: *seed, Files: *files, Dirs: *dirs, SizeScale: *scale})
		if err != nil {
			return err
		}
		root = m.Root
		if err := replayer.SeedFromFS(fsys); err != nil {
			return err
		}
	}

	cfg := core.DefaultConfig(root)
	if *threshold > 0 {
		cfg.NonUnionThreshold = *threshold
	}
	var flight *telemetry.FlightRecorder
	if *traceOut != "" {
		flight = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
		cfg.FlightRecorder = flight
	}
	var spans *telemetry.SpanTracer
	if *spansOut != "" {
		// Offline replay wants the complete picture: sample every operation.
		spans = telemetry.NewSpanTracer(telemetry.DefaultSpanCapacity, 1)
		cfg.SpanTracer = spans
		cfg.SessionID = "replay"
	}
	if *ckptEvery > 0 && *ckptDir == "" {
		return fmt.Errorf("-checkpoint-every requires -checkpoint-dir")
	}
	eng := core.New(cfg, replayer)

	start := 0
	if *resume != "" {
		idx, err := readReplayCheckpoint(*resume, eng)
		if err != nil {
			return err
		}
		if idx > len(records) {
			return fmt.Errorf("%s covers %d records but the trace has only %d", *resume, idx, len(records))
		}
		// The engine resumes from its snapshot; the content store must arrive
		// at the same point, so fast-forward it through the covered records.
		ff := replayer.Advance(records[:idx])
		start = idx
		fmt.Printf("resumed at record %d (%d applied, %d skipped fast-forwarding the content store)\n",
			idx, ff.Applied, ff.Skipped)
	}

	var res trace.ReplayResult
	if *ckptEvery > 0 {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		for i := start; i < len(records); i += *ckptEvery {
			end := min(i+*ckptEvery, len(records))
			r, err := replayer.Replay(eng, records[i:end])
			if err != nil {
				return err
			}
			res.Applied += r.Applied
			res.Skipped += r.Skipped
			path, err := writeReplayCheckpoint(*ckptDir, end, eng)
			if err != nil {
				return err
			}
			fmt.Printf("checkpoint at record %d: %s\n", end, path)
		}
	} else {
		res, err = replayer.Replay(eng, records[start:])
		if err != nil {
			return err
		}
	}
	fmt.Printf("replayed %d records: %d applied, %d skipped\n", len(records)-start, res.Applied, res.Skipped)
	for _, rep := range eng.Reports() {
		verdict := "clean"
		if rep.Detected {
			verdict = "DETECTED"
		}
		fmt.Printf("pid %d: score %.1f union=%v %s\n", rep.PID, rep.Score, rep.Union, verdict)
		inds := make([]core.Indicator, 0, len(rep.IndicatorPoints))
		for ind := range rep.IndicatorPoints {
			inds = append(inds, ind)
		}
		sort.Slice(inds, func(i, j int) bool { return inds[i] < inds[j] })
		for _, ind := range inds {
			fmt.Printf("   %-18v %.2f\n", ind, rep.IndicatorPoints[ind])
		}
	}
	if flight != nil {
		if err := dumpTraces(*traceOut, flight, eng.Detections()); err != nil {
			return err
		}
	}
	if spans != nil {
		if err := dumpSpans(*spansOut, spans); err != nil {
			return err
		}
	}
	return nil
}

// dumpSpans writes the recorded pipeline spans as a Chrome trace-event file
// (load in chrome://tracing or https://ui.perfetto.dev).
func dumpSpans(path string, spans *telemetry.SpanTracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = spans.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("span tracer: %d span(s) written to %s (%d dropped)\n", spans.Recorded(), path, spans.Dropped())
	return nil
}

// dumpTraces writes one flight-recorder trace per detected scoring group;
// with no detections, every group's trace is dumped (the score trajectory is
// still useful for what-if tuning below the threshold).
func dumpTraces(path string, flight *telemetry.FlightRecorder, detections []core.Detection) error {
	var traces []telemetry.Trace
	if len(detections) > 0 {
		for _, d := range detections {
			traces = append(traces, flight.Trace(d.PID))
		}
	} else {
		traces = flight.Traces()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = telemetry.WriteTraces(f, traces)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write traces: %w", err)
	}
	fmt.Printf("flight recorder: %d trace(s) written to %s\n", len(traces), path)
	return nil
}
