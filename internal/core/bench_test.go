package core

// Microbenchmarks for the detection hot path: the per-file measurement
// kernel and the engine's PostOp under multi-process contention. In
// production each engine has one writer; here several goroutines share one
// engine, so run with -cpu 1,4,8 to see what its one mutex costs when
// writers do contend. Measurement runs outside the lock, so close-time
// evaluations still overlap.

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"cryptodrop/internal/corpus"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

// benchSizes are the payload sizes exercised by the measurement benches.
var benchSizes = []int{4 << 10, 64 << 10, 1 << 20}

func BenchmarkMeasureFile(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%dKiB", size>>10), func(b *testing.B) {
			content := corpus.Generate("docx", 3, size)
			b.SetBytes(int64(len(content)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st := measureFile(content); st == nil {
					b.Fatal("nil state")
				}
			}
		})
	}
}

// BenchmarkEngineParallelPostOp drives PostOp from GOMAXPROCS goroutines,
// each acting as a distinct process with its own working file: the paper's
// heavy multi-process workload (§V-H). The op mix is the detection hot
// path — reads and writes folding payload entropy into the scoreboard,
// with a full close-time transformation evaluation every tenth op.
func BenchmarkEngineParallelPostOp(b *testing.B) {
	benchEngineParallelPostOp(b, false)
}

// BenchmarkEngineParallelPostOpTelemetry is the same workload with a live
// metrics registry and flight recorder attached, measuring the enabled-
// telemetry overhead on the hot path (budget: <3% vs the bench above).
func BenchmarkEngineParallelPostOpTelemetry(b *testing.B) {
	benchEngineParallelPostOp(b, true)
}

// BenchmarkEngineParallelPostOpSpans layers causal span tracing on top of
// the telemetry workload at two sampling rates. sample=0 is the control: a
// nil tracer, i.e. tracing compiled in but disabled — the configuration
// whose overhead vs BenchmarkEngineParallelPostOpTelemetry must stay ≤3%
// (BENCH_PR7.json). sample=64 is the recommended production rate; sample=1
// traces every op, the worst case.
func BenchmarkEngineParallelPostOpSpans(b *testing.B) {
	for _, rate := range []int{0, 64, 1} {
		b.Run(fmt.Sprintf("sample=%d", rate), func(b *testing.B) {
			benchEngineParallelPostOpSpans(b, rate)
		})
	}
}

func benchEngineParallelPostOpSpans(b *testing.B, sampleEvery int) {
	var tr *telemetry.SpanTracer
	if sampleEvery > 0 {
		tr = telemetry.NewSpanTracer(telemetry.DefaultSpanCapacity, sampleEvery)
	}
	benchEngineParallelPostOpCfg(b, true, tr)
}

func benchEngineParallelPostOp(b *testing.B, withTelemetry bool) {
	benchEngineParallelPostOpCfg(b, withTelemetry, nil)
}

func benchEngineParallelPostOpCfg(b *testing.B, withTelemetry bool, tr *telemetry.SpanTracer) {
	const root = "/Users/victim/Documents"
	const nfiles = 64
	fs := vfs.New()
	if err := fs.MkdirAll(root); err != nil {
		b.Fatal(err)
	}
	doc := corpus.Generate("docx", 7, 16<<10)
	cipher := make([]byte, 16<<10)
	rand.New(rand.NewSource(42)).Read(cipher)

	paths := make([]string, nfiles)
	ids := make([]uint64, nfiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/bench%03d.docx", root, i)
		if err := fs.WriteFile(0, paths[i], doc); err != nil {
			b.Fatal(err)
		}
		h, err := fs.Open(0, paths[i], vfs.ReadOnly)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = h.FileID()
		h.Close()
	}

	cfg := DefaultConfig(root)
	if withTelemetry {
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.FlightRecorder = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	}
	cfg.SpanTracer = tr
	e := New(cfg, testSource{fs})
	var pidCtr atomic.Int64
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pid := int(pidCtr.Add(1))
		slot := (pid - 1) % nfiles
		p, id := paths[slot], ids[slot]
		i := 0
		for pb.Next() {
			switch {
			case i%10 == 9:
				e.PreEvent(Event{Kind: EvOpen, PID: pid, Path: p, FileID: id,
					Flags: EvWriteIntent, Size: int64(len(doc))})
				e.Handle(Event{Kind: EvClose, PID: pid, Path: p, FileID: id, Wrote: true})
			case i%2 == 0:
				e.Handle(Event{Kind: EvRead, PID: pid, Path: p, FileID: id, Data: doc})
			default:
				e.Handle(Event{Kind: EvWrite, PID: pid, Path: p, FileID: id,
					Data: cipher, Size: int64(len(cipher))})
			}
			i++
		}
	})
}
