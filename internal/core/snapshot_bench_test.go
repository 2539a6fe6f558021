package core

// Microbenchmarks for the engine durability primitives: sealing the engine's
// complete scoring state (scoreboard, file baselines, open-handle
// groups, detection latch, flight recorder) into a snapshot blob, and
// rehydrating a fresh engine from one. The engine under measurement is
// mid-attack: 64 tracked files, several hundred hot-path ops applied, a
// detection latched — representative of what a per-interval host checkpoint
// actually serialises.

import (
	"fmt"
	"math/rand"
	"testing"

	"cryptodrop/internal/corpus"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

// benchSnapshotEngine builds an engine with representative mid-attack state
// and returns it with its construction inputs (for building restore twins).
func benchSnapshotEngine(b *testing.B) (*Engine, Config, ContentSource) {
	b.Helper()
	const root = "/Users/victim/Documents"
	const nfiles = 64
	fs := vfs.New()
	if err := fs.MkdirAll(root); err != nil {
		b.Fatal(err)
	}
	doc := corpus.Generate("docx", 7, 16<<10)
	cipher := make([]byte, 16<<10)
	rand.New(rand.NewSource(42)).Read(cipher)

	cfg := DefaultConfig(root)
	cfg.FlightRecorder = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	src := testSource{fs}
	e := New(cfg, src)
	for i := 0; i < 10*nfiles; i++ {
		id := uint64(i%nfiles + 1)
		p := fmt.Sprintf("%s/bench%03d.docx", root, id)
		if i%nfiles == 0 {
			if err := fs.WriteFile(0, p, doc); err != nil {
				b.Fatal(err)
			}
		}
		pid := i%4 + 1
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
	}
	return e, cfg, src
}

func BenchmarkEngineSnapshot(b *testing.B) {
	e, _, _ := benchSnapshotEngine(b)
	blob, err := e.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineRestore(b *testing.B) {
	e, cfg, src := benchSnapshotEngine(b)
	blob, err := e.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	twinCfg := cfg
	twinCfg.FlightRecorder = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	twin := New(twinCfg, src)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := twin.Restore(blob); err != nil {
			b.Fatal(err)
		}
	}
}
