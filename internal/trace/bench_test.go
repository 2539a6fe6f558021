package trace

import (
	"bytes"
	"testing"

	"cryptodrop"
	"cryptodrop/internal/core"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/proc"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/vfs"
)

// benchSpec is the corpus the benchmark sample attacks and its replay
// store is seeded from.
var benchSpec = corpus.Spec{Seed: 2016, Files: 200, Dirs: 20, SizeScale: 0.25}

// recordTable1Sample runs the first Table I roster sample under a monitor
// over benchSpec's corpus, recording it until it is suspended, and returns
// the trace and the corpus root.
func recordTable1Sample(b *testing.B) ([]Record, string) {
	b.Helper()
	fsys := vfs.New()
	m, err := corpus.Build(fsys, benchSpec)
	if err != nil {
		b.Fatal(err)
	}
	procs := proc.NewTable()
	mon, err := cryptodrop.NewMonitor(fsys, procs, cryptodrop.WithRoot(m.Root))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	if err := mon.Chain().Attach(500000, rec); err != nil {
		b.Fatal(err)
	}
	sample := ransomware.Roster(benchSpec.Seed)[0]
	pid := procs.Spawn(sample.ID)
	if _, err := sample.Run(fsys, pid, m.Root, func() bool { return procs.Suspended(pid) }); err != nil {
		b.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		b.Fatal(err)
	}
	records, err := Read(&buf)
	if err != nil {
		b.Fatal(err)
	}
	return records, m.Root
}

// seededReplayer returns a replayer whose store holds benchSpec's corpus.
func seededReplayer(b *testing.B) *EventReplayer {
	b.Helper()
	fsys := vfs.New()
	if _, err := corpus.Build(fsys, benchSpec); err != nil {
		b.Fatal(err)
	}
	r := NewEventReplayer()
	if err := r.SeedFromFS(fsys); err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkReplay replays one recorded Table I sample into a bare engine;
// seeding the store and building the engine are outside the timer.
func BenchmarkReplay(b *testing.B) {
	records, root := recordTable1Sample(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := seededReplayer(b)
		eng := core.New(core.DefaultConfig(root), r)
		b.StartTimer()
		if _, err := r.Replay(eng, records); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
}

// BenchmarkBuildHostOps translates the same recorded sample into host ops;
// seeding the store is outside the timer.
func BenchmarkBuildHostOps(b *testing.B) {
	records, _ := recordTable1Sample(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := seededReplayer(b)
		b.StartTimer()
		r.BuildHostOps(records)
	}
	b.ReportMetric(float64(len(records)), "records/op")
}
