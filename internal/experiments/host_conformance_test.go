package experiments

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cryptodrop"
	"cryptodrop/internal/benign"
	"cryptodrop/internal/core"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/host"
	"cryptodrop/internal/proc"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/trace"
	"cryptodrop/internal/vfs"
)

// hostWorkload is one recorded op stream plus its standalone-engine
// expectation: scoreboards, detections and per-PID flight traces computed
// by EventReplayer.Replay on a fresh engine.
type hostWorkload struct {
	name    string
	records []trace.Record
	reports []core.ProcessReport
	dets    []core.Detection
	flights map[int]telemetry.Trace
	applied int
}

// captureTrace runs fn against a monitored corpus clone with a trace
// recorder attached and returns the recorded op stream.
func captureTrace(t *testing.T, runner *Runner, name string, fn func(fs *vfs.FS, pid int, root string) error) []trace.Record {
	t.Helper()
	fs := runner.CloneFS()
	procs := proc.NewTable()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	mon, err := cryptodrop.NewMonitor(fs, procs,
		cryptodrop.WithRoot(runner.Manifest().Root), cryptodrop.WithoutEnforcement())
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Chain().Attach(500000, rec); err != nil {
		t.Fatal(err)
	}
	pid := procs.Spawn(name)
	if err := fn(fs, pid, runner.Manifest().Root); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	records, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatalf("%s: empty trace", name)
	}
	return records
}

// expectStandalone replays the records into a fresh standalone engine and
// captures the bit-exact expectation.
func expectStandalone(t *testing.T, spec corpus.Spec, w *hostWorkload) {
	t.Helper()
	seedFS := vfs.New()
	m, err := corpus.Build(seedFS, spec)
	if err != nil {
		t.Fatal(err)
	}
	replayer := trace.NewEventReplayer()
	if err := replayer.SeedFromFS(seedFS); err != nil {
		t.Fatal(err)
	}
	fr := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	cfg := core.DefaultConfig(m.Root)
	cfg.FlightRecorder = fr
	eng := core.New(cfg, replayer)
	res, err := replayer.Replay(eng, w.records)
	if err != nil {
		t.Fatal(err)
	}
	w.applied = res.Applied
	w.reports = eng.Reports()
	w.dets = eng.Detections()
	w.flights = make(map[int]telemetry.Trace, len(w.reports))
	for _, rep := range w.reports {
		w.flights[rep.PID] = fr.Trace(rep.PID)
	}
}

// TestHostConformance64Sessions drives 64 concurrent host sessions with a
// mixed benign/ransomware roster of recorded op streams and proves every
// session's scoreboard, detection list and flight trace is bit-identical to
// a standalone engine replaying the same stream — queued batched ingest
// with backpressure changes nothing about the verdicts. Degradation is
// disabled: it is a deliberate scoring-mode switch, covered by the overload
// tests in internal/host. The host is the default one, so every session
// memoizes in the host's own cache, while the standalone expectations are
// computed by bare engines WITHOUT a cache: DeepEqual across scoreboards,
// detections and flight traces proves memoized and unmemoized measurement
// produce bit-identical verdicts even when 64 concurrent engines resolve
// each other's measurements. Run under -race in CI.
func TestHostConformance64Sessions(t *testing.T) {
	if st := hostConformance64(t, nil); st.Hits == 0 {
		t.Fatalf("64 sessions over cycled identical traces hit the default host cache 0 times: %+v", st)
	}
}

// TestHostConformance64SessionsMemoized repeats the 64-session conformance
// run with a caller-supplied cache, the host-sharing variant: the host must
// use it instead of its own. Run under -race in CI.
func TestHostConformance64SessionsMemoized(t *testing.T) {
	cache := cryptodrop.NewMeasureCache(256 << 20)
	hostConformance64(t, cache)
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("64 sessions over cycled identical traces hit the shared cache 0 times: %+v", st)
	}
	t.Logf("shared cache: %d hits, %d misses, %d evictions, %d entries, %d bytes",
		st.Hits, st.Misses, st.Evictions, st.Entries, st.Bytes)
}

// hostConformance64 runs the conformance check on a host given cache (nil:
// the host's own) and returns the host's cache state afterwards.
func hostConformance64(t *testing.T, cache *cryptodrop.MeasureCache) host.CacheSnapshot {
	if testing.Short() {
		t.Skip("64 sessions over captured traces")
	}
	spec := corpus.Spec{Seed: 2016, Files: 120, Dirs: 15, SizeScale: 0.2}
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The trace pool: one ransomware sample per behavioural class plus two
	// benign applications, cycled across the 64 sessions.
	var pool []*hostWorkload
	classes := map[ransomware.Class]ransomware.Sample{}
	for _, s := range ransomware.Roster(spec.Seed) {
		if _, ok := classes[s.Profile.Class]; !ok {
			classes[s.Profile.Class] = s
		}
	}
	for _, sample := range classes {
		sample := sample
		records := captureTrace(t, runner, sample.ID, func(fs *vfs.FS, pid int, root string) error {
			_, err := sample.Run(fs, pid, root, func() bool { return false })
			return err
		})
		pool = append(pool, &hostWorkload{name: "ransomware/" + sample.ID, records: records})
	}
	for _, name := range []string{"Microsoft Word", "ImageMagick"} {
		w, ok := benign.ByName(name)
		if !ok {
			t.Fatalf("no benign workload %q", name)
		}
		records := captureTrace(t, runner, w.Name, w.Run)
		pool = append(pool, &hostWorkload{name: "benign/" + w.Name, records: records})
	}
	for _, w := range pool {
		expectStandalone(t, spec, w)
	}

	// 64 sessions, shallow queues (so Submit really blocks on backpressure),
	// degradation off, every engine with its own flight recorder.
	const sessions = 64
	const batchSize = 16
	h := host.New(host.Config{QueueDepth: 4, Telemetry: telemetry.NewRegistry(), MeasureCache: cache})
	ctx := context.Background()
	flights := make([]*telemetry.FlightRecorder, sessions)
	assigned := make([]*hostWorkload, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		w := pool[i%len(pool)]
		assigned[i] = w

		seedFS := vfs.New()
		m, err := corpus.Build(seedFS, spec)
		if err != nil {
			t.Fatal(err)
		}
		replayer := trace.NewEventReplayer()
		if err := replayer.SeedFromFS(seedFS); err != nil {
			t.Fatal(err)
		}
		ops, res := replayer.BuildHostOps(w.records)
		if res.Applied != w.applied {
			t.Fatalf("session %d: BuildHostOps applied %d records, standalone replay applied %d",
				i, res.Applied, w.applied)
		}

		flights[i] = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
		cfg := core.DefaultConfig(m.Root)
		cfg.FlightRecorder = flights[i]
		sess, err := h.Open(fmt.Sprintf("s%02d", i), host.SessionConfig{
			Engine:       cfg,
			QueueDepth:   4,
			DegradeAfter: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(sess *host.Session, ops []host.Op) {
			defer wg.Done()
			for len(ops) > 0 {
				n := batchSize
				if n > len(ops) {
					n = len(ops)
				}
				if err := sess.Submit(ctx, ops[:n]...); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ops = ops[n:]
			}
		}(sess, ops)
	}
	wg.Wait()
	finals, err := h.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(finals) != sessions {
		t.Fatalf("shutdown returned %d reports, want %d", len(finals), sessions)
	}

	byID := make(map[string]host.SessionReport, len(finals))
	for _, r := range finals {
		byID[r.ID] = r
	}
	for i := 0; i < sessions; i++ {
		w := assigned[i]
		got, ok := byID[fmt.Sprintf("s%02d", i)]
		if !ok {
			t.Fatalf("no final report for session %d", i)
		}
		if got.Degraded || got.ShedBytes != 0 {
			t.Fatalf("session %d (%s) degraded under disabled degradation", i, w.name)
		}
		if !reflect.DeepEqual(w.reports, got.Reports) {
			t.Fatalf("session %d (%s): scoreboards diverge:\n standalone: %+v\n host:       %+v",
				i, w.name, w.reports, got.Reports)
		}
		if !reflect.DeepEqual(w.dets, got.Detections) {
			t.Fatalf("session %d (%s): detections diverge:\n standalone: %+v\n host:       %+v",
				i, w.name, w.dets, got.Detections)
		}
		for pid, want := range w.flights {
			if gotTrace := flights[i].Trace(pid); !reflect.DeepEqual(want, gotTrace) {
				t.Fatalf("session %d (%s) pid %d: flight traces diverge:\n standalone: %+v\n host:       %+v",
					i, w.name, pid, want, gotTrace)
			}
		}
	}
	return *h.Snapshot().Cache
}
