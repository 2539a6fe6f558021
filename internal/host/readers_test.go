package host_test

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"cryptodrop/internal/core"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/host"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/trace"
	"cryptodrop/internal/vfs"
)

// recordedAttack records one Class A ransomware sample encrypting a small
// corpus and returns its op stream as host ops, plus the protected root.
func recordedAttack(t *testing.T) ([]host.Op, string) {
	t.Helper()
	spec := corpus.Spec{Seed: 24, Files: 60, Dirs: 6, SizeScale: 0.2}
	fs := vfs.New()
	m, err := corpus.Build(fs, spec)
	if err != nil {
		t.Fatal(err)
	}
	replayer := trace.NewEventReplayer()
	if err := replayer.SeedFromFS(fs.Clone()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	fs.SetInterceptor(rec)
	var sample ransomware.Sample
	for _, s := range ransomware.Roster(spec.Seed) {
		if s.Profile.Class == ransomware.ClassA {
			sample = s
			break
		}
	}
	if _, err := sample.Run(fs, 100, m.Root, func() bool { return false }); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	records, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ops, _ := replayer.BuildHostOps(records)
	if len(ops) == 0 {
		t.Fatal("empty recorded stream")
	}
	return ops, m.Root
}

// TestEngineReadersDuringApply: while a session applies a recorded attack,
// other goroutines read the engine through every reader the session and the
// filter adapter use. Under -race this checks that the engine lock covers
// what the readers touch, and the final verdicts must equal those of a run
// nobody polled.
func TestEngineReadersDuringApply(t *testing.T) {
	ops, root := recordedAttack(t)
	const batch, pollers = 8, 2
	run := func(t *testing.T, sc host.SessionConfig, poll bool) host.SessionReport {
		t.Helper()
		h := host.New(host.Config{})
		sess, err := h.Open("s", sc)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var ready, done sync.WaitGroup
		defer func() {
			close(stop)
			done.Wait()
		}()
		if poll {
			for p := 0; p < pollers; p++ {
				ready.Add(1)
				done.Add(1)
				go func(p int) {
					defer done.Done()
					eng := sess.Engine()
					var lastOp int64
					for i := p; ; i++ {
						ev := ops[i%len(ops)].Event
						sess.Report(ev.PID)
						sess.Reports()
						sess.Detections()
						eng.PreReads(&ev)
						eng.HandleReads(&ev)
						if n := eng.OpIndex(); n < lastOp {
							t.Errorf("OpIndex went back from %d to %d", lastOp, n)
						} else {
							lastOp = n
						}
						if i == p {
							ready.Done()
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}(p)
			}
		}
		ready.Wait()
		ctx := context.Background()
		for rest := ops; len(rest) > 0; {
			n := min(batch, len(rest))
			if err := sess.Submit(ctx, rest[:n]...); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if err := sess.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		rep, err := h.CloseSession(ctx, "s")
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	cfg := core.DefaultConfig(root)
	want := run(t, host.SessionConfig{Engine: cfg, Direct: true}, false)
	if len(want.Detections) == 0 {
		t.Fatal("the recorded attack was not detected")
	}
	for _, tc := range []struct {
		name string
		sc   host.SessionConfig
	}{
		{"queued", host.SessionConfig{Engine: cfg, QueueDepth: 2, DegradeAfter: -1}},
		{"direct", host.SessionConfig{Engine: cfg, Direct: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := run(t, tc.sc, true)
			if !reflect.DeepEqual(got.Reports, want.Reports) {
				t.Fatalf("polled scoreboard diverges:\ngot  %+v\nwant %+v", got.Reports, want.Reports)
			}
			if !reflect.DeepEqual(got.Detections, want.Detections) {
				t.Fatalf("polled detections diverge:\ngot  %+v\nwant %+v", got.Detections, want.Detections)
			}
		})
	}
}
