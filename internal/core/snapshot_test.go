package core

import (
	"errors"
	"reflect"
	"testing"

	"cryptodrop/internal/indicator"
	"cryptodrop/internal/policy"
	"cryptodrop/internal/snapshot"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

// snapshotTestConfig is the configuration used by the round-trip tests:
// defaults plus a flight recorder, so trace continuity is covered too.
func snapshotTestConfig() (Config, *telemetry.FlightRecorder) {
	cfg := DefaultConfig(testRoot)
	fr := telemetry.NewFlightRecorder(0)
	cfg.FlightRecorder = fr
	return cfg, fr
}

// encryptAll performs Class A encryption of every protected file as pid.
func encryptAll(t *testing.T, fs *vfs.FS, pid int, from, to int) {
	t.Helper()
	infos, err := fs.List(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	if to > len(infos) {
		to = len(infos)
	}
	for _, info := range infos[from:to] {
		encryptInPlace(t, fs, pid, info.Path)
	}
}

// TestEngineSnapshotRoundTripMidStream is the engine-level crash-recovery
// conformance pin: run half a Class A attack, snapshot, restore into a
// fresh identically-configured engine, run the second half there, and
// require bit-identical reports, detections, and flight traces versus an
// uninterrupted engine over the same deterministic workload.
func TestEngineSnapshotRoundTripMidStream(t *testing.T) {
	const pid = 500

	// Uninterrupted reference run.
	refCfg, refFR := snapshotTestConfig()
	refFS, refEng := setup(t, refCfg)
	encryptAll(t, refFS, pid, 0, 30)
	wantReports := refEng.Reports()
	wantDets := refEng.Detections()
	wantTraces := refFR.Traces()

	// Interrupted run: first half, snapshot, restore, second half.
	cfgA, _ := snapshotTestConfig()
	fs, engA := setup(t, cfgA)
	encryptAll(t, fs, pid, 0, 15)
	blob, err := engA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Determinism: snapshotting the same quiesced engine twice yields the
	// same bytes.
	blob2, err := engA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("two snapshots of the same quiesced engine differ")
	}

	cfgB, frB := snapshotTestConfig()
	engB := New(cfgB, testSource{fs})
	if err := engB.Restore(blob); err != nil {
		t.Fatal(err)
	}
	fs.SetInterceptor(interceptorFunc{engB})
	encryptAll(t, fs, pid, 15, 30)

	if got := engB.Reports(); !reflect.DeepEqual(got, wantReports) {
		t.Fatalf("restored reports diverge:\ngot  %+v\nwant %+v", got, wantReports)
	}
	if got := engB.Detections(); !reflect.DeepEqual(got, wantDets) {
		t.Fatalf("restored detections diverge:\ngot  %+v\nwant %+v", got, wantDets)
	}
	if got := frB.Traces(); !reflect.DeepEqual(got, wantTraces) {
		t.Fatalf("restored flight traces diverge:\ngot  %+v\nwant %+v", got, wantTraces)
	}
	if engB.OpIndex() != refEng.OpIndex() {
		t.Fatalf("op index diverged: got %d want %d", engB.OpIndex(), refEng.OpIndex())
	}
}

// TestEngineSnapshotRoundTripOptimisedModes repeats the mid-stream
// round trip under the byte-weighted entropy ablation, whose weighting the
// snapshot does not carry: the restoring engine takes it from its own
// registry.
func TestEngineSnapshotRoundTripOptimisedModes(t *testing.T) {
	const pid = 501
	for _, mode := range []struct {
		name string
		mut  func(*Config)
	}{
		{"byte-weighted-entropy", func(c *Config) {
			c.Indicators = indicator.Default().With(indicator.ByteWeightedEntropyDelta())
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			refCfg := DefaultConfig(testRoot)
			mode.mut(&refCfg)
			refFS, refEng := setup(t, refCfg)
			encryptAll(t, refFS, pid, 0, 30)
			wantReports := refEng.Reports()
			wantDets := refEng.Detections()

			cfgA := DefaultConfig(testRoot)
			mode.mut(&cfgA)
			fs, engA := setup(t, cfgA)
			encryptAll(t, fs, pid, 0, 15)
			blob, err := engA.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			cfgB := DefaultConfig(testRoot)
			mode.mut(&cfgB)
			engB := New(cfgB, testSource{fs})
			if err := engB.Restore(blob); err != nil {
				t.Fatal(err)
			}
			fs.SetInterceptor(interceptorFunc{engB})
			encryptAll(t, fs, pid, 15, 30)

			if got := engB.Reports(); !reflect.DeepEqual(got, wantReports) {
				t.Fatalf("restored reports diverge:\ngot  %+v\nwant %+v", got, wantReports)
			}
			if got := engB.Detections(); !reflect.DeepEqual(got, wantDets) {
				t.Fatalf("restored detections diverge:\ngot  %+v\nwant %+v", got, wantDets)
			}
		})
	}
}

// TestEngineRestoreMismatch is the silent-drift regression test: a snapshot
// restored into a differently-configured engine must fail with the typed
// mismatch error naming the diverging identity field, before any state is
// installed.
func TestEngineRestoreMismatch(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	encryptAll(t, fs, 500, 0, 5)
	blob, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Different scoring config → config-hash mismatch.
	cfgOther := DefaultConfig(testRoot)
	cfgOther.NonUnionThreshold = 150
	other := New(cfgOther, testSource{fs})
	err = other.Restore(blob)
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("threshold drift: got %v, want ErrSnapshotMismatch", err)
	}
	var me *snapshot.MismatchError
	if !errors.As(err, &me) || me.Field != "config" {
		t.Fatalf("threshold drift: got %v, want config-field mismatch", err)
	}
	// The refused restore must not have touched the engine.
	if got := other.Reports(); len(got) != 0 {
		t.Fatalf("refused restore installed %d scoreboard entries", len(got))
	}

	// Same policy type, different parameters → config-hash mismatch: the
	// hash covers the policy's field values, not only its type.
	cfgQ2 := DefaultConfig(testRoot)
	cfgQ2.Policy = &policy.Majority{Quorum: 2}
	q2Eng := New(cfgQ2, testSource{fs})
	q2Blob, err := q2Eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cfgQ5 := DefaultConfig(testRoot)
	cfgQ5.Policy = &policy.Majority{Quorum: 5, Threshold: 10}
	q5Eng := New(cfgQ5, testSource{fs})
	err = q5Eng.Restore(q2Blob)
	if !errors.As(err, &me) || me.Field != "config" {
		t.Fatalf("policy parameter drift: got %v, want config-field mismatch", err)
	}

	// Different indicator registry → registry-fingerprint mismatch.
	cfgReg := DefaultConfig(testRoot)
	cfgReg.Indicators = indicator.Default().Without(indicator.Funneling)
	regEng := New(cfgReg, testSource{fs})
	err = regEng.Restore(blob)
	if !errors.As(err, &me) || me.Field != "registry" {
		t.Fatalf("registry drift: got %v, want registry-field mismatch", err)
	}

	// Version skew → ErrVersion, before any state is installed. Versions
	// 1–3 are retired layouts (1 still carried the incremental-entropy
	// tracker section, 2 a weighting flag per entropy mean, 3 the sampled
	// tier's escalation latch and prefix-entropy fields); they are refused
	// as format versions, not as damage. A version-3 checkpoint also
	// carries the older "cfg2-" config hash, and is still refused by its
	// version, not as config drift.
	id := eng.SnapshotIdentity()
	same := New(cfg, testSource{fs})
	_, payload, err := snapshot.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{1, 2, 3, 99} {
		id.Version = v
		if v == 3 {
			id.Config = "cfg2-0123456789abcdef"
		}
		skewed := snapshot.Seal(id, payload)
		err := same.Restore(skewed)
		if !errors.Is(err, snapshot.ErrVersion) || errors.Is(err, ErrSnapshotCorrupt) || errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("version %d: got %v, want ErrVersion only", v, err)
		}
		if got := same.Reports(); len(got) != 0 {
			t.Fatalf("version %d: refused restore installed %d scoreboard entries", v, len(got))
		}
	}

	// Corruption → ErrSnapshotCorrupt.
	mut := append([]byte{}, blob...)
	mut[len(mut)/2] ^= 0x01
	if err := same.Restore(mut); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("corruption: got %v, want ErrSnapshotCorrupt", err)
	}
	if err := same.Restore(blob[:len(blob)-2]); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("truncation: got %v, want ErrSnapshotCorrupt", err)
	}
}

// FuzzEngineRestore feeds arbitrary bytes to Engine.Restore: it must return
// a typed error or succeed, never panic, and a failed restore must leave
// the engine fully usable.
func FuzzEngineRestore(f *testing.F) {
	cfg := DefaultConfig(testRoot)
	fs := vfs.New()
	if err := fs.MkdirAll(testRoot); err != nil {
		f.Fatal(err)
	}
	eng := New(cfg, testSource{fs})
	blob, err := eng.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte("CDSN"))
	trunc := append([]byte{}, blob...)
	f.Add(trunc[:len(trunc)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		e := New(cfg, testSource{fs})
		if rerr := e.Restore(data); rerr != nil {
			if !errors.Is(rerr, ErrSnapshotCorrupt) && !errors.Is(rerr, ErrSnapshotMismatch) && !errors.Is(rerr, snapshot.ErrVersion) {
				t.Fatalf("Restore returned non-typed error %v", rerr)
			}
		}
		// Whatever happened, the engine must still accept work.
		e.Handle(Event{Kind: EvOpen, PID: 1, Path: testRoot + "/x.txt", FileID: 1})
		e.Reports()
	})
}
