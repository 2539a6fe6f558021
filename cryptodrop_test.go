package cryptodrop_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"cryptodrop"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/proc"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

// newVictim builds a monitored machine: corpus + process table + monitor.
func newVictim(t testing.TB, opts ...cryptodrop.Option) (*vfs.FS, *corpus.Manifest, *proc.Table, *cryptodrop.Monitor) {
	t.Helper()
	fs := vfs.New()
	m, err := corpus.Build(fs, corpus.Spec{Seed: 40, Files: 300, Dirs: 40, SizeScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	procs := proc.NewTable()
	mon, err := cryptodrop.NewMonitor(fs, procs, append([]cryptodrop.Option{cryptodrop.WithRoot(m.Root)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return fs, m, procs, mon
}

// testSample returns a generic Class A specimen.
func testSample(seed int64) ransomware.Sample {
	return ransomware.Sample{
		ID:   "integration-A",
		Seed: seed,
		Profile: ransomware.Profile{
			Family: "TestFam", Class: ransomware.ClassA,
			Traversal: ransomware.TraverseShuffled, Cipher: ransomware.CipherAES,
			RenameExt: ".enc", DropNote: true, ChunkKB: 16,
		},
	}
}

func TestMonitorStopsRansomware(t *testing.T) {
	var detected []cryptodrop.Detection
	fs, m, procs, mon := newVictim(t, cryptodrop.WithDetectionHandler(func(d cryptodrop.Detection) {
		detected = append(detected, d)
	}))
	s := testSample(1)
	pid := procs.Spawn(s.ID)
	res, err := s.Run(fs, pid, m.Root, func() bool { return procs.Suspended(pid) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Suspended {
		t.Fatalf("sample not suspended: %+v", res)
	}
	if len(detected) != 1 {
		t.Fatalf("detections = %d, want 1", len(detected))
	}
	if len(mon.Detections()) != 1 {
		t.Fatal("monitor did not record the detection")
	}
	if !procs.Suspended(pid) {
		t.Fatal("process not suspended in table")
	}
	// The vast majority of the corpus must have survived.
	if res.FilesAttacked > len(m.Entries)/5 {
		t.Fatalf("%d of %d files attacked before suspension", res.FilesAttacked, len(m.Entries))
	}
	// Suspended process can no longer touch the disk.
	if _, err := fs.ReadFile(pid, m.Entries[len(m.Entries)-1].Path); !errors.Is(err, cryptodrop.ErrSuspended) {
		t.Fatalf("suspended process read = %v, want ErrSuspended", err)
	}
}

func TestMonitorSuspendsWholeFamily(t *testing.T) {
	fs, m, procs, _ := newVictim(t)
	parent := procs.Spawn("dropper.exe")
	child := procs.SpawnChild("payload.exe", parent)
	s := testSample(2)
	if _, err := s.Run(fs, child, m.Root, func() bool { return procs.Suspended(child) }); err != nil {
		t.Fatal(err)
	}
	if !procs.Suspended(parent) {
		t.Fatal("parent process escaped family suspension")
	}
}

func TestAllowResumesProcess(t *testing.T) {
	fs, m, procs, mon := newVictim(t)
	s := testSample(3)
	pid := procs.Spawn(s.ID)
	if _, err := s.Run(fs, pid, m.Root, func() bool { return procs.Suspended(pid) }); err != nil {
		t.Fatal(err)
	}
	if !procs.Suspended(pid) {
		t.Fatal("not suspended")
	}
	// The user reviews the alert and (unwisely) allows the process.
	if err := mon.Allow(pid); err != nil {
		t.Fatal(err)
	}
	// Read a file that survived the partial attack.
	var surviving string
	for _, e := range m.Entries {
		if _, err := fs.Stat(e.Path); err == nil {
			surviving = e.Path
			break
		}
	}
	if surviving == "" {
		t.Fatal("no surviving corpus file")
	}
	if _, err := fs.ReadFile(pid, surviving); err != nil {
		t.Fatalf("allowed process still blocked: %v", err)
	}
}

// Regression: detection suspends the whole process family (SuspendFamily),
// so Allow must resume and exempt the whole family too. It used to resume
// only the reviewed PID, leaving children spawned before the detection
// suspended forever.
func TestAllowResumesWholeFamily(t *testing.T) {
	fs, m, procs, mon := newVictim(t)
	parent := procs.Spawn("dropper.exe")
	child := procs.SpawnChild("payload.exe", parent)
	s := testSample(5)
	if _, err := s.Run(fs, child, m.Root, func() bool { return procs.Suspended(child) }); err != nil {
		t.Fatal(err)
	}
	if !procs.Suspended(parent) || !procs.Suspended(child) {
		t.Fatal("family not suspended by detection")
	}

	// The user reviews the alert on the parent and allows it.
	if err := mon.Allow(parent); err != nil {
		t.Fatal(err)
	}
	var surviving string
	for _, e := range m.Entries {
		if _, err := fs.Stat(e.Path); err == nil {
			surviving = e.Path
			break
		}
	}
	if surviving == "" {
		t.Fatal("no surviving corpus file")
	}
	for _, pid := range []int{parent, child} {
		if procs.Suspended(pid) {
			t.Fatalf("pid %d still suspended after Allow(parent)", pid)
		}
		if _, err := fs.ReadFile(pid, surviving); err != nil {
			t.Fatalf("pid %d still blocked after Allow(parent): %v", pid, err)
		}
	}

	// The exemption covers the family: even if a later detection suspends
	// it again, enforcement must not veto the allowed processes.
	procs.SuspendFamily(child)
	for _, pid := range []int{parent, child} {
		if _, err := fs.ReadFile(pid, surviving); err != nil {
			t.Fatalf("exempt pid %d vetoed after re-suspension: %v", pid, err)
		}
	}
}

func TestWithoutEnforcementRecordsOnly(t *testing.T) {
	fs, m, procs, mon := newVictim(t, cryptodrop.WithoutEnforcement())
	s := testSample(4)
	pid := procs.Spawn(s.ID)
	res, err := s.Run(fs, pid, m.Root, func() bool { return procs.Suspended(pid) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Suspended {
		t.Fatal("sample suspended despite WithoutEnforcement")
	}
	if !res.Completed {
		t.Fatal("sample did not complete")
	}
	if len(mon.Detections()) != 1 {
		t.Fatalf("detections = %d, want 1 (recorded, not enforced)", len(mon.Detections()))
	}
}

func TestThresholdOption(t *testing.T) {
	// An absurdly high threshold with union ablated (a quorum no registry
	// reaches) means no detection.
	fs, m, procs, mon := newVictim(t,
		cryptodrop.WithNonUnionThreshold(1e9),
		cryptodrop.WithPolicy(&cryptodrop.MajorityPolicy{Quorum: math.MaxInt}),
	)
	s := testSample(5)
	pid := procs.Spawn(s.ID)
	res, err := s.Run(fs, pid, m.Root, func() bool { return procs.Suspended(pid) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Suspended || len(mon.Detections()) != 0 {
		t.Fatal("detection occurred despite huge threshold")
	}
}

func TestDisabledIndicatorsOption(t *testing.T) {
	fs, m, procs, mon := newVictim(t, cryptodrop.WithIndicators(
		cryptodrop.DefaultIndicators().Without(
			cryptodrop.IndicatorTypeChange, cryptodrop.IndicatorSimilarity,
		),
	))
	s := testSample(6)
	pid := procs.Spawn(s.ID)
	if _, err := s.Run(fs, pid, m.Root, func() bool { return procs.Suspended(pid) }); err != nil {
		t.Fatal(err)
	}
	rep, ok := mon.Report(pid)
	if !ok {
		t.Fatal("no report")
	}
	if rep.Union {
		t.Fatal("union fired with two primaries disabled")
	}
	if rep.IndicatorPoints[cryptodrop.IndicatorTypeChange] != 0 ||
		rep.IndicatorPoints[cryptodrop.IndicatorSimilarity] != 0 {
		t.Fatal("disabled indicators earned points")
	}
}

func TestAntivirusFilterCoexists(t *testing.T) {
	// Another filter in the chain (anti-virus in Fig. 2) must not affect
	// detection.
	fs, m, procs, mon := newVictim(t)
	av := &countingFilter{name: "antivirus"}
	if err := mon.Chain().Attach(320000, av); err != nil {
		t.Fatal(err)
	}
	s := testSample(7)
	pid := procs.Spawn(s.ID)
	res, err := s.Run(fs, pid, m.Root, func() bool { return procs.Suspended(pid) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Suspended {
		t.Fatal("not detected with anti-virus attached")
	}
	if av.post == 0 {
		t.Fatal("anti-virus filter saw no operations")
	}
}

// countingFilter counts operations.
type countingFilter struct {
	name string
	pre  int
	post int
}

func (f *countingFilter) Name() string           { return f.name }
func (f *countingFilter) PreOp(op *vfs.Op) error { f.pre++; return nil }
func (f *countingFilter) PostOp(op *vfs.Op)      { f.post++ }

func TestReportsListProcesses(t *testing.T) {
	fs, m, procs, mon := newVictim(t)
	p1 := procs.Spawn("a")
	p2 := procs.Spawn("b")
	if _, err := fs.ReadFile(p1, m.Entries[0].Path); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(p2, m.Entries[1].Path); err != nil {
		t.Fatal(err)
	}
	reports := mon.Reports()
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	if reports[0].PID != p1 || reports[1].PID != p2 {
		t.Fatalf("reports not ordered by PID: %+v", reports)
	}
	if mon.OpCount() == 0 {
		t.Fatal("OpCount = 0")
	}
}

func TestFamilyScoringAggregates(t *testing.T) {
	// The same encryption split over two sibling processes: per-process
	// scoring sees two half-scores; family scoring sees one full score on
	// the root.
	run := func(family bool) (rootScore float64, detections int) {
		opts := []cryptodrop.Option{cryptodrop.WithoutEnforcement()}
		if family {
			opts = append(opts, cryptodrop.WithFamilyScoring())
		}
		fs, m, procs, mon := newVictim(t, opts...)
		root := procs.Spawn("dropper.exe")
		w1 := procs.SpawnChild("w1.exe", root)
		w2 := procs.SpawnChild("w2.exe", root)
		s := testSample(8)
		if _, err := s.RunAsFamily(fs, []int{w1, w2}, m.Root, nil); err != nil {
			t.Fatal(err)
		}
		rep, _ := mon.Report(root)
		return rep.Score, len(mon.Detections())
	}
	perProcScore, _ := run(false)
	famScore, famDetections := run(true)
	if perProcScore != 0 {
		t.Fatalf("per-process scoring put %f points on the idle root", perProcScore)
	}
	if famScore == 0 || famDetections == 0 {
		t.Fatalf("family scoring did not aggregate: score %.1f, detections %d", famScore, famDetections)
	}
}

// xorEncryptInPlace rewrites p with a deterministic keystream XOR of its
// content — the minimal in-place encryption the engine scores on.
func xorEncryptInPlace(t *testing.T, fs *vfs.FS, pid int, p string) {
	t.Helper()
	h, err := fs.Open(pid, p, vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	content, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(len(content))*2654435761 + 0x9e3779b97f4a7c15
	enc := make([]byte, len(content))
	for i := range content {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		enc[i] = content[i] ^ byte(state)
	}
	h.SeekTo(0)
	if _, err := h.Write(enc); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorCheckpointRestore pins the facade durability contract: a
// monitor abandoned mid-attack (the crash) restores into a fresh monitor
// whose scoreboards, detections and op count equal an uninterrupted run's
// at the same point, op for op, and which then finishes the attack
// bit-identically. The crash comes after an explicit Checkpoint, and with
// no checkpoint at all, where the write-ahead log alone carries every op
// the monitor submitted.
func TestMonitorCheckpointRestore(t *testing.T) {
	const files = 60
	ctx := context.Background()

	// Uninterrupted reference, observed at the crash point and at the end.
	fsRef, mRef, procsRef, monRef := newVictim(t, cryptodrop.WithoutEnforcement())
	pidRef := procsRef.Spawn("attacker")
	for _, e := range mRef.Entries[:files/2] {
		xorEncryptInPlace(t, fsRef, pidRef, e.Path)
	}
	crashOps, crashReports, crashDets := monRef.OpCount(), monRef.Reports(), monRef.Detections()
	for _, e := range mRef.Entries[files/2 : files] {
		xorEncryptInPlace(t, fsRef, pidRef, e.Path)
	}
	wantReports := monRef.Reports()
	wantDets := monRef.Detections()
	if len(wantDets) == 0 {
		t.Fatal("reference attack fired no detections")
	}

	for _, tc := range []struct {
		name       string
		checkpoint bool
	}{
		{"checkpointed", true},
		{"wal-only", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// Durable run: encrypt half, maybe checkpoint, crash (the
			// monitor is simply abandoned — no Shutdown).
			fs, m, procs, mon := newVictim(t, cryptodrop.WithoutEnforcement(),
				cryptodrop.WithCheckpoint(dir, 0))
			pid := procs.Spawn("attacker")
			for _, e := range m.Entries[:files/2] {
				xorEncryptInPlace(t, fs, pid, e.Path)
			}
			if tc.checkpoint {
				if err := mon.Checkpoint(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if err := mon.Session().DurabilityErr(); err != nil {
				t.Fatal(err)
			}

			// Recover on the same machine and finish the attack.
			mon2, err := cryptodrop.NewMonitor(fs, procs, cryptodrop.WithRoot(m.Root),
				cryptodrop.WithoutEnforcement(), cryptodrop.WithCheckpoint(dir, 0), cryptodrop.WithRestore())
			if err != nil {
				t.Fatal(err)
			}
			if got := mon2.OpCount(); got != crashOps {
				t.Fatalf("restored monitor at op %d, want %d", got, crashOps)
			}
			if !reflect.DeepEqual(mon2.Reports(), crashReports) {
				t.Fatalf("restored reports diverge at the crash:\ngot  %+v\nwant %+v", mon2.Reports(), crashReports)
			}
			if !reflect.DeepEqual(mon2.Detections(), crashDets) {
				t.Fatalf("restored detections diverge at the crash:\ngot  %+v\nwant %+v", mon2.Detections(), crashDets)
			}
			for _, e := range m.Entries[files/2 : files] {
				xorEncryptInPlace(t, fs, pid, e.Path)
			}
			if !reflect.DeepEqual(mon2.Reports(), wantReports) {
				t.Fatalf("restored reports diverge:\ngot  %+v\nwant %+v", mon2.Reports(), wantReports)
			}
			if !reflect.DeepEqual(mon2.Detections(), wantDets) {
				t.Fatalf("restored detections diverge:\ngot  %+v\nwant %+v", mon2.Detections(), wantDets)
			}

			// A drifted configuration must refuse the restore with the typed
			// error.
			if _, err := cryptodrop.NewMonitor(vfs.New(), proc.NewTable(), cryptodrop.WithRoot(m.Root),
				cryptodrop.WithNonUnionThreshold(150),
				cryptodrop.WithCheckpoint(dir, 0), cryptodrop.WithRestore()); !errors.Is(err, cryptodrop.ErrSnapshotMismatch) {
				t.Fatalf("drifted restore: got %v, want ErrSnapshotMismatch", err)
			}
		})
	}
}

// TestMonitorIngestsThroughSession pins the facade's one ingest path: every
// operation the monitor scores goes through its host session, so the
// session's op count and its per-session telemetry series see the facade's
// traffic.
func TestMonitorIngestsThroughSession(t *testing.T) {
	reg := telemetry.NewRegistry()
	fs, m, procs, mon := newVictim(t, cryptodrop.WithTelemetry(reg))
	pid := procs.Spawn("attacker")
	for _, e := range m.Entries[:3] {
		xorEncryptInPlace(t, fs, pid, e.Path)
	}
	ingested := mon.Session().Ingested()
	if ingested == 0 {
		t.Fatalf("session ingested nothing after %d scored operations", mon.OpCount())
	}
	series := `host_session_events_total{session="` + cryptodrop.MonitorSessionID + `"}`
	if got := reg.Snapshot().Counters[series]; got != ingested {
		t.Fatalf("%s = %d, want the session's ingested count %d", series, got, ingested)
	}
	if rep, ok := mon.Report(pid); !ok || rep.FilesTransformed != 3 {
		t.Fatalf("report for the attacker = %+v (ok=%v), want 3 transformed files", rep, ok)
	}
}
