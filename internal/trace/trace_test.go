package trace

import (
	"bytes"
	"strings"
	"testing"

	"cryptodrop"
	"cryptodrop/internal/core"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/proc"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/vfs"
)

func TestRecorderCapturesStream(t *testing.T) {
	fs := vfs.New()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	fs.SetInterceptor(interceptOnly{rec})
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(7, "/d/f.txt", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(7, "/d/f.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(7, "/d/f.txt", "/d/g.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(7, "/d/g.txt"); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	records, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(records)) != rec.Records() {
		t.Fatalf("read %d records, recorder says %d", len(records), rec.Records())
	}
	wantOps := []string{"create", "write", "close", "open", "read", "close", "rename", "delete"}
	if len(records) != len(wantOps) {
		t.Fatalf("records = %d, want %d", len(records), len(wantOps))
	}
	for i, rec := range records {
		if rec.Op != wantOps[i] {
			t.Fatalf("record %d op = %s, want %s", i, rec.Op, wantOps[i])
		}
		if rec.Seq != int64(i+1) {
			t.Fatalf("record %d seq = %d", i, rec.Seq)
		}
		if rec.PID != 7 {
			t.Fatalf("record %d pid = %d", i, rec.PID)
		}
	}
	if records[1].DataB64 == "" {
		t.Fatal("write record lost its payload")
	}
}

// interceptOnly adapts a single filter as a vfs.Interceptor.
type interceptOnly struct{ r *Recorder }

func (i interceptOnly) PreOp(op *vfs.Op) error { return i.r.PreOp(op) }
func (i interceptOnly) PostOp(op *vfs.Op)      { i.r.PostOp(op) }

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"op":"explode","seq":1}` + "\n")); err == nil {
		t.Fatal("unknown op accepted")
	}
	records, err := Read(strings.NewReader("\n\n"))
	if err != nil || len(records) != 0 {
		t.Fatalf("blank lines: %v, %d records", err, len(records))
	}
}

// TestReplayReproducesDetection records a ransomware run on machine A, then
// replays the trace into a fresh engine whose content store is seeded from
// the same corpus: the replay must reach A's verdict exactly — same score,
// and detection at the same operation.
func TestReplayReproducesDetection(t *testing.T) {
	spec := corpus.Spec{Seed: 70, Files: 200, Dirs: 25, SizeScale: 0.25}

	// Machine A: corpus + monitor + recorder; run the sample.
	fsA := vfs.New()
	m, err := corpus.Build(fsA, spec)
	if err != nil {
		t.Fatal(err)
	}
	procsA := proc.NewTable()
	monA, err := cryptodrop.NewMonitor(fsA, procsA, cryptodrop.WithRoot(m.Root))
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	rec := NewRecorder(&traceBuf)
	if err := monA.Chain().Attach(500000, rec); err != nil {
		t.Fatal(err)
	}
	sample := ransomware.Sample{ID: "traced", Seed: 71, Profile: ransomware.Profile{
		Family: "TestFam", Class: ransomware.ClassA, Traversal: ransomware.TraverseShuffled,
		Cipher: ransomware.CipherAES, RenameExt: ".enc", ChunkKB: 16,
	}}
	pidA := procsA.Spawn(sample.ID)
	res, err := sample.Run(fsA, pidA, m.Root, func() bool { return procsA.Suspended(pidA) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Suspended {
		t.Fatal("sample not suspended on machine A")
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	// Machine B: the identical corpus seeds the replayer's content store.
	records, err := Read(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("empty trace")
	}
	seed := vfs.New()
	if _, err := corpus.Build(seed, spec); err != nil {
		t.Fatal(err)
	}
	replayer := NewEventReplayer()
	if err := replayer.SeedFromFS(seed); err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.DefaultConfig(m.Root), replayer)
	rr, err := replayer.Replay(eng, records)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Applied == 0 {
		t.Fatalf("nothing applied: %+v", rr)
	}
	detsA, detsB := monA.Detections(), eng.Detections()
	if len(detsA) != 1 || len(detsB) != 1 {
		t.Fatalf("detections: A=%d, replay=%d, want 1 each (applied %d, skipped %d)",
			len(detsA), len(detsB), rr.Applied, rr.Skipped)
	}
	repA, _ := monA.Report(pidA)
	repB, ok := eng.Report(pidA)
	if !ok || !repB.Detected {
		t.Fatal("replayed process not detected")
	}
	if repA.Score != repB.Score {
		t.Fatalf("scores diverge: A=%.1f replay=%.1f", repA.Score, repB.Score)
	}
	if detsA[0].OpIndex != detsB[0].OpIndex {
		t.Fatalf("detection op index diverges: A=%d replay=%d", detsA[0].OpIndex, detsB[0].OpIndex)
	}
}

// TestReplaySkipsForeignFiles pins the replayer's skip rules: an open of a
// path outside the seeded store without create intent (its pre-state is
// unknown) and an undecodable payload are skipped, not fatal — a trace is a
// partial view of a machine.
func TestReplaySkipsForeignFiles(t *testing.T) {
	records := []Record{
		{Seq: 1, Op: "open", PID: 1, Path: "/never/existed", FileID: 9, Flags: int(vfs.WriteOnly)},
		{Seq: 2, Op: "write", PID: 1, Path: "/docs/a.txt", FileID: 1, DataB64: "not base64!"},
		{Seq: 3, Op: "open", PID: 1, Path: "/docs/a.txt", FileID: 1, Flags: int(vfs.ReadOnly)},
	}
	replayer := NewEventReplayer()
	replayer.Seed("/docs/a.txt", 1, []byte("seeded"))
	eng := core.New(core.DefaultConfig("/"), replayer)
	rr, err := replayer.Replay(eng, records)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Skipped != 2 || rr.Applied != 1 {
		t.Fatalf("result = %+v, want 2 skipped, 1 applied", rr)
	}
}
