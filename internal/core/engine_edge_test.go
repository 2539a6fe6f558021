package core

import (
	"fmt"
	"testing"

	"cryptodrop/internal/corpus"
	"cryptodrop/internal/indicator"
	"cryptodrop/internal/vfs"
)

func TestSnapshotFallbackForPreAttachedHandle(t *testing.T) {
	// A handle opened BEFORE the engine attaches must still be tracked:
	// the first write's PreOp snapshots the original lazily.
	fs := vfs.New()
	if err := fs.MkdirAll(testRoot); err != nil {
		t.Fatal(err)
	}
	p := testRoot + "/doc.txt"
	if err := fs.WriteFile(0, p, corpus.Generate("txt", 1, 8192)); err != nil {
		t.Fatal(err)
	}
	h, err := fs.Open(700, p, vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	// Engine attaches after the open.
	eng := New(DefaultConfig(testRoot), testSource{fs})
	fs.SetInterceptor(interceptorFunc{eng})

	content, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	enc := keystream(9, len(content))
	h.SeekTo(0)
	if _, err := h.Write(enc); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	rep, ok := eng.Report(700)
	if !ok {
		t.Fatal("no report")
	}
	if rep.IndicatorPoints[IndicatorTypeChange] == 0 {
		t.Fatal("lazy snapshot missed the type change")
	}
}

func TestOwnFileDeletionScoresLow(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 710
	// The process creates and deletes its own temp files (Office-style
	// autosave churn).
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("%s/~tmp%d.bin", testRoot, i)
		if err := fs.WriteFile(pid, p, corpus.Generate("txt", int64(i), 2048)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Delete(pid, p); err != nil {
			t.Fatal(err)
		}
	}
	rep, _ := eng.Report(pid)
	wantOwn := 20 * cfg.Points.DeletionOwn
	if got := rep.IndicatorPoints[IndicatorDeletion]; got != wantOwn {
		t.Fatalf("own-deletion points = %.1f, want %.1f", got, wantOwn)
	}

	// Deleting the user's pre-existing files scores the full rate.
	pid2 := 711
	infos, _ := fs.List(testRoot)
	deleted := 0
	for _, info := range infos {
		if info.IsDir || info.ReadOnly {
			continue
		}
		if err := fs.Delete(pid2, info.Path); err != nil {
			t.Fatal(err)
		}
		deleted++
		if deleted == 5 {
			break
		}
	}
	rep2, _ := eng.Report(pid2)
	want := 5 * cfg.Points.Deletion
	if got := rep2.IndicatorPoints[IndicatorDeletion]; got != want {
		t.Fatalf("foreign-deletion points = %.1f, want %.1f", got, want)
	}
}

func TestNewCipherFileAward(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 720
	// Establish a suspicious entropy delta: read plaintext...
	if _, err := fs.ReadFile(pid, testRoot+"/file00.txt"); err != nil {
		t.Fatal(err)
	}
	// ...then create brand-new ciphertext files (Class C copies).
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("%s/file%02d.txt.enc", testRoot, i)
		if err := fs.WriteFile(pid, p, keystream(int64(i), 8192)); err != nil {
			t.Fatal(err)
		}
	}
	rep, _ := eng.Report(pid)
	// Each close of a new data-typed file while Δe is suspicious awards
	// NewCipherFile under the entropy-delta indicator, on top of the
	// per-op points.
	minWant := 4 * cfg.Points.NewCipherFile
	if got := rep.IndicatorPoints[IndicatorEntropyDelta]; got < minWant {
		t.Fatalf("entropy-delta points = %.2f, want ≥ %.2f", got, minWant)
	}
}

func TestNewTypedFileNotPenalised(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 730
	if _, err := fs.ReadFile(pid, testRoot+"/file00.txt"); err != nil {
		t.Fatal(err)
	}
	// New files with recognisable types (a docx save-as) score no
	// NewCipherFile even with an active delta.
	if err := fs.WriteFile(pid, testRoot+"/export.docx", corpus.Generate("docx", 3, 16384)); err != nil {
		t.Fatal(err)
	}
	rep, _ := eng.Report(pid)
	// Only per-op delta points allowed; no 3-point file award.
	if got := rep.IndicatorPoints[IndicatorEntropyDelta]; got >= cfg.Points.NewCipherFile {
		t.Fatalf("typed new file over-penalised: %.2f points", got)
	}
}

func TestUnweightedEntropyAblation(t *testing.T) {
	// With the paper's weighting, a flood of small low-entropy ransom
	// notes cannot pull the write mean down; unweighted — the registry's
	// entropy-delta unit swapped for its byte-weighted variant — it can.
	run := func(reg *indicator.Registry) float64 {
		cfg := DefaultConfig(testRoot)
		cfg.Indicators = reg
		fs, eng := setup(t, cfg)
		pid := 740
		// One plaintext read, one big ciphertext write.
		if _, err := fs.ReadFile(pid, testRoot+"/file00.txt"); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(pid, testRoot+"/x.enc", keystream(1, 32*1024)); err != nil {
			t.Fatal(err)
		}
		// A flood of small ransom notes (every write is one op).
		note := []byte("PAY US! PAY US! PAY US! ")
		for i := 0; i < 200; i++ {
			if err := fs.WriteFile(pid, fmt.Sprintf("%s/NOTE%03d.txt", testRoot, i), note); err != nil {
				t.Fatal(err)
			}
		}
		rep, _ := eng.Report(pid)
		return rep.WriteEntropyMean
	}
	weighted := run(indicator.Default())
	unweighted := run(indicator.Default().With(indicator.ByteWeightedEntropyDelta()))
	if weighted < 7.5 {
		t.Fatalf("weighted mean %.2f dragged down by notes", weighted)
	}
	if unweighted >= weighted {
		t.Fatalf("unweighted mean %.2f not below weighted %.2f", unweighted, weighted)
	}
}

func TestDetectionRecordsOpIndex(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 750
	infos, _ := fs.List(testRoot)
	for _, info := range infos {
		encryptInPlace(t, fs, pid, info.Path)
	}
	dets := eng.Detections()
	if len(dets) != 1 {
		t.Fatalf("detections = %d", len(dets))
	}
	if dets[0].OpIndex <= 0 || dets[0].OpIndex > eng.OpIndex() {
		t.Fatalf("op index %d out of range (now %d)", dets[0].OpIndex, eng.OpIndex())
	}
	if eng.Config().ProtectedRoot != testRoot {
		t.Fatal("Config() lost the root")
	}
}

func TestRenameWithinRootOnlyExtension(t *testing.T) {
	// Renaming a file without touching content must not earn indicator
	// points (content identical → type same, similarity 100).
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 760
	if err := fs.Rename(pid, testRoot+"/file00.txt", testRoot+"/file00.txt.bak"); err != nil {
		t.Fatal(err)
	}
	rep, ok := eng.Report(pid)
	if ok && rep.Score != 0 {
		t.Fatalf("pure rename scored %.2f: %v", rep.Score, rep.IndicatorPoints)
	}
}

func TestCloseAfterDeleteIsSafe(t *testing.T) {
	// Deleting a file while a write handle is open, then closing the
	// handle, must not panic or corrupt the engine.
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 770
	p := testRoot + "/doomed.txt"
	if err := fs.WriteFile(pid, p, []byte("short-lived content here")); err != nil {
		t.Fatal(err)
	}
	h, err := fs.Open(pid, p, vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("mutating")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(pid, p); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Report(pid); !ok {
		t.Fatal("no report")
	}
}

func TestEmptyFileWriteSafe(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 780
	h, err := fs.Open(pid, testRoot+"/empty.txt", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, ok := eng.Report(pid); ok && rep.Score != 0 {
		t.Fatalf("empty write scored %.2f", rep.Score)
	}
}
