package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cryptodrop/internal/corpus"
	"cryptodrop/internal/indicator"
	"cryptodrop/internal/policy"
	"cryptodrop/internal/vfs"
)

const testRoot = "/Users/victim/Documents"

// setup builds a filesystem with a handful of documents and an attached
// engine.
func setup(t testing.TB, cfg Config) (*vfs.FS, *Engine) {
	t.Helper()
	fs := vfs.New()
	if err := fs.MkdirAll(testRoot); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/Windows/Temp"); err != nil {
		t.Fatal(err)
	}
	exts := []string{"txt", "pdf", "docx", "csv", "md", "html", "xml", "jpg", "xlsx", "rtf"}
	for i := 0; i < 30; i++ {
		ext := exts[i%len(exts)]
		p := fmt.Sprintf("%s/file%02d.%s", testRoot, i, ext)
		if err := fs.WriteFile(0, p, corpus.Generate(ext, int64(i), 8192)); err != nil {
			t.Fatal(err)
		}
	}
	eng := New(cfg, testSource{fs})
	fs.SetInterceptor(interceptorFunc{eng})
	return fs, eng
}

// testSource exposes a vfs as the engine's ContentSource, reading at
// measurement time the bytes internal/vfsadapter stages into its host ops
// (the adapter cannot be imported here: it imports core); the cross-backend
// conformance suite in internal/experiments pins that the real adapter
// behaves identically.
type testSource struct{ fs *vfs.FS }

func (s testSource) Content(id uint64) ([]byte, error) { return s.fs.ReadFileRawByID(id) }

// interceptorFunc adapts the engine to vfs.Interceptor directly for tests,
// translating ops the same way internal/vfsadapter does before it submits
// them to a host session.
type interceptorFunc struct{ e *Engine }

func (i interceptorFunc) PreOp(op *vfs.Op) error { i.e.PreEvent(testEventFromOp(op)); return nil }
func (i interceptorFunc) PostOp(op *vfs.Op)      { i.e.Handle(testEventFromOp(op)) }

func testEventFromOp(op *vfs.Op) Event {
	kinds := map[vfs.OpKind]EventKind{
		vfs.OpCreate: EvCreate, vfs.OpOpen: EvOpen, vfs.OpRead: EvRead,
		vfs.OpWrite: EvWrite, vfs.OpClose: EvClose, vfs.OpDelete: EvDelete,
		vfs.OpRename: EvRename,
	}
	var flags EventFlag
	if op.Flags&vfs.ReadOnly != 0 {
		flags |= EvReadIntent
	}
	if op.Flags&vfs.WriteOnly != 0 {
		flags |= EvWriteIntent
	}
	if op.Flags&vfs.Create != 0 {
		flags |= EvCreateIntent
	}
	if op.Flags&vfs.Truncate != 0 {
		flags |= EvTruncate
	}
	if op.Flags&vfs.Append != 0 {
		flags |= EvAppend
	}
	return Event{
		Kind: kinds[op.Kind], PID: op.PID, Path: op.Path, NewPath: op.NewPath,
		FileID: op.FileID, ReplacedID: op.ReplacedID, Data: op.Data,
		Offset: op.Offset, Size: op.Size, Flags: flags, Wrote: op.Wrote,
	}
}

// keystream produces deterministic ciphertext-like bytes.
func keystream(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// encryptInPlace performs a Class A transformation of path as pid.
func encryptInPlace(t testing.TB, fs *vfs.FS, pid int, p string) {
	t.Helper()
	if err := tryEncryptInPlace(fs, pid, p); err != nil {
		t.Fatal(err)
	}
}

// tryEncryptInPlace is encryptInPlace returning its error, for goroutines
// other than the test's own, which must not call t.Fatal.
func tryEncryptInPlace(fs *vfs.FS, pid int, p string) error {
	h, err := fs.Open(pid, p, vfs.ReadWrite)
	if err != nil {
		return err
	}
	content, err := h.ReadAll()
	if err != nil {
		return err
	}
	key := keystream(int64(len(content)), len(content))
	enc := make([]byte, len(content))
	for i := range content {
		enc[i] = content[i] ^ key[i]
	}
	h.SeekTo(0)
	if _, err := h.Write(enc); err != nil {
		return err
	}
	return h.Close()
}

func TestClassAEncryptionDetected(t *testing.T) {
	var detections []Detection
	cfg := DefaultConfig(testRoot)
	cfg.OnDetection = func(d Detection) { detections = append(detections, d) }
	fs, eng := setup(t, cfg)

	pid := 500
	infos, err := fs.List(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	encrypted := 0
	for _, info := range infos {
		if len(detections) > 0 {
			break
		}
		encryptInPlace(t, fs, pid, info.Path)
		encrypted++
	}
	if len(detections) == 0 {
		t.Fatalf("no detection after encrypting all %d files", encrypted)
	}
	d := detections[0]
	if d.PID != pid {
		t.Fatalf("detected pid %d, want %d", d.PID, pid)
	}
	if encrypted > 15 {
		t.Fatalf("detection took %d files, want early detection", encrypted)
	}
	rep, ok := eng.Report(pid)
	if !ok || !rep.Detected {
		t.Fatal("report does not show detection")
	}
	if !rep.Union {
		t.Fatal("Class A in-place encryption should trigger union indication")
	}
	for _, ind := range PrimaryIndicators() {
		if rep.IndicatorPoints[ind] <= 0 {
			t.Errorf("primary indicator %v earned no points", ind)
		}
	}
}

func TestBenignEditScoresNearZero(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)

	pid := 600
	// A word processor edit: read a document, write a slightly changed
	// version of the same type.
	p := testRoot + "/file02.docx"
	content, err := fs.ReadFile(pid, p)
	if err != nil {
		t.Fatal(err)
	}
	edited := corpus.Generate("docx", 2, len(content)) // same type, same entropy class
	h, err := fs.Open(pid, p, vfs.WriteOnly|vfs.Truncate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(edited); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	rep, ok := eng.Report(pid)
	if !ok {
		t.Fatal("no report for benign process")
	}
	if rep.Detected {
		t.Fatalf("benign edit detected (score %.1f)", rep.Score)
	}
	if rep.IndicatorPoints[IndicatorTypeChange] != 0 {
		t.Errorf("type-change points for same-type rewrite: %v", rep.IndicatorPoints)
	}
	if rep.Score >= cfg.UnionThreshold {
		t.Fatalf("benign edit score %.1f too high", rep.Score)
	}
}

func TestReadingAloneScoresNothing(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 700
	infos, _ := fs.List(testRoot)
	for _, info := range infos {
		if _, err := fs.ReadFile(pid, info.Path); err != nil {
			t.Fatal(err)
		}
	}
	rep, ok := eng.Report(pid)
	if !ok {
		t.Fatal("no report")
	}
	if rep.Score != 0 {
		t.Fatalf("pure reader scored %.1f", rep.Score)
	}
}

func TestOperationsOutsideRootIgnored(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 800
	// Heavy suspicious activity outside the protected tree.
	for i := 0; i < 50; i++ {
		p := fmt.Sprintf("/Windows/Temp/f%d.bin", i)
		if err := fs.WriteFile(pid, p, keystream(int64(i), 4096)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Delete(pid, p); err != nil {
			t.Fatal(err)
		}
	}
	if rep, ok := eng.Report(pid); ok && rep.Score != 0 {
		t.Fatalf("unprotected activity scored %.1f", rep.Score)
	}
}

func TestClassCRenameOverOriginalLinksState(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 900
	infos, _ := fs.List(testRoot)
	for _, info := range infos[:6] {
		content, err := fs.ReadFile(pid, info.Path)
		if err != nil {
			t.Fatal(err)
		}
		key := keystream(7, len(content))
		enc := make([]byte, len(content))
		for i := range content {
			enc[i] = content[i] ^ key[i]
		}
		tmp := info.Path + ".locked"
		if err := fs.WriteFile(pid, tmp, enc); err != nil {
			t.Fatal(err)
		}
		// Move the new file over the original: the engine must link the
		// new content to the original's cached state.
		if err := fs.Rename(pid, tmp, info.Path); err != nil {
			t.Fatal(err)
		}
	}
	rep, ok := eng.Report(pid)
	if !ok {
		t.Fatal("no report")
	}
	if rep.IndicatorPoints[IndicatorTypeChange] == 0 {
		t.Fatal("rename-over-original did not trigger type change")
	}
	if rep.IndicatorPoints[IndicatorSimilarity] == 0 {
		t.Fatal("rename-over-original did not trigger similarity")
	}
	if !rep.Union {
		t.Fatal("Class C with rename-over should achieve union")
	}
}

func TestClassBMoveOutAndBackTracked(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 1000
	infos, _ := fs.List(testRoot)
	for n, info := range infos[:8] {
		tmp := fmt.Sprintf("/Windows/Temp/w%d", n)
		if err := fs.Rename(pid, info.Path, tmp); err != nil {
			t.Fatal(err)
		}
		// Encrypt outside the protected tree (unmonitored).
		content, err := fs.ReadFile(pid, tmp)
		if err != nil {
			t.Fatal(err)
		}
		key := keystream(11, len(content))
		enc := make([]byte, len(content))
		for i := range content {
			enc[i] = content[i] ^ key[i]
		}
		h, err := fs.Open(pid, tmp, vfs.WriteOnly|vfs.Truncate)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(enc); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		// Move back under a different name.
		if err := fs.Rename(pid, tmp, info.Path+".enc"); err != nil {
			t.Fatal(err)
		}
	}
	rep, ok := eng.Report(pid)
	if !ok {
		t.Fatal("no report")
	}
	if rep.IndicatorPoints[IndicatorTypeChange] == 0 {
		t.Fatal("move-out/encrypt/move-back evaded type change tracking")
	}
	if rep.IndicatorPoints[IndicatorSimilarity] == 0 {
		t.Fatal("move-out/encrypt/move-back evaded similarity tracking")
	}
}

func TestDeletionIndicator(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 1100
	infos, _ := fs.List(testRoot)
	for _, info := range infos[:10] {
		if err := fs.Delete(pid, info.Path); err != nil {
			t.Fatal(err)
		}
	}
	rep, _ := eng.Report(pid)
	if rep.Deletes != 10 {
		t.Fatalf("deletes = %d, want 10", rep.Deletes)
	}
	want := 10 * cfg.Points.Deletion
	if rep.IndicatorPoints[IndicatorDeletion] != want {
		t.Fatalf("deletion points = %.1f, want %.1f", rep.IndicatorPoints[IndicatorDeletion], want)
	}
}

func TestFunnelingIndicator(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 1200
	// Read every document type, write a single output type (7-zip shape).
	infos, _ := fs.List(testRoot)
	for _, info := range infos {
		if _, err := fs.ReadFile(pid, info.Path); err != nil {
			t.Fatal(err)
		}
	}
	out := testRoot + "/archive.7z"
	h, err := fs.Open(pid, out, vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(append([]byte{'7', 'z', 0xBC, 0xAF, 0x27, 0x1C}, keystream(3, 8192)...)); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	rep, _ := eng.Report(pid)
	if rep.IndicatorPoints[IndicatorFunneling] != cfg.Points.Funneling {
		t.Fatalf("funneling points = %.1f, want %.1f (typesRead should far exceed typesWritten)",
			rep.IndicatorPoints[IndicatorFunneling], cfg.Points.Funneling)
	}
}

func TestFunnelingAwardedOnce(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	cfg.FunnelingThreshold = 2
	fs, eng := setup(t, cfg)
	pid := 1300
	infos, _ := fs.List(testRoot)
	for _, info := range infos {
		if _, err := fs.ReadFile(pid, info.Path); err != nil {
			t.Fatal(err)
		}
		// Keep writing the same single output.
		h, err := fs.Open(pid, testRoot+"/out.bin", vfs.WriteOnly|vfs.Create|vfs.Append)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(keystream(1, 512)); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rep, _ := eng.Report(pid)
	if got := rep.IndicatorPoints[IndicatorFunneling]; got != cfg.Points.Funneling {
		t.Fatalf("funneling points = %.1f, want single award %.1f", got, cfg.Points.Funneling)
	}
}

func TestUnionLowersThreshold(t *testing.T) {
	// With union ablated — a policy whose quorum is never reached — the
	// same workload must take longer (more files) to detect than under the
	// default union policy.
	countFilesToDetect := func(pol policy.Policy) int {
		cfg := DefaultConfig(testRoot)
		cfg.Policy = pol
		detected := false
		cfg.OnDetection = func(d Detection) { detected = true }
		fs, _ := setup(t, cfg)
		pid := 1400
		infos, _ := fs.List(testRoot)
		n := 0
		for _, info := range infos {
			if detected {
				break
			}
			encryptInPlace(t, fs, pid, info.Path)
			n++
		}
		if !detected {
			t.Fatalf("no detection (policy %T) after %d files", pol, n)
		}
		return n
	}
	withUnion := countFilesToDetect(nil)
	withoutUnion := countFilesToDetect(&policy.Majority{Quorum: math.MaxInt})
	if withUnion > withoutUnion {
		t.Fatalf("union detection (%d files) slower than non-union (%d files)", withUnion, withoutUnion)
	}
	if withoutUnion <= withUnion {
		// Equality can happen only if the non-union path was already fast.
		t.Logf("union=%d files, non-union=%d files", withUnion, withoutUnion)
	}
}

func TestDisabledIndicatorNeverFires(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	cfg.Indicators = indicator.Default().Without(IndicatorTypeChange)
	fs, eng := setup(t, cfg)
	pid := 1500
	infos, _ := fs.List(testRoot)
	for _, info := range infos {
		encryptInPlace(t, fs, pid, info.Path)
	}
	rep, _ := eng.Report(pid)
	if rep.IndicatorPoints[IndicatorTypeChange] != 0 {
		t.Fatal("disabled indicator earned points")
	}
	if rep.Union {
		t.Fatal("union fired with a disabled primary indicator")
	}
}

func TestDetectionFiresOnce(t *testing.T) {
	fired := 0
	cfg := DefaultConfig(testRoot)
	cfg.OnDetection = func(d Detection) { fired++ }
	fs, eng := setup(t, cfg)
	pid := 1600
	infos, _ := fs.List(testRoot)
	for _, info := range infos {
		encryptInPlace(t, fs, pid, info.Path)
	}
	if fired != 1 {
		t.Fatalf("OnDetection fired %d times, want 1", fired)
	}
	if got := len(eng.Detections()); got != 1 {
		t.Fatalf("Detections() len = %d, want 1", got)
	}
	d := eng.Detections()[0]
	if d.Score < d.Threshold {
		t.Fatalf("detection score %.1f below threshold %.1f", d.Score, d.Threshold)
	}
}

func TestPerProcessIsolation(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	// Malicious pid and benign pid interleaved.
	mal, ben := 1700, 1701
	infos, _ := fs.List(testRoot)
	for i, info := range infos[:8] {
		encryptInPlace(t, fs, mal, info.Path)
		if _, err := fs.ReadFile(ben, infos[8+i].Path); err != nil {
			t.Fatal(err)
		}
	}
	malRep, _ := eng.Report(mal)
	benRep, _ := eng.Report(ben)
	if malRep.Score <= benRep.Score {
		t.Fatalf("malicious score %.1f not above benign %.1f", malRep.Score, benRep.Score)
	}
	if benRep.Score != 0 {
		t.Fatalf("benign reader scored %.1f", benRep.Score)
	}
}

func TestExtensionAndDirTracking(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 1800
	if _, err := fs.ReadFile(pid, testRoot+"/file00.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(pid, testRoot+"/file01.pdf"); err != nil {
		t.Fatal(err)
	}
	rep, _ := eng.Report(pid)
	if len(rep.ExtensionsTouched) != 2 || rep.ExtensionsTouched[0] != "txt" || rep.ExtensionsTouched[1] != "pdf" {
		t.Fatalf("extensions = %v, want [txt pdf] in touch order", rep.ExtensionsTouched)
	}
	if len(rep.DirsTouched) != 1 || rep.DirsTouched[0] != testRoot {
		t.Fatalf("dirs = %v", rep.DirsTouched)
	}
}

func TestSmallFilesYieldNoSimilarity(t *testing.T) {
	// Files under 512 bytes cannot be digested, so pure small-file
	// attacks must not earn similarity points (§V-C).
	cfg := DefaultConfig(testRoot)
	fs := vfs.New()
	if err := fs.MkdirAll(testRoot); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("%s/tiny%d.txt", testRoot, i)
		if err := fs.WriteFile(0, p, corpus.Generate("txt", int64(i), 300)); err != nil {
			t.Fatal(err)
		}
	}
	eng := New(cfg, testSource{fs})
	fs.SetInterceptor(interceptorFunc{eng})
	pid := 1900
	infos, _ := fs.List(testRoot)
	for _, info := range infos {
		encryptInPlace(t, fs, pid, info.Path)
	}
	rep, _ := eng.Report(pid)
	if rep.IndicatorPoints[IndicatorSimilarity] != 0 {
		t.Fatalf("similarity points %.1f on sub-512B files", rep.IndicatorPoints[IndicatorSimilarity])
	}
	if rep.Union {
		t.Fatal("union fired without a valid similarity measurement")
	}
	if rep.IndicatorPoints[IndicatorTypeChange] == 0 {
		t.Fatal("type change should still fire on small files")
	}
}

func TestRansomNoteWritesDoNotDrownEntropy(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)
	pid := 2000
	note := []byte("ALL YOUR FILES ARE ENCRYPTED! PAY 1 BTC TO RECOVER THEM.\n")
	// Drop a ransom note in the root, then encrypt files; the weighted
	// entropy mean must still cross the threshold.
	if err := fs.WriteFile(pid, testRoot+"/HOW_TO_DECRYPT.txt", note); err != nil {
		t.Fatal(err)
	}
	infos, _ := fs.List(testRoot)
	for _, info := range infos {
		if info.Path == testRoot+"/HOW_TO_DECRYPT.txt" {
			continue
		}
		encryptInPlace(t, fs, pid, info.Path)
	}
	rep, _ := eng.Report(pid)
	if rep.IndicatorPoints[IndicatorEntropyDelta] == 0 {
		t.Fatal("entropy delta suppressed by low-entropy ransom notes")
	}
}

func BenchmarkEngineEncryptionStream(b *testing.B) {
	cfg := DefaultConfig(testRoot)
	fs, _ := setup(b, cfg)
	content, err := fs.ReadFileRaw(testRoot + "/file01.pdf")
	if err != nil {
		b.Fatal(err)
	}
	key := keystream(1, len(content))
	enc := make([]byte, len(content))
	for i := range content {
		enc[i] = content[i] ^ key[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := fs.Open(3000, testRoot+"/file01.pdf", vfs.ReadWrite)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Write(enc); err != nil {
			b.Fatal(err)
		}
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
