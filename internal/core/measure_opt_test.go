package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cryptodrop/internal/corpus"
	"cryptodrop/internal/measurecache"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

// These tests pin the hot-path measurement optimisations: content-hash
// memoization and the two-tier scoring ladder. The memo promises
// bit-identical verdicts — proven by DeepEqual against a plain engine over
// the same deterministic workload — while the ladder promises only that
// escalation converges on anything suspicious.

// encryptionWorkload runs the Class A attack plus a benign edit over a
// fresh deterministic filesystem under cfg, returning the final scoreboard
// and detections.
func encryptionWorkload(t *testing.T, cfg Config) ([]ProcessReport, []Detection) {
	t.Helper()
	fs, eng := setup(t, cfg)
	infos, err := fs.List(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	// A benign process edits one document in place first, exercising the
	// transform path with a same-type rewrite.
	benign := 300
	edited := corpus.Generate("docx", 9, 8192)
	h, err := fs.Open(benign, testRoot+"/file02.docx", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAll(); err != nil {
		t.Fatal(err)
	}
	h.SeekTo(0)
	if _, err := h.Write(edited); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Then the attacker encrypts everything.
	attacker := 500
	for _, info := range infos {
		encryptInPlace(t, fs, attacker, info.Path)
	}
	return eng.Reports(), eng.Detections()
}

// TestMeasureMemoizedBitIdentical proves the memo cache changes no verdict:
// the same deterministic workload, run without a cache, with a cold cache,
// and with a warm cache (second engine sharing the first one's), produces
// bit-identical scoreboards and detection lists — while the warm run
// resolves measurements by lookup.
func TestMeasureMemoizedBitIdentical(t *testing.T) {
	base := DefaultConfig(testRoot)
	wantReports, wantDets := encryptionWorkload(t, base)
	if len(wantDets) == 0 {
		t.Fatal("baseline workload fired no detection")
	}

	cache := measurecache.New(64 << 20)
	cfg := base
	cfg.MeasureCache = cache
	coldReports, coldDets := encryptionWorkload(t, cfg)
	if !reflect.DeepEqual(wantReports, coldReports) {
		t.Fatalf("cold-cache scoreboards diverge:\n plain: %+v\n memo:  %+v", wantReports, coldReports)
	}
	if !reflect.DeepEqual(wantDets, coldDets) {
		t.Fatalf("cold-cache detections diverge:\n plain: %+v\n memo:  %+v", wantDets, coldDets)
	}

	warmReports, warmDets := encryptionWorkload(t, cfg)
	if !reflect.DeepEqual(wantReports, warmReports) {
		t.Fatalf("warm-cache scoreboards diverge:\n plain: %+v\n memo:  %+v", wantReports, warmReports)
	}
	if !reflect.DeepEqual(wantDets, warmDets) {
		t.Fatalf("warm-cache detections diverge:\n plain: %+v\n memo:  %+v", wantDets, warmDets)
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("warm run over an identical corpus hit the cache 0 times: %+v", st)
	}
}

// TestMeasureMemoizedBitIdenticalPooled repeats the memoization identity
// check with a pool of engines measuring concurrently against one shared
// cache (a host fleet), where lookups and fills race for the same content.
func TestMeasureMemoizedBitIdenticalPooled(t *testing.T) {
	base := DefaultConfig(testRoot)
	wantReports, wantDets := encryptionWorkload(t, base)

	cfg := base
	cfg.MeasureCache = measurecache.New(64 << 20)
	for i := 0; i < 4; i++ {
		t.Run(fmt.Sprintf("engine=%d", i), func(t *testing.T) {
			t.Parallel()
			gotReports, gotDets := encryptionWorkload(t, cfg)
			if !reflect.DeepEqual(wantReports, gotReports) {
				t.Fatalf("pooled memoized scoreboards diverge:\n plain: %+v\n memo:  %+v", wantReports, gotReports)
			}
			if !reflect.DeepEqual(wantDets, gotDets) {
				t.Fatalf("pooled memoized detections diverge:\n plain: %+v\n memo:  %+v", wantDets, gotDets)
			}
		})
	}
}

// failSource errors on every read — a backend that lost the file.
type failSource struct{}

func (failSource) Content(uint64) ([]byte, error) { return nil, errors.New("backend gone") }

// emptySource serves empty content without error.
type emptySource struct{}

func (emptySource) Content(uint64) ([]byte, error) { return []byte{}, nil }

// TestContentReadFailureCounted pins the fix for the silent-drop bug: a
// ContentSource read failure on the measurement path is counted in
// telemetry, so it is distinguishable from genuinely empty content (which
// is measured, not dropped, on the evaluation path).
func TestContentReadFailureCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig(testRoot)
	cfg.Telemetry = reg
	eng := New(cfg, failSource{})

	p := testRoot + "/doc.txt"
	// Snapshot path: open-for-write over a file the source cannot serve.
	eng.PreEvent(Event{Kind: EvOpen, PID: 1, Path: p, FileID: 7, Size: 100, Flags: EvWriteIntent})
	// Evaluation path: a completed rewrite whose result cannot be read.
	eng.Handle(Event{Kind: EvClose, PID: 1, Path: p, FileID: 7, Wrote: true})

	const series = "engine_content_read_failures_total"
	if got := reg.Counter(series).Value(); got != 2 {
		t.Fatalf("%s = %d after two failing reads, want 2", series, got)
	}
	if rep, ok := eng.Report(1); ok && rep.FilesTransformed != 0 {
		t.Fatalf("transform scored despite unreadable content: %+v", rep)
	}

	// Genuinely empty content is not a failure: the evaluation path measures
	// it (the "empty" type) and the counter stays put.
	reg2 := telemetry.NewRegistry()
	cfg2 := DefaultConfig(testRoot)
	cfg2.Telemetry = reg2
	eng2 := New(cfg2, emptySource{})
	eng2.Handle(Event{Kind: EvClose, PID: 1, Path: p, FileID: 7, Wrote: true})
	if got := reg2.Counter(series).Value(); got != 0 {
		t.Fatalf("%s = %d for empty (readable) content, want 0", series, got)
	}
	if rep, ok := eng2.Report(1); !ok || rep.FilesTransformed != 0 {
		// No previous version exists, so the empty rewrite is a new-file
		// evaluation, not a transform — but it must have been measured.
		if !ok {
			t.Fatal("no report for process scoring empty content")
		}
	}
}

// evasiveEncrypt rewrites the file as ransomware evading header checks
// would: the first keep bytes stay untouched (magic type and header-area
// entropy unchanged), everything after is replaced with ciphertext.
func evasiveEncrypt(t *testing.T, fs *vfs.FS, pid int, p string, keep int64) {
	t.Helper()
	h, err := fs.Open(pid, p, vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	content, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(content)) <= keep {
		t.Fatalf("file %s (%d bytes) too small to evade a %d-byte sample", p, len(content), keep)
	}
	h.SeekTo(keep)
	if _, err := h.Write(keystream(int64(len(content)), len(content)-int(keep))); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSampledTierEscalationCatchesEvasiveHeaders drives the two-tier
// ladder's worst case: an attacker that preserves every file's leading
// sample area, so sampled measurements alone see an unchanged type, an
// unchanged header digest and a flat prefix-entropy delta. The
// tier-independent payload stream still gives it away — reading plaintext
// while writing ciphertext — and the first such award escalates the process
// to full measurement, where the file-level entropy jump scores. Detection
// requires those full-measurement awards: the stream trickle alone could
// never reach the threshold.
func TestSampledTierEscalationCatchesEvasiveHeaders(t *testing.T) {
	const keep = 4096 // == magic.SniffLen, the smallest legal sample
	root := testRoot
	fs := vfs.New()
	if err := fs.MkdirAll(root); err != nil {
		t.Fatal(err)
	}
	exts := []string{"txt", "pdf", "docx", "csv", "md", "html", "xml", "xlsx"}
	const files = 80
	for i := 0; i < files; i++ {
		p := fmt.Sprintf("%s/doc%03d.%s", root, i, exts[i%len(exts)])
		if err := fs.WriteFile(0, p, corpus.Generate(exts[i%len(exts)], int64(i), 12288)); err != nil {
			t.Fatal(err)
		}
	}

	reg := telemetry.NewRegistry()
	cfg := DefaultConfig(root)
	cfg.Tier = TierSampled
	cfg.SampleBytes = keep
	cfg.Telemetry = reg
	var detections []Detection
	cfg.OnDetection = func(d Detection) { detections = append(detections, d) }
	eng := New(cfg, testSource{fs})
	fs.SetInterceptor(interceptorFunc{eng})

	pid := 900
	infos, err := fs.List(root)
	if err != nil {
		t.Fatal(err)
	}
	encrypted := 0
	for _, info := range infos {
		if len(detections) > 0 {
			break
		}
		evasiveEncrypt(t, fs, pid, info.Path, keep)
		encrypted++
	}
	if len(detections) == 0 {
		t.Fatalf("evasive header-preserving attack not detected after %d files under the sampled tier", encrypted)
	}
	rep, ok := eng.Report(pid)
	if !ok || !rep.Detected {
		t.Fatal("report does not show the detection")
	}
	if !rep.Escalated {
		t.Fatal("detected process was never escalated to full measurement")
	}
	if got := reg.Counter("engine_tier_escalations_total").Value(); got != 1 {
		t.Fatalf("engine_tier_escalations_total = %d, want 1", got)
	}
	// The type never changes (headers preserved), so the detection must be
	// carried by entropy evidence gathered at the full tier.
	if rep.IndicatorPoints[IndicatorTypeChange] != 0 {
		t.Fatalf("type-change fired for header-preserving rewrites: %+v", rep.IndicatorPoints)
	}
	if rep.IndicatorPoints[IndicatorEntropyDelta] < DefaultPoints().EntropyDeltaFile {
		t.Fatalf("no file-level entropy award — full measurement never engaged: %+v", rep.IndicatorPoints)
	}

	// A benign process on the same session stays unescalated: escalation is
	// per process, not per engine.
	if benignRep, ok := eng.Report(0); ok && benignRep.Escalated {
		t.Fatal("corpus-seeding process escalated without any indicator firing")
	}
}

// TestSampledTierFullEquivalenceWhenDisabled pins that leaving the ladder
// off (the default TierFull) with the new knobs at their zero values is the
// exact seed engine: the config plumbing itself must not perturb verdicts.
func TestSampledTierFullEquivalenceWhenDisabled(t *testing.T) {
	base := DefaultConfig(testRoot)
	wantReports, wantDets := encryptionWorkload(t, base)

	cfg := base
	cfg.Tier = TierFull
	cfg.SampleBytes = 4096 // ignored under TierFull
	gotReports, gotDets := encryptionWorkload(t, cfg)
	if !reflect.DeepEqual(wantReports, gotReports) {
		t.Fatalf("TierFull with SampleBytes set diverges from default:\n want: %+v\n got:  %+v",
			wantReports, gotReports)
	}
	if !reflect.DeepEqual(wantDets, gotDets) {
		t.Fatalf("TierFull detections diverge:\n want: %+v\n got:  %+v", wantDets, gotDets)
	}
}
