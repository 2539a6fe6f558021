package audit

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"cryptodrop/internal/telemetry"
)

func sample(pid int) *Bundle {
	return &Bundle{
		Version: 2, SessionID: "s1", PID: pid, Score: 146, Threshold: 140,
		Union: true, OpIndex: 28, FilesLost: 7,
		Contributions: []Contribution{
			{Indicator: "file-type-change", ID: 1, Points: 56, Fires: 7},
			{Indicator: "similarity", ID: 2, Points: 48, Fires: 6},
			{Indicator: "entropy-delta", ID: 3, Points: 12, Fires: 13},
			{Indicator: "union-bonus", Points: 30, Fires: 1},
		},
		Engine:   EngineConfig{ProtectedRoot: "/docs", NonUnionThreshold: 200, UnionThreshold: 140},
		Registry: RegistryInfo{Fingerprint: "reg1-0000000000000001", Units: []string{"1:file-type-change"}, Policy: "*policy.Union"},
		Trace:    telemetry.Trace{Group: pid},
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Emit(sample(31))
	sink.Emit(sample(32))
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}
	if got := sink.Emitted(); got != 2 {
		t.Fatalf("Emitted() = %d, want 2", got)
	}
	// One JSON object per line.
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("output has %d lines, want 2", got)
	}
	back, err := ReadBundles(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].PID != 31 || back[1].PID != 32 {
		t.Fatalf("round trip = %+v", back)
	}
	if back[0].Score != 146 || !back[0].Union || back[0].Registry.Fingerprint != "reg1-0000000000000001" {
		t.Fatalf("fields lost in round trip: %+v", back[0])
	}
}

// errWriter fails after n bytes, to exercise the sink's sticky error.
type errWriter struct{ left int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, errors.New("disk full")
	}
	w.left -= len(p)
	return len(p), nil
}

func TestJSONLSinkStickyError(t *testing.T) {
	sink := NewJSONLSink(&errWriter{left: 10})
	sink.Emit(sample(1))
	if sink.Err() == nil {
		t.Fatal("write error swallowed")
	}
	emitted := sink.Emitted()
	sink.Emit(sample(2)) // must not panic, must not count
	if sink.Emitted() != emitted {
		t.Fatalf("sink kept counting after error: %d then %d", emitted, sink.Emitted())
	}
}

func TestReadBundlesRejectsGarbage(t *testing.T) {
	if _, err := ReadBundles(strings.NewReader("{\"v\":1}\nnot json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
	// Blank lines are tolerated (trailing newline, hand-edited files).
	bundles, err := ReadBundles(strings.NewReader("{\"v\":1,\"pid\":5}\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 || bundles[0].PID != 5 {
		t.Fatalf("bundles = %+v", bundles)
	}
}

func TestMemorySinkConcurrent(t *testing.T) {
	sink := &MemorySink{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sink.Emit(sample(w*100 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := len(sink.Bundles()); got != 400 {
		t.Fatalf("MemorySink holds %d bundles, want 400", got)
	}
}
