package host

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"cryptodrop/internal/core"
	"cryptodrop/internal/measurecache"
	"cryptodrop/internal/telemetry"
)

// attackSession bulk-encrypts `files` documents as pid 7 through sess — the
// same two-op-per-file stream as the package example.
func attackSession(t *testing.T, sess *Session, files int) {
	t.Helper()
	ctx := context.Background()
	state := uint64(1)
	for i := 0; i < files; i++ {
		id := uint64(i + 1)
		path := fmt.Sprintf("/docs/doc%02d.txt", i)
		var content []byte
		for line := 0; len(content) < 2048; line++ {
			content = append(content, []byte(fmt.Sprintf(
				"day %d line %d: meeting summary, expense total %d, follow-up %x.\n",
				i, line, line*73+i, line*line))...)
		}
		enc := make([]byte, 2048)
		for j := range enc {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			enc[j] = byte(state)
		}
		err := sess.Submit(ctx,
			Op{
				PreEvent: &core.Event{
					Kind: core.EvOpen, PID: 7, Path: path, FileID: id,
					Flags: core.EvWriteIntent, Size: int64(len(content)),
				},
				Pre: map[uint64][]byte{id: content},
			},
			Op{
				Event: core.Event{
					Kind: core.EvClose, PID: 7, Path: path, FileID: id, Wrote: true,
				},
				Post: map[uint64][]byte{id: enc},
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotFleetState drives one detecting session and one quiet one,
// then checks the snapshot rows: sorted order, ingest accounting, detection
// summary, cache state, and the armed slow-op log.
func TestSnapshotFleetState(t *testing.T) {
	h := New(Config{
		SlowOpThreshold: time.Nanosecond, // everything is "slow"
		MeasureCache:    measurecache.New(16 << 20),
	})
	ecfg := core.DefaultConfig("/docs")
	ecfg.NonUnionThreshold = 100
	ecfg.NewCipherWithoutDelta = true

	// Opened out of ID order on purpose: Snapshot must sort.
	beta, err := h.Open("beta", SessionConfig{Engine: ecfg, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := h.Open("alpha", SessionConfig{Engine: ecfg, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	attackSession(t, beta, 12)
	if err := alpha.Submit(context.Background(), Op{
		Event: core.Event{Kind: core.EvWrite, PID: 2, Path: "/docs/memo.txt", FileID: 1, Data: []byte("note")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := alpha.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := h.Snapshot()
	if snap.SessionsOpen != 2 || len(snap.Sessions) != 2 {
		t.Fatalf("SessionsOpen = %d (%d rows), want 2", snap.SessionsOpen, len(snap.Sessions))
	}
	if snap.Sessions[0].ID != "alpha" || snap.Sessions[1].ID != "beta" {
		t.Fatalf("rows not sorted by ID: %q, %q", snap.Sessions[0].ID, snap.Sessions[1].ID)
	}
	a, b := snap.Sessions[0], snap.Sessions[1]
	if a.Ingested != 1 || b.Ingested != 24 {
		t.Fatalf("ingest accounting: alpha %d (want 1), beta %d (want 24)", a.Ingested, b.Ingested)
	}
	if a.QueueCap != 8 || b.QueueCap != 8 || a.QueueLen != 0 || b.QueueLen != 0 {
		t.Fatalf("queue columns wrong after flush: %+v / %+v", a, b)
	}
	if a.Detections != 0 || a.LastDetection != nil {
		t.Fatalf("quiet session reports a detection: %+v", a)
	}
	if b.Detections != 1 || b.LastDetection == nil {
		t.Fatalf("attacked session: Detections = %d, LastDetection = %v, want 1 and non-nil",
			b.Detections, b.LastDetection)
	}
	if ld := b.LastDetection; ld.PID != 7 || ld.Score < 100 || ld.OpIndex == 0 || ld.AtNs == 0 {
		t.Fatalf("detection summary incomplete: %+v", ld)
	}
	if snap.Cache == nil {
		t.Fatal("no cache snapshot with a host-wide measure cache")
	}
	if total := snap.Cache.Hits + snap.Cache.Misses; total == 0 {
		t.Error("cache snapshot saw no lookups after a 12-file attack")
	} else if want := float64(snap.Cache.Hits) / float64(total); snap.Cache.HitRate != want {
		t.Errorf("HitRate = %g, want %g", snap.Cache.HitRate, want)
	}
	if snap.SlowOpThresholdNs != 1 {
		t.Fatalf("SlowOpThresholdNs = %d, want 1", snap.SlowOpThresholdNs)
	}
	if len(snap.SlowOps) == 0 {
		t.Fatal("1ns threshold logged no slow ops")
	}
	for _, op := range snap.SlowOps {
		if op.Session == "" || op.Kind == "" || op.DurNs < 1 || op.AtNs == 0 {
			t.Fatalf("slow-op entry incomplete: %+v", op)
		}
	}

	// The HTTP endpoint serves the same shape.
	rr := httptest.NewRecorder()
	h.IntrospectionHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/sessions", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var served Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &served); err != nil {
		t.Fatalf("endpoint body not valid JSON: %v", err)
	}
	if served.SessionsOpen != 2 || len(served.Sessions) != 2 ||
		served.Sessions[1].LastDetection == nil {
		t.Fatalf("served snapshot lost fields: %+v", served)
	}

	if _, err := h.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := h.Snapshot(); after.SessionsOpen != 0 {
		t.Fatalf("SessionsOpen = %d after shutdown, want 0", after.SessionsOpen)
	}
}

// TestSnapshotOverloadCounters pins the backpressure columns: saturated
// submissions count per session, blocking waits and degrade transitions
// count host-wide.
func TestSnapshotOverloadCounters(t *testing.T) {
	h := New(Config{})
	gate := make(chan struct{})
	sess, err := h.Open("tenant", SessionConfig{
		Engine:       gatedConfig(gateUnit{gate: gate}),
		QueueDepth:   2,
		DegradeAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := uint64(1); i <= 3; i++ {
		if err := sess.Submit(ctx, closeOp(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := sess.TrySubmit(closeOp(1, 99)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("TrySubmit = %v, want ErrOverloaded", err)
		}
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := sess.Submit(short, closeOp(1, 100)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Submit = %v, want deadline exceeded", err)
	}

	snap := h.Snapshot()
	row := snap.Sessions[0]
	if !row.Degraded || row.Saturations < 4 {
		t.Fatalf("session row = %+v, want degraded with >= 4 saturations", row)
	}
	if row.QueueLen != row.QueueCap || row.QueueCap != 2 {
		t.Fatalf("queue columns = %d/%d, want full 2/2", row.QueueLen, row.QueueCap)
	}
	if snap.BackpressureWaits < 1 {
		t.Fatalf("BackpressureWaits = %d, want >= 1", snap.BackpressureWaits)
	}
	if snap.Degrades != 1 {
		t.Fatalf("Degrades = %d, want 1", snap.Degrades)
	}
	if snap.SlowOpThresholdNs != 0 || snap.SlowOps != nil {
		t.Fatalf("slow-op log armed without a threshold: %+v", snap)
	}

	close(gate)
	if _, err := h.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSlowLogRingDropsOldest exercises the bounded ring directly: a full
// log overwrites oldest-first and counts every loss.
func TestSlowLogRingDropsOldest(t *testing.T) {
	l := newSlowLog(time.Millisecond, 4)
	at := time.Now()
	for i := 0; i < 6; i++ {
		op := writeOp(1, uint64(i), nil)
		l.note("s", &op, time.Duration(i+1)*time.Millisecond, at)
	}
	ops, dropped := l.snapshot()
	if len(ops) != 4 || dropped != 2 {
		t.Fatalf("snapshot = %d entries, %d dropped; want 4 and 2", len(ops), dropped)
	}
	for i, op := range ops {
		if want := int64(i+3) * int64(time.Millisecond); op.DurNs != want {
			t.Fatalf("entry %d: DurNs %d, want %d (oldest-first, oldest two dropped)", i, op.DurNs, want)
		}
		if op.Kind != "write" {
			t.Fatalf("entry %d: kind %q, want write", i, op.Kind)
		}
	}

	// Baseline-only ops (zero Event.Kind, PreEvent set) are labelled as such.
	pre := core.Event{Kind: core.EvOpen, PID: 3, Path: "/docs/x", FileID: 9}
	op := Op{PreEvent: &pre}
	l.note("s", &op, 2*time.Millisecond, at)
	ops, _ = l.snapshot()
	last := ops[len(ops)-1]
	if last.Kind != "baseline" || last.Path != "/docs/x" || last.PID != 3 {
		t.Fatalf("baseline op logged as %+v", last)
	}
}

// TestDefaultHostMemoizes pins the default: a host built from the zero
// Config owns one measurement memo cache that all its sessions share, so a
// second session ingesting the first one's stream is served by cache hits.
// /debug/sessions reports the cache, and with Telemetry set its counters
// are exported as host_measure_cache_* series. A cache passed in is used
// instead of the host's own.
func TestDefaultHostMemoizes(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := New(Config{Telemetry: reg})
	ecfg := core.DefaultConfig("/docs")
	var dets []int
	for _, id := range []string{"first", "second"} {
		sess, err := h.Open(id, SessionConfig{Engine: ecfg})
		if err != nil {
			t.Fatal(err)
		}
		attackSession(t, sess, 12)
		dets = append(dets, len(sess.Detections()))
	}
	if dets[0] == 0 || dets[0] != dets[1] {
		t.Fatalf("detections per session = %v, want equal and non-zero", dets)
	}

	rec := httptest.NewRecorder()
	h.IntrospectionHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/sessions", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	c := snap.Cache
	if c == nil {
		t.Fatal("/debug/sessions reports no cache for a default host")
	}
	if c.Hits == 0 || c.Misses == 0 || c.Entries == 0 || c.Capacity != defaultMeasureCacheBytes {
		t.Fatalf("cache after two identical streams = %+v, want hits, misses, entries and a %d-byte capacity",
			c, defaultMeasureCacheBytes)
	}

	g := reg.Snapshot().Gauges
	for name, want := range map[string]float64{
		"host_measure_cache_hits_total":      float64(c.Hits),
		"host_measure_cache_misses_total":    float64(c.Misses),
		"host_measure_cache_evictions_total": float64(c.Evictions),
		"host_measure_cache_entries":         float64(c.Entries),
		"host_measure_cache_bytes":           float64(c.Bytes),
		"host_measure_cache_capacity_bytes":  float64(c.Capacity),
	} {
		if got, ok := g[name]; !ok || got != want {
			t.Errorf("%s = %v (exported %v), want %v", name, got, ok, want)
		}
	}

	own := measurecache.New(1 << 20)
	h2 := New(Config{MeasureCache: own})
	sess, err := h2.Open("s", SessionConfig{Engine: ecfg})
	if err != nil {
		t.Fatal(err)
	}
	attackSession(t, sess, 4)
	if st := own.Stats(); st.Misses == 0 || h2.Snapshot().Cache.Capacity != 1<<20 {
		t.Fatalf("injected cache unused: stats %+v, snapshot %+v", st, h2.Snapshot().Cache)
	}
}
