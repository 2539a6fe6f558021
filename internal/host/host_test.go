package host

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cryptodrop/internal/core"
	"cryptodrop/internal/telemetry"
)

// gateSource blocks every Content lookup until the gate closes, stalling
// the session worker inside a measurement so the queue backs up on demand.
type gateSource struct{ gate chan struct{} }

func (g gateSource) Content(uint64) ([]byte, error) {
	<-g.gate
	return nil, errors.New("gate: no content")
}

// closeOp is an op whose Handle needs file content (a completed rewrite),
// forcing the engine through the session's ContentSource.
func closeOp(pid int, id uint64) Op {
	return Op{Event: core.Event{
		Kind: core.EvClose, PID: pid, Path: fmt.Sprintf("/docs/f%d.txt", id),
		FileID: id, Wrote: true,
	}}
}

// writeOp carries payload bytes, the material degraded sessions shed.
func writeOp(pid int, id uint64, data []byte) Op {
	return Op{Event: core.Event{
		Kind: core.EvWrite, PID: pid, Path: fmt.Sprintf("/docs/f%d.txt", id),
		FileID: id, Data: data,
	}}
}

// TestOverloadBackpressureAndDegradeOnce drives the full overload policy:
// a stalled worker saturates the queue, non-blocking submissions overload,
// the degrade transition fires exactly once, blocked submissions see
// backpressure bounded by their context, and — once degraded — payload
// bytes are shed and counted. Telemetry counters must match each decision.
func TestOverloadBackpressureAndDegradeOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := New(Config{Telemetry: reg})
	gate := make(chan struct{})
	sess, err := h.Open("tenant", SessionConfig{
		Engine:       core.DefaultConfig("/docs"),
		Source:       gateSource{gate: gate},
		QueueDepth:   2,
		DegradeAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Three batches: the worker takes the first and stalls in the gated
	// content read; the other two fill the depth-2 queue.
	for i := uint64(1); i <= 3; i++ {
		if err := sess.Submit(ctx, closeOp(1, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Saturated: TrySubmit overloads, and the third consecutive saturation
	// degrades the session — exactly once, however long the streak runs.
	for i := 0; i < 6; i++ {
		err := sess.TrySubmit(closeOp(1, 99))
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("TrySubmit on full queue = %v, want ErrOverloaded", err)
		}
	}
	if !sess.Degraded() {
		t.Fatal("session not degraded after sustained saturation")
	}
	if !sess.Engine().PayloadBlind() {
		t.Fatal("degraded session's engine not payload-blind")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["host_degrades_total"]; got != 1 {
		t.Fatalf("host_degrades_total = %d, want exactly 1", got)
	}
	if got := snap.Gauges[`host_session_degraded{session="tenant"}`]; got != 1 {
		t.Fatalf("degraded gauge = %v, want 1", got)
	}

	// Blocking Submit feels backpressure: it must not return until its
	// context expires (the worker is still stalled).
	shortCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := sess.Submit(shortCtx, closeOp(1, 100)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit under saturation = %v, want DeadlineExceeded", err)
	}
	if got := reg.Snapshot().Counters["host_backpressure_waits_total"]; got < 1 {
		t.Fatalf("host_backpressure_waits_total = %d, want >= 1", got)
	}

	// Release the worker; the degraded session keeps scoring but sheds
	// payload bytes.
	close(gate)
	payload := []byte("0123456789abcdef")
	if err := sess.Submit(ctx, writeOp(1, 200, payload)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters[`host_session_shed_bytes_total{session="tenant"}`]; got != int64(len(payload)) {
		t.Fatalf("shed bytes counter = %d, want %d", got, len(payload))
	}

	rep, err := h.CloseSession(context.Background(), "tenant")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("final report lost the degraded flag")
	}
	if rep.ShedBytes != int64(len(payload)) {
		t.Fatalf("final report shed %d bytes, want %d", rep.ShedBytes, len(payload))
	}
	if rep.Ingested != 4 { // 3 stalls + 1 write; overloaded/expired submissions never enqueued
		t.Fatalf("final report ingested %d ops, want 4", rep.Ingested)
	}
	if got := reg.Snapshot().Counters["host_degrades_total"]; got != 1 {
		t.Fatalf("host_degrades_total after close = %d, want still 1", got)
	}
}

// trackingGate is gateSource plus an unbuffered entry signal, so the test
// knows exactly when the worker is stalled inside a content read.
type trackingGate struct {
	entered chan struct{}
	gate    chan struct{}
}

func (g trackingGate) Content(uint64) ([]byte, error) {
	g.entered <- struct{}{}
	<-g.gate
	return nil, errors.New("gate: no content")
}

// TestSubmitResetsSaturationStreak pins that a successful (unsaturated)
// submission resets the degrade streak: intermittent pressure short of the
// threshold never degrades, no matter how long it goes on.
func TestSubmitResetsSaturationStreak(t *testing.T) {
	h := New(Config{})
	g := trackingGate{entered: make(chan struct{}), gate: make(chan struct{})}
	sess, err := h.Open("s", SessionConfig{
		Engine:       core.DefaultConfig("/docs"),
		Source:       g,
		QueueDepth:   1,
		DegradeAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stalled := func(op Op) {
		t.Helper()
		if err := sess.Submit(ctx, op); err != nil {
			t.Fatal(err)
		}
		select {
		case <-g.entered: // worker is now stalled inside the content read
		case <-time.After(5 * time.Second):
			t.Fatal("worker never reached the gate")
		}
	}
	for round := 0; round < 3; round++ {
		// Stall the worker and fill the depth-1 queue: both submissions take
		// the fast path (the worker demonstrably holds the first op), each
		// resetting the streak left by the previous round's saturation.
		stalled(closeOp(1, 1))
		if err := sess.Submit(ctx, closeOp(1, 2)); err != nil {
			t.Fatal(err)
		}
		// One saturation: streak 1, below the threshold of 2.
		if err := sess.TrySubmit(closeOp(1, 3)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("round %d: want ErrOverloaded, got %v", round, err)
		}
		if sess.Degraded() {
			t.Fatalf("round %d: degraded despite streak below threshold", round)
		}
		// Drain both ops so the next round starts from an empty queue.
		g.gate <- struct{}{}
		select {
		case <-g.entered: // worker moved on to the second op
		case <-time.After(5 * time.Second):
			t.Fatal("worker never picked up the second op")
		}
		g.gate <- struct{}{}
		if err := sess.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Degraded() {
		t.Fatal("session degraded; successful submissions must reset the streak")
	}
	if _, err := h.CloseSession(context.Background(), "s"); err != nil {
		t.Fatal(err)
	}
}

// TestSessionLifecycle covers Open/Get/CloseSession/EvictIdleSessions/
// Shutdown and the typed sentinel errors on every misuse.
func TestSessionLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := New(Config{Telemetry: reg})
	ctx := context.Background()
	mk := func(id string) *Session {
		t.Helper()
		s, err := h.Open(id, SessionConfig{Engine: core.DefaultConfig("/docs")})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk("a"), mk("b")
	mk("c")

	if _, err := h.Open("a", SessionConfig{}); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate Open = %v, want ErrSessionExists", err)
	}
	if got, ok := h.Get("a"); !ok || got != a {
		t.Fatal("Get(a) did not return the open session")
	}
	if ids := h.Sessions(); len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Fatalf("Sessions() = %v", ids)
	}
	if got := reg.Snapshot().Gauges["host_sessions_open"]; got != 3 {
		t.Fatalf("host_sessions_open = %v, want 3", got)
	}

	// Close drains and reports; the ID becomes available again.
	if err := a.Submit(ctx, writeOp(1, 1, []byte("hello"))); err != nil {
		t.Fatal(err)
	}
	rep, err := h.CloseSession(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "a" || rep.Ingested != 1 {
		t.Fatalf("close report = %+v, want ID a with 1 ingested op", rep)
	}
	if err := a.Submit(ctx, writeOp(1, 1, nil)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Submit after close = %v, want ErrSessionClosed", err)
	}
	if err := a.Flush(ctx); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Flush after close = %v, want ErrSessionClosed", err)
	}
	if _, err := h.CloseSession(context.Background(), "a"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("double Close = %v, want ErrSessionClosed", err)
	}
	if _, ok := h.Get("a"); ok {
		t.Fatal("closed session still listed")
	}
	mk("a") // ID reusable after close

	// EvictIdleSessions(0) evicts everything, final snapshots included.
	if err := b.Submit(ctx, writeOp(2, 2, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	evicted, err := h.EvictIdleSessions(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 3 {
		t.Fatalf("EvictIdleSessions(0) evicted %d sessions, want 3", len(evicted))
	}
	for _, r := range evicted {
		if r.ID == "b" && r.Ingested != 1 {
			t.Fatalf("evicted report for b = %+v, want 1 ingested op", r)
		}
	}
	if len(h.Sessions()) != 0 {
		t.Fatal("sessions remain after EvictIdleSessions(0)")
	}

	// Per-session telemetry series are unregistered on close.
	for name := range reg.Snapshot().Counters {
		if name == `host_session_events_total{session="b"}` {
			t.Fatal("per-session series survived eviction")
		}
	}

	// Shutdown: drains, reports, and the host refuses new sessions.
	mk("z")
	reports, err := h.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].ID != "z" {
		t.Fatalf("shutdown reports = %+v, want one for z", reports)
	}
	if _, err := h.Open("w", SessionConfig{}); !errors.Is(err, ErrHostClosed) {
		t.Fatalf("Open after Shutdown = %v, want ErrHostClosed", err)
	}
	if reports, err := h.Shutdown(ctx); err != nil || reports != nil {
		t.Fatalf("second Shutdown = (%v, %v), want (nil, nil)", reports, err)
	}
}

// TestShutdownContextExpiry: a stalled session makes Shutdown return the
// context error along with whatever drained in time.
func TestShutdownContextExpiry(t *testing.T) {
	h := New(Config{})
	gate := make(chan struct{})
	defer close(gate)
	sess, err := h.Open("stuck", SessionConfig{
		Engine: core.DefaultConfig("/docs"),
		Source: gateSource{gate: gate},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(context.Background(), closeOp(1, 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := h.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with stalled worker = %v, want DeadlineExceeded", err)
	}
}

// TestDirectSessionSynchronous: a direct session applies on the caller's
// goroutine with no queue, and still reports and closes cleanly.
func TestDirectSessionSynchronous(t *testing.T) {
	h := New(Config{})
	sess, err := h.Open("direct", SessionConfig{Engine: core.DefaultConfig("/docs"), Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sess.Submit(ctx, writeOp(1, 1, []byte("abc"))); err != nil {
		t.Fatal(err)
	}
	// Synchronous: the op is visible without any Flush.
	if got := sess.Engine().OpIndex(); got != 1 {
		t.Fatalf("direct session OpIndex = %d immediately after Submit, want 1", got)
	}
	rep, err := h.CloseSession(context.Background(), "direct")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ingested != 1 {
		t.Fatalf("direct session ingested %d, want 1", rep.Ingested)
	}
	if err := sess.Submit(ctx, writeOp(1, 1, nil)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Submit after close = %v, want ErrSessionClosed", err)
	}
}
