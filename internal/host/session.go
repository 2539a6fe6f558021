package host

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cryptodrop/internal/core"
	"cryptodrop/internal/snapshot"
	"cryptodrop/internal/telemetry"
)

// SessionConfig configures one detector session.
type SessionConfig struct {
	// Engine is the detection-engine configuration; the session builds its
	// own core.Engine from it. Telemetry, flight recorder and the detection
	// callback all pass through untouched.
	Engine core.Config
	// QueueDepth overrides the host's per-session queue capacity, in
	// batches. Zero inherits the host default.
	QueueDepth int
	// DegradeAfter overrides how many consecutive saturated submissions
	// degrade the session to payload-blind scoring. Zero inherits the host
	// default; negative disables degradation for this session.
	DegradeAfter int
	// Direct disables the ingest queue: Submit applies ops synchronously on
	// the caller's goroutine and backpressure/degradation never engage.
	// This is the mode the single-session cryptodrop.Monitor runs in, where
	// the producer is the filesystem interposition layer itself and scoring
	// must be ordered exactly with the operation stream.
	Direct bool
	// Recoverer, if set, arms detect-then-recover: each detection triggers
	// one rollback of the convicted group (after the Engine.OnDetection
	// callback, so enforcement runs first), the outcome is appended to the
	// session report and stamped into the detection's audit bundle, and
	// groups that finish the session without a verdict are exonerated via
	// Engine.OnExonerate when the session drains.
	Recoverer Recoverer
}

// Op is one unit of ingest work: a backend-neutral engine event plus the
// content snapshots the engine needs to score it. Because application is
// deferred, the producer's world may have moved on by the time the worker
// runs — so every byte the engine should see travels inside the Op, and the
// engine reads it only while that op is applied:
//
//	Engine.PreEvent reads Pre → Engine.Handle reads Post, then Pre
//
// Pre therefore carries pre-operation content (what PreEvent snapshots:
// the version about to be destroyed) and Post carries post-operation
// content (what Handle measures: the completed transformation). Nothing
// staged outlives its op: an ID the op did not stage reads as missing.
// Engine.PreEvent ignores a zero-Kind event, so an Op whose PreEvent has a
// zero Kind runs only Handle: the second of the two ops cryptodrop.Monitor
// submits per operation, one before it mutates the file and one after.
type Op struct {
	// Event is the operation handed to Engine.Handle. An Op with a zero
	// Event.Kind runs only its PreEvent side — a baseline-only op, used to
	// snapshot a file's previous version without scoring anything (what
	// livewatch.Feeder.Prime submits).
	Event core.Event
	// PreEvent, when non-nil, is handed to Engine.PreEvent instead of
	// Event. Producers use it when the two sides of the pair differ — e.g.
	// a truncating open whose PreEvent must carry the pre-truncation size.
	PreEvent *core.Event
	// Pre maps file ID → content PreEvent and Handle read.
	Pre map[uint64][]byte
	// Post maps file ID → content Handle reads, ahead of Pre.
	Post map[uint64][]byte
}

// SessionReport is the final snapshot returned when a session closes.
type SessionReport struct {
	// ID is the session's host-assigned identifier.
	ID string
	// Reports are the per-process scoreboard snapshots, ordered by PID.
	Reports []core.ProcessReport
	// Detections are all detections the session fired, in occurrence order.
	Detections []core.Detection
	// Degraded reports whether the session ended in payload-blind mode.
	Degraded bool
	// Ingested counts ops applied to the engine.
	Ingested int64
	// ShedBytes counts payload bytes stripped after degradation.
	ShedBytes int64
	// Recoveries are the rollback outcomes of every detection-triggered
	// recovery, in detection order (empty without a Recoverer).
	Recoveries []RecoveryOutcome
}

// batch is one queue element: a slice of ops, or a flush/checkpoint marker.
type batch struct {
	ops []Op
	// flushed, when non-nil, marks a barrier: the worker closes it once
	// every earlier batch has been applied.
	flushed chan struct{}
	// ckpt, when non-nil, asks the worker to checkpoint between batches
	// (where the engine is quiescent) and report the result.
	ckpt chan error
	// enq is the submission time, stamped only when the session has a span
	// tracer — it feeds the queue-wait span, and staying zero otherwise keeps
	// the clock read off the untraced ingest path.
	enq time.Time
}

// Session is one detector instance inside a Host: a core.Engine, the
// content of the op it is applying, and (unless Direct) a bounded ingest
// queue drained by a single worker goroutine. All methods are safe for
// concurrent use, but the engine's ordering contract still binds producers:
// events for one scoring group must be submitted in operation order from
// one goroutine (distinct groups may use distinct goroutines against the
// same session).
type Session struct {
	id   string
	host *Host
	eng  *core.Engine
	// staged is the engine's ContentSource: the content of the op being
	// applied, touched only on the applying goroutine.
	staged opContent

	direct       bool
	directMu     sync.Mutex
	degradeAfter int

	// qmu guards closed against the queue closing: Submit holds the read
	// side across its (possibly blocking) send, so seal's write lock cannot
	// proceed while any sender is in flight — close(queue) never races a
	// send. Workers drain the queue independently, so blocked senders
	// always finish. Direct sessions have no queue and read closed alone.
	qmu    sync.RWMutex
	closed atomic.Bool
	queue  chan batch
	done   chan struct{}

	satStreak  atomic.Int32
	degraded   atomic.Bool
	ingested   atomic.Int64
	shedBytes  atomic.Int64
	lastActive atomic.Int64

	// actMu guards seenIngested, the op count activeAt last saw: activity
	// is dated when observed, so applying an op reads no clock.
	actMu        sync.Mutex
	seenIngested int64

	// saturations counts submissions (blocking or not) that found the queue
	// full; detCount and lastDet track the session's detections for the
	// introspection snapshot.
	saturations atomic.Int64
	detCount    atomic.Int64
	lastDet     atomic.Pointer[LastDetection]

	// spans, when non-nil, is the engine's span tracer; the session adds the
	// ingest-side queue-wait span to the causal picture the engine records.
	spans *telemetry.SpanTracer

	// recoveries accumulates rollback outcomes in detection order; recLatest
	// keeps the most recent outcome per group for the audit-bundle stamp.
	// Both are guarded by recMu (detections may fire from any submitting
	// goroutine).
	recMu      sync.Mutex
	recoveries []RecoveryOutcome
	recLatest  map[int]RecoveryOutcome

	// Durability (Config.CheckpointDir). ckptPath empty means the session is
	// not durable. wal and sinceCkpt are touched only on the applying
	// goroutine — the worker for queued sessions, under directMu for direct
	// ones — so they need no further locking; durErr records the first
	// durability I/O failure for any goroutine to read.
	ckptPath        string
	walPath         string
	checkpointEvery int
	wal             *os.File
	sinceCkpt       int
	durMu           sync.Mutex
	durErr          error

	// Per-session telemetry handles (nil-safe).
	events   *telemetry.Counter
	shed     *telemetry.Counter
	degGauge *telemetry.Gauge
	// telNames lists the registered per-session series for cleanup.
	telNames []string
}

func newSession(h *Host, id string, sc SessionConfig) (*Session, error) {
	depth := sc.QueueDepth
	if depth <= 0 {
		depth = h.cfg.QueueDepth
	}
	degradeAfter := sc.DegradeAfter
	if degradeAfter == 0 {
		degradeAfter = h.cfg.DegradeAfter
	}
	s := &Session{
		id:           id,
		host:         h,
		direct:       sc.Direct,
		degradeAfter: degradeAfter,
		done:         make(chan struct{}),
	}
	if sc.Engine.MeasureCache == nil {
		// Sessions inherit the host-wide memo cache unless they bring their
		// own.
		sc.Engine.MeasureCache = h.cfg.MeasureCache
	}
	if sc.Engine.SessionID == "" {
		// Audit bundles from this engine carry the host's session ID unless
		// the caller claimed a different one.
		sc.Engine.SessionID = id
	}
	s.spans = sc.Engine.SpanTracer
	// The introspection snapshot reports each session's last detection; the
	// wrapper observes and forwards, never filters, so the caller's callback
	// semantics are untouched.
	inner := sc.Engine.OnDetection
	rec := sc.Recoverer
	sc.Engine.OnDetection = func(d core.Detection) {
		s.detCount.Add(1)
		s.lastDet.Store(&LastDetection{
			PID: d.PID, Score: d.Score, Union: d.Union,
			OpIndex: d.OpIndex, AtNs: time.Now().UnixNano(),
		})
		if inner != nil {
			inner(d)
		}
		if rec != nil {
			// Rollback runs after the caller's callback so enforcement
			// (suspending the convicted family) precedes recovery — the
			// detect-then-recover order of the paper's containment story.
			out := rec.Recover(d.PID)
			s.recMu.Lock()
			s.recoveries = append(s.recoveries, out)
			s.recLatest[d.PID] = out
			s.recMu.Unlock()
		}
	}
	if rec != nil {
		s.recLatest = make(map[int]RecoveryOutcome)
		if sink := sc.Engine.AuditSink; sink != nil {
			// The engine emits each bundle right after OnDetection returns,
			// so the group's rollback outcome is already recorded when the
			// stamping sink sees it.
			sc.Engine.AuditSink = &recoveryStampSink{s: s, inner: sink}
		}
	}
	s.eng = core.New(sc.Engine, &s.staged)
	s.lastActive.Store(time.Now().UnixNano())

	if reg := h.cfg.Telemetry; reg != nil {
		label := `{session="` + id + `"}`
		s.telNames = []string{
			"host_session_events_total" + label,
			"host_session_shed_bytes_total" + label,
			"host_session_degraded" + label,
		}
		s.events = reg.Counter(s.telNames[0])
		s.shed = reg.Counter(s.telNames[1])
		s.degGauge = reg.Gauge(s.telNames[2])
		if !s.direct {
			qname := "host_session_queue_depth" + label
			s.telNames = append(s.telNames, qname)
			q := make(chan batch, depth)
			s.queue = q
			reg.GaugeFunc(qname, func() float64 { return float64(len(q)) })
		}
	}
	if !s.direct && s.queue == nil {
		s.queue = make(chan batch, depth)
	}
	if dir := h.cfg.CheckpointDir; dir != "" {
		if err := s.openDurable(dir, h.cfg.CheckpointEvery, h.cfg.Restore); err != nil {
			s.unregisterTelemetry()
			return nil, err
		}
	}
	if s.direct {
		close(s.done)
	} else {
		go s.worker()
	}
	return s, nil
}

// activeAt returns when the session was last seen ingesting: now, if its op
// count moved since the previous check, so idleness is never overstated.
func (s *Session) activeAt(now int64) int64 {
	s.actMu.Lock()
	defer s.actMu.Unlock()
	if n := s.ingested.Load(); n != s.seenIngested {
		s.seenIngested = n
		s.lastActive.Store(now)
	}
	return s.lastActive.Load()
}

// openDurable arms the session's checkpoint/WAL machinery and, when restore
// is set, recovers state from disk: restore the last checkpoint (verifying
// the pipeline identity first), replay the WAL tail through the engine, and
// immediately write a merged checkpoint so the WAL starts empty. Detections
// in the replayed tail re-fire OnDetection — at-least-once across a crash —
// while checkpointed detections never re-fire (their processes carry the
// detected latch). Runs before the worker starts, so the engine is private
// to this goroutine.
func (s *Session) openDurable(dir string, every int, restore bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("host: session %q: checkpoint dir: %w", s.id, err)
	}
	s.ckptPath, s.walPath = checkpointPaths(dir, s.id)
	s.checkpointEvery = every

	var records []walRecord
	if restore {
		var err error
		if records, err = readWAL(s.walPath); err != nil {
			return fmt.Errorf("host: restore session %q: %w", s.id, err)
		}
	} else {
		// Fresh start: drop any stale state under this session ID.
		os.Remove(s.ckptPath)
	}
	wal, err := os.OpenFile(s.walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("host: session %q: open wal: %w", s.id, err)
	}
	s.wal = wal
	if !restore {
		if err := s.resetWAL(); err != nil {
			wal.Close()
			return fmt.Errorf("host: session %q: reset wal: %w", s.id, err)
		}
		return nil
	}

	base := int64(0)
	if data, err := os.ReadFile(s.ckptPath); err == nil {
		c, cerr := decodeCheckpoint(data, s.checkpointIdentity())
		if cerr != nil {
			wal.Close()
			return fmt.Errorf("host: restore session %q: %w", s.id, cerr)
		}
		if rerr := s.eng.Restore(c.engine); rerr != nil {
			wal.Close()
			return fmt.Errorf("host: restore session %q: %w", s.id, rerr)
		}
		s.ingested.Store(c.ingested)
		s.shedBytes.Store(c.shedBytes)
		s.saturations.Store(c.saturations)
		s.detCount.Store(c.detCount)
		if c.degraded {
			// The degrade latch is one-way; restore it before any replayed
			// op so payload shedding resumes exactly where it stopped.
			s.degraded.Store(true)
			s.eng.SetPayloadBlind(true)
			s.degGauge.Set(1)
		}
		base = c.ingested
	} else if !os.IsNotExist(err) {
		wal.Close()
		return fmt.Errorf("host: restore session %q: %w", s.id, err)
	}

	// Replay the WAL tail: records fully covered by the checkpoint are
	// skipped; a record the checkpoint split mid-batch replays only its
	// uncovered suffix.
	for _, rec := range records {
		if rec.start+int64(len(rec.ops)) <= base {
			continue
		}
		ops := rec.ops
		if rec.start < base {
			ops = ops[base-rec.start:]
		}
		s.run(ops)
	}
	// Merge the recovered state into a fresh checkpoint so the WAL resets;
	// a failure here is a refusal to open (recovery must leave disk clean).
	if err := s.checkpointNow(); err != nil {
		wal.Close()
		return fmt.Errorf("host: restore session %q: %w", s.id, err)
	}
	return nil
}

// checkpointIdentity is the sealed identity of this session's checkpoints:
// the checkpoint format version folded with the engine's snapshot version,
// plus the engine's registry and config fingerprints. A checkpoint from a
// build with another engine format is refused with snapshot.ErrVersion
// before its fingerprints are compared.
func (s *Session) checkpointIdentity() snapshot.Header {
	return s.eng.SnapshotIdentity().Wrap(hostSnapshotVersion)
}

// checkpointNow captures and commits a checkpoint, then truncates the WAL.
// Must run with the engine quiescent: on the worker between batches, under
// directMu, or before the worker starts.
func (s *Session) checkpointNow() error {
	if s.ckptPath == "" {
		return nil
	}
	blob, err := s.eng.Snapshot()
	if err != nil {
		return err
	}
	sealed := encodeCheckpoint(s.checkpointIdentity(), &sessionCheckpoint{
		degraded:    s.degraded.Load(),
		ingested:    s.ingested.Load(),
		shedBytes:   s.shedBytes.Load(),
		saturations: s.saturations.Load(),
		detCount:    s.detCount.Load(),
		engine:      blob,
	})
	if err := writeCheckpointFile(s.ckptPath, sealed); err != nil {
		return err
	}
	if s.wal != nil {
		// The checkpoint covers everything the WAL holds; truncating is pure
		// garbage collection.
		if err := s.resetWAL(); err != nil {
			return err
		}
	}
	s.sinceCkpt = 0
	return nil
}

// resetWAL empties the log down to its header. O_APPEND writes restart at
// offset 0 after the truncate.
func (s *Session) resetWAL() error {
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	_, err := s.wal.Write(walHeader)
	return err
}

// appendWAL appends one batch record to the log. The record is encoded
// into one exactly-sized allocation that is garbage once written: a buffer
// kept per session, or pooled across them, would hold a batch-sized
// allocation live for as long as the sessions stay open.
func (s *Session) appendWAL(ops []Op) error {
	_, err := s.wal.Write(AppendBatch(nil, s.ingested.Load(), ops))
	return err
}

// noteDurErr records the first durability failure.
func (s *Session) noteDurErr(err error) {
	if err == nil {
		return
	}
	s.durMu.Lock()
	if s.durErr == nil {
		s.durErr = err
	}
	s.durMu.Unlock()
}

// DurabilityErr returns the first checkpoint/WAL I/O failure the session
// has hit, or nil. Scoring is never interrupted by a durability failure;
// callers that need the crash-recovery guarantee poll this (or use the
// error returned by an explicit Checkpoint call).
func (s *Session) DurabilityErr() error {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	return s.durErr
}

// Checkpoint captures and commits a checkpoint of the session's complete
// state and truncates its WAL, blocking until the checkpoint is durably on
// disk or ctx expires. For queued sessions the checkpoint runs on the
// worker between batches — after every op queued before the call. A no-op
// returning nil when the host has no CheckpointDir.
func (s *Session) Checkpoint(ctx context.Context) error {
	if s.ckptPath == "" {
		return nil
	}
	if s.direct {
		s.directMu.Lock()
		defer s.directMu.Unlock()
		if s.closed.Load() {
			return fmt.Errorf("host: session %q: checkpoint: %w", s.id, ErrSessionClosed)
		}
		return s.checkpointNow()
	}
	s.qmu.RLock()
	if s.closed.Load() {
		s.qmu.RUnlock()
		return fmt.Errorf("host: session %q: checkpoint: %w", s.id, ErrSessionClosed)
	}
	marker := batch{ckpt: make(chan error, 1)}
	select {
	case s.queue <- marker:
		s.qmu.RUnlock()
	case <-ctx.Done():
		s.qmu.RUnlock()
		return fmt.Errorf("host: session %q: checkpoint: %w", s.id, ctx.Err())
	}
	select {
	case err := <-marker.ckpt:
		return err
	case <-ctx.Done():
		return fmt.Errorf("host: session %q: checkpoint: %w", s.id, ctx.Err())
	}
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Engine exposes the session's detection engine, for state the session
// does not report itself. Ops reach it through Submit.
func (s *Session) Engine() *core.Engine { return s.eng }

// Degraded reports whether the session has degraded to payload-blind
// scoring. Degradation is one-way.
func (s *Session) Degraded() bool { return s.degraded.Load() }

// Ingested returns the number of ops applied to the engine so far. A
// session opened with Restore resumes the count where its previous life
// left off, so this is also the durable op position a recovery landed at.
func (s *Session) Ingested() int64 { return s.ingested.Load() }

// Submit queues ops for application, blocking when the session's queue is
// full — that block is the backpressure the overload policy promises, and
// ctx bounds it. A sustained streak of saturated submissions degrades the
// session to payload-blind scoring (see the package doc). In Direct mode
// the ops are applied synchronously before Submit returns.
func (s *Session) Submit(ctx context.Context, ops ...Op) error { return s.submit(ctx, ops, true) }

// TrySubmit queues ops without blocking, failing with ErrOverloaded when
// the queue is full. Overloads count toward the degradation streak just
// like blocking waits. In Direct mode it behaves exactly like Submit.
func (s *Session) TrySubmit(ops ...Op) error { return s.submit(context.Background(), ops, false) }

// submit applies ops (Direct) or queues a copy of them, so that ops never
// escape and a direct submitter passing one op allocates nothing. A full
// queue is a saturation: with wait it blocks until the worker makes room or
// ctx ends, and without it fails with ErrOverloaded.
func (s *Session) submit(ctx context.Context, ops []Op, wait bool) error {
	if len(ops) == 0 {
		return nil
	}
	if s.direct {
		return s.submitDirect(ops)
	}
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed.Load() {
		return fmt.Errorf("host: session %q: %w", s.id, ErrSessionClosed)
	}
	b := batch{ops: append([]Op(nil), ops...)}
	if s.spans != nil {
		b.enq = time.Now()
	}
	select {
	case s.queue <- b:
		s.satStreak.Store(0)
		return nil
	default:
	}
	if wait {
		s.host.backpressures.Inc()
		s.host.bpCount.Add(1)
	}
	s.noteSaturation()
	if !wait {
		return fmt.Errorf("host: session %q: %w", s.id, ErrOverloaded)
	}
	select {
	case s.queue <- b:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("host: session %q: submit: %w", s.id, ctx.Err())
	}
}

// submitDirect applies ops inline. The mutex serialises concurrent direct
// submitters so the staged content of two ops cannot interleave.
func (s *Session) submitDirect(ops []Op) error {
	s.directMu.Lock()
	defer s.directMu.Unlock()
	if s.closed.Load() {
		return fmt.Errorf("host: session %q: %w", s.id, ErrSessionClosed)
	}
	s.apply(ops)
	return nil
}

// noteSaturation records one saturated submission and fires the one-shot
// degrade transition when the streak crosses the threshold.
func (s *Session) noteSaturation() {
	s.saturations.Add(1)
	if s.degradeAfter < 0 {
		return
	}
	if int(s.satStreak.Add(1)) < s.degradeAfter {
		return
	}
	if !s.degraded.CompareAndSwap(false, true) {
		return
	}
	// Exactly-once: flip the engine to payload-blind scoring and record
	// the decision.
	s.eng.SetPayloadBlind(true)
	s.host.degrades.Inc()
	s.host.degCount.Add(1)
	s.degGauge.Set(1)
}

// Flush blocks until every op queued before the call has been applied, or
// ctx expires. Direct sessions apply each op before Submit returns.
func (s *Session) Flush(ctx context.Context) error {
	if s.direct {
		if s.closed.Load() {
			return fmt.Errorf("host: session %q: flush: %w", s.id, ErrSessionClosed)
		}
		return nil
	}
	s.qmu.RLock()
	if s.closed.Load() {
		s.qmu.RUnlock()
		return fmt.Errorf("host: session %q: flush: %w", s.id, ErrSessionClosed)
	}
	marker := batch{flushed: make(chan struct{})}
	select {
	case s.queue <- marker:
		s.qmu.RUnlock()
	case <-ctx.Done():
		s.qmu.RUnlock()
		return fmt.Errorf("host: session %q: flush: %w", s.id, ctx.Err())
	}
	select {
	case <-marker.flushed:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("host: session %q: flush: %w", s.id, ctx.Err())
	}
}

// Report returns the scoreboard snapshot for pid. It reflects only ops the
// worker has already applied; call Flush first for an up-to-date view.
func (s *Session) Report(pid int) (core.ProcessReport, bool) { return s.eng.Report(pid) }

// Reports returns snapshots for every scored process, ordered by PID.
func (s *Session) Reports() []core.ProcessReport { return s.eng.Reports() }

// Detections returns the session's detections in occurrence order.
func (s *Session) Detections() []core.Detection { return s.eng.Detections() }

// DetectionCount returns how many detections the session has raised,
// including those restored from a checkpoint, without flushing the engine.
// It counts only ops the worker has already applied, like Report.
func (s *Session) DetectionCount() int64 { return s.detCount.Load() }

// seal marks the session closed and, for queued sessions, closes the queue
// so the worker exits after draining. The write lock cannot be acquired
// while any submitter holds the read side, so no send can race the close.
func (s *Session) seal() {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.closed.Load() {
		return
	}
	s.closed.Store(true)
	if !s.direct {
		close(s.queue)
	}
}

// drained returns a channel closed once the worker has applied every queued
// batch and exited (immediately for direct sessions).
func (s *Session) drained() <-chan struct{} { return s.done }

// finalReport snapshots the session after its queue has drained, committing
// a final checkpoint (and releasing the WAL handle) for durable sessions so
// a clean close restores without any replay. Scoring groups that reach this
// point without a detection are exonerated (Engine.OnExonerate) — the
// session is over, their run was clean, so retained pre-images are released
// whether the session closed deliberately or was idle-evicted.
func (s *Session) finalReport() SessionReport {
	s.eng.ExonerateUndetected()
	if s.ckptPath != "" {
		s.noteDurErr(s.checkpointNow())
		if s.wal != nil {
			s.wal.Close()
			s.wal = nil
		}
	}
	return SessionReport{
		ID:         s.id,
		Reports:    s.eng.Reports(),
		Detections: s.eng.Detections(),
		Degraded:   s.degraded.Load(),
		Ingested:   s.ingested.Load(),
		ShedBytes:  s.shedBytes.Load(),
		Recoveries: s.Recoveries(),
	}
}

// Recoveries returns the rollback outcomes recorded so far, in detection
// order (empty without a SessionConfig.Recoverer).
func (s *Session) Recoveries() []RecoveryOutcome {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	out := make([]RecoveryOutcome, len(s.recoveries))
	copy(out, s.recoveries)
	return out
}

// unregisterTelemetry drops the per-session series from the host registry.
func (s *Session) unregisterTelemetry() {
	for _, name := range s.telNames {
		s.host.cfg.Telemetry.Unregister(name)
	}
}

// worker drains the queue, applying batches in submission order. When the
// session is traced, the time a sampled batch spent enqueued becomes an
// ingest-lane queue-wait span — the leading edge of the causal picture the
// engine's dispatch/measure/award spans complete.
func (s *Session) worker() {
	defer close(s.done)
	for b := range s.queue {
		if b.flushed != nil {
			close(b.flushed)
			continue
		}
		if b.ckpt != nil {
			b.ckpt <- s.checkpointNow()
			continue
		}
		if !b.enq.IsZero() && s.spans.Sample() {
			s.spans.Record(telemetry.Span{
				Name: "queue-wait", Cat: "ingest", Lane: s.id,
				Detail: fmt.Sprintf("ops=%d depth=%d", len(b.ops), len(s.queue)),
			}, b.enq, time.Since(b.enq))
		}
		s.apply(b.ops)
	}
}

// apply ingests one batch: for durable sessions the batch is first appended
// to the write-ahead log (write-ahead: a crash after the append but before
// application replays the batch on recovery), then run through the engine,
// then counted toward the checkpoint interval. Durability I/O failures are
// recorded (DurabilityErr) but never interrupt scoring.
func (s *Session) apply(ops []Op) {
	if s.wal != nil {
		s.noteDurErr(s.appendWAL(ops))
	}
	s.run(ops)
	if s.ckptPath != "" {
		s.sinceCkpt += len(ops)
		if s.checkpointEvery > 0 && s.sinceCkpt >= s.checkpointEvery {
			s.noteDurErr(s.checkpointNow())
		}
	}
}

// run applies one batch through the engine. After degradation it strips
// read/write payloads, counting every shed byte, before the event reaches
// the scoreboard.
func (s *Session) run(ops []Op) {
	sl := s.host.slow
	for i := range ops {
		op := &ops[i]
		if sl == nil {
			s.applyOne(op)
			continue
		}
		t0 := time.Now()
		s.applyOne(op)
		if d := time.Since(t0); d >= sl.threshold {
			sl.note(s.id, op, d, t0)
		}
	}
	s.ingested.Add(int64(len(ops)))
	s.events.Add(int64(len(ops)))
}

// applyOne runs a single op through the engine, enforcing the Op contract:
// PreEvent sees only Pre, Handle sees Post over Pre, and neither outlives
// the op.
func (s *Session) applyOne(op *Op) {
	s.staged.pre = op.Pre
	if pre := op.PreEvent; pre == nil {
		s.eng.PreEvent(op.Event)
	} else if pre.Kind != 0 {
		s.eng.PreEvent(*pre)
	}
	s.staged.post = op.Post
	if ev := op.Event; ev.Kind != 0 {
		if s.degraded.Load() && len(ev.Data) > 0 && (ev.Kind == core.EvRead || ev.Kind == core.EvWrite) {
			n := int64(len(ev.Data))
			s.shedBytes.Add(n)
			s.shed.Add(n)
			ev.Data = nil
		}
		s.eng.Handle(ev)
	}
	s.staged = opContent{}
}

// opContent serves the engine the content staged by the op being applied:
// Post first, then Pre.
type opContent struct{ pre, post map[uint64][]byte }

// Content implements core.ContentSource.
func (c *opContent) Content(id uint64) ([]byte, error) {
	if b, ok := c.post[id]; ok {
		return b, nil
	}
	if b, ok := c.pre[id]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("host: no staged content for file %d", id)
}
