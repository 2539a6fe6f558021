// Package host multiplexes many independent detector instances through one
// process. A Host owns N Sessions — one per protected volume or tenant,
// keyed by string ID — each wrapping its own core.Engine behind a bounded
// ingest queue. Producers hand the session batches of Ops (events plus the
// content snapshots the engine will need); a per-session worker applies them
// as PreEvent/Handle pairs, so producers never block on measurement work and
// one overloaded session cannot stall its siblings.
//
// # Overload policy
//
// Events are never dropped. When a session's queue is full, Submit blocks —
// backpressure reaches the producer — and the saturation is counted. A
// sustained run of saturated submissions (SessionConfig.DegradeAfter in a
// row) degrades the session, exactly once, to payload-blind scoring: the
// worker strips read/write payload bytes (counted in shed-bytes telemetry)
// and the engine switches to the NewCipherWithoutDelta rule, the same
// scoring mode livewatch.FeederSessionConfig selects for live directories,
// whose payloads are unobservable. Detection keeps working on file-content
// measurement alone; only the payload-level entropy-delta and funneling
// signals go quiet. TrySubmit is the non-blocking variant for producers
// that would rather see ErrOverloaded than wait.
//
// # Lifecycle
//
// Open creates and starts a session; CloseSession seals its queue, drains
// it, and returns a final SessionReport (scoreboard snapshots, detections,
// ingest and degrade accounting). EvictIdleSessions closes every session
// that has been quiet longer than a deadline, and Shutdown seals all
// sessions at once. All three drain under a context. A sealed session rejects further submissions
// with ErrSessionClosed but never loses what was already queued.
//
// # Errors
//
// All failures wrap one of the package sentinels, so callers dispatch with
// errors.Is:
//
//	ErrSessionClosed   submit/flush on a session that CloseSession/EvictIdleSessions/Shutdown sealed
//	ErrOverloaded      TrySubmit found the session's ingest queue full
//	ErrSessionExists   Open with a session ID already in use
//	ErrHostClosed      Open on a host after Shutdown
//
// (The root cryptodrop package adds ErrSuspended for operations vetoed by
// enforcement.)
package host

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cryptodrop/internal/measurecache"
	"cryptodrop/internal/telemetry"
)

// The package sentinels. See the package doc for the errors table.
var (
	// ErrSessionClosed reports an operation on a sealed session.
	ErrSessionClosed = errors.New("session closed")
	// ErrOverloaded reports a non-blocking submission against a full queue.
	ErrOverloaded = errors.New("session overloaded")
	// ErrSessionExists reports an Open with an ID already in use.
	ErrSessionExists = errors.New("session already exists")
	// ErrHostClosed reports an Open after Shutdown.
	ErrHostClosed = errors.New("host closed")
)

// Default overload-policy knobs, used when the corresponding
// Config/SessionConfig fields are zero.
const (
	// DefaultQueueDepth is the per-session ingest queue capacity, in
	// batches.
	DefaultQueueDepth = 64
	// DefaultDegradeAfter is how many consecutive saturated submissions
	// degrade a session to payload-blind scoring.
	DefaultDegradeAfter = 8
)

// defaultMeasureCacheBytes bounds the memo cache a host makes for itself
// when Config.MeasureCache is nil: 16 MiB of cached measurement state.
const defaultMeasureCacheBytes = 16 << 20

// Config configures a Host. The zero value is usable: default queue depth,
// default degrade threshold, a host-owned measurement memo cache, no
// telemetry.
type Config struct {
	// QueueDepth is the default per-session ingest queue capacity in
	// batches; sessions may override it. Zero means DefaultQueueDepth.
	QueueDepth int
	// DegradeAfter is the default number of consecutive saturated
	// submissions after which a session degrades to payload-blind scoring;
	// sessions may override it. Zero means DefaultDegradeAfter; negative
	// disables degradation host-wide.
	DegradeAfter int
	// MeasureCache is the host-wide measurement memo cache: every session
	// whose SessionConfig.Engine does not name its own cache inherits this
	// one, so identical content ingested by different tenants (a fleet over
	// deduplicated corpora) is measured once host-wide. Nil gives the host
	// its own cache, bounded to 16 MiB; pass one cache to several hosts to
	// share it between them. Memoization is always on: sharing never
	// changes verdicts, because cached states are immutable and keyed by
	// content. A tenant can observe another's hit only as verdict latency.
	MeasureCache *measurecache.Cache
	// Telemetry, when set, receives the host gauges and counters:
	//
	//	host_sessions_open                               gauge
	//	host_opens_total / host_closes_total             counters
	//	host_backpressure_waits_total                    counter
	//	host_degrades_total                              counter
	//	host_session_queue_depth{session="id"}           gauge (queued sessions)
	//	host_session_degraded{session="id"}              gauge (0/1)
	//	host_session_events_total{session="id"}          counter
	//	host_session_shed_bytes_total{session="id"}      counter
	//
	// The measurement cache's counters are exported once at host level (not
	// per session, since the cache is shared):
	//
	//	host_measure_cache_hits_total / _misses_total / _evictions_total
	//	host_measure_cache_entries / _bytes / _capacity_bytes    gauges
	//
	// Per-session series are unregistered when their session closes.
	Telemetry *telemetry.Registry
	// SlowOpThreshold, when positive, arms the host's slow-op log: every
	// ingested op taking at least this long end-to-end (overlay install,
	// PreEvent, Handle, evict) is recorded in a bounded ring surfaced by
	// Snapshot / the introspection endpoint. Zero disables the log — and
	// with it the per-op clock reads — entirely.
	SlowOpThreshold time.Duration
	// CheckpointDir, when set, makes every session durable: the session
	// writes a sealed checkpoint file (<id>.ckpt) plus a write-ahead log of
	// ingested op batches (<id>.wal) under this directory. A crashed host
	// reopened with Restore recovers each session bit-identically —
	// scoreboards, detections and flight traces — by restoring the last
	// checkpoint and replaying the WAL tail. Empty (the default) disables
	// durability entirely; the ingest path then pays nothing.
	CheckpointDir string
	// CheckpointEvery, when positive, checkpoints a durable session after at
	// least this many ingested ops (at batch boundaries, where the engine is
	// quiescent) and truncates its WAL. Zero checkpoints only on session
	// close, Shutdown, and explicit Session.Checkpoint calls — the WAL alone
	// then carries recovery.
	CheckpointEvery int
	// Restore makes Open recover a session's state from an existing
	// checkpoint and WAL tail under CheckpointDir before accepting new work.
	// Open fails with an error wrapping core.ErrSnapshotMismatch when the
	// on-disk state was produced by a differently-configured pipeline, and
	// with core.ErrSnapshotCorrupt when the checkpoint is damaged (a torn
	// WAL tail, by contrast, is expected crash debris and is dropped
	// silently), and with a *WALFormatError when the WAL was written in
	// another format. Without Restore, Open starts fresh and truncates any
	// stale files for that session ID.
	Restore bool
}

// Host owns a set of detector sessions. All methods are safe for concurrent
// use. Create one with New.
type Host struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool

	// Host-wide telemetry handles (nil-safe when Config.Telemetry is nil).
	open          *telemetry.Gauge
	opens         *telemetry.Counter
	closes        *telemetry.Counter
	backpressures *telemetry.Counter
	degrades      *telemetry.Counter

	// bpCount / degCount mirror the backpressure and degrade counters in
	// plain atomics, so the introspection snapshot works without a registry.
	bpCount  atomic.Int64
	degCount atomic.Int64
	// slow is the slow-op log, nil unless Config.SlowOpThreshold is set.
	slow *slowLog
}

// New returns an empty host.
func New(cfg Config) *Host {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.DegradeAfter == 0 {
		cfg.DegradeAfter = DefaultDegradeAfter
	}
	if cfg.MeasureCache == nil {
		cfg.MeasureCache = measurecache.New(defaultMeasureCacheBytes)
	}
	h := &Host{
		cfg:           cfg,
		sessions:      make(map[string]*Session),
		open:          cfg.Telemetry.Gauge("host_sessions_open"),
		opens:         cfg.Telemetry.Counter("host_opens_total"),
		closes:        cfg.Telemetry.Counter("host_closes_total"),
		backpressures: cfg.Telemetry.Counter("host_backpressure_waits_total"),
		degrades:      cfg.Telemetry.Counter("host_degrades_total"),
	}
	if cfg.SlowOpThreshold > 0 {
		h.slow = newSlowLog(cfg.SlowOpThreshold, slowLogCapacity)
	}
	registerCacheGauges(cfg.Telemetry, cfg.MeasureCache)
	return h
}

// registerCacheGauges exports the shared measurement cache's counters as
// host-level series; registered once here, never per session, because the
// cache is shared across every session in the host.
func registerCacheGauges(reg *telemetry.Registry, c *measurecache.Cache) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("host_measure_cache_hits_total", func() float64 { return float64(c.Stats().Hits) })
	reg.GaugeFunc("host_measure_cache_misses_total", func() float64 { return float64(c.Stats().Misses) })
	reg.GaugeFunc("host_measure_cache_evictions_total", func() float64 { return float64(c.Stats().Evictions) })
	reg.GaugeFunc("host_measure_cache_entries", func() float64 { return float64(c.Stats().Entries) })
	reg.GaugeFunc("host_measure_cache_bytes", func() float64 { return float64(c.Stats().Bytes) })
	reg.GaugeFunc("host_measure_cache_capacity_bytes", func() float64 { return float64(c.Stats().Capacity) })
}

// Open creates, registers and starts the session with the given ID. It
// fails with ErrSessionExists if the ID is in use and ErrHostClosed after
// Shutdown.
func (h *Host) Open(id string, sc SessionConfig) (*Session, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("host: open %q: %w", id, ErrHostClosed)
	}
	if _, ok := h.sessions[id]; ok {
		return nil, fmt.Errorf("host: open %q: %w", id, ErrSessionExists)
	}
	s, err := newSession(h, id, sc)
	if err != nil {
		return nil, err
	}
	h.sessions[id] = s
	h.open.Set(int64(len(h.sessions)))
	h.opens.Inc()
	return s, nil
}

// Get returns the open session with the given ID.
func (h *Host) Get(id string) (*Session, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sessions[id]
	return s, ok
}

// Sessions returns the IDs of all open sessions, sorted.
func (h *Host) Sessions() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	ids := make([]string, 0, len(h.sessions))
	for id := range h.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CloseSession seals the session's queue, drains every queued batch, removes
// the session from the host and returns its final report. The drain wait is
// bounded by ctx: on expiry the session stays sealed and keeps draining in
// the background, but no report is returned. It fails with ErrSessionClosed
// if no session has that ID.
func (h *Host) CloseSession(ctx context.Context, id string) (SessionReport, error) {
	s, err := h.detach(id)
	if err != nil {
		return SessionReport{}, err
	}
	s.seal()
	select {
	case <-s.drained():
	case <-ctx.Done():
		return SessionReport{}, fmt.Errorf("host: close %q: %w", id, ctx.Err())
	}
	return s.finalReport(), nil
}

// detach removes the session from the registry (so its ID is immediately
// reusable) and drops its per-session telemetry series.
func (h *Host) detach(id string) (*Session, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sessions[id]
	if !ok {
		return nil, fmt.Errorf("host: close %q: %w", id, ErrSessionClosed)
	}
	delete(h.sessions, id)
	h.open.Set(int64(len(h.sessions)))
	h.closes.Inc()
	s.unregisterTelemetry()
	return s, nil
}

// EvictIdleSessions closes every session that has not ingested an event for
// at least idle, returning the final reports of the sessions that drained
// (sorted by session ID). Pass zero idle to evict everything. The drain
// waits are bounded by ctx: on expiry the already-drained reports return
// alongside ctx.Err(), and the remaining victims — sealed either way — keep
// draining in the background.
func (h *Host) EvictIdleSessions(ctx context.Context, idle time.Duration) ([]SessionReport, error) {
	cutoff := time.Now().Add(-idle).UnixNano()
	h.mu.Lock()
	var victims []*Session
	for id, s := range h.sessions {
		if s.lastActive.Load() <= cutoff {
			victims = append(victims, s)
			delete(h.sessions, id)
			s.unregisterTelemetry()
		}
	}
	h.open.Set(int64(len(h.sessions)))
	h.mu.Unlock()

	for _, s := range victims {
		s.seal()
	}
	var err error
	reports := make([]SessionReport, 0, len(victims))
	for _, s := range victims {
		h.closes.Inc()
		select {
		case <-s.drained():
			reports = append(reports, s.finalReport())
		case <-ctx.Done():
			err = fmt.Errorf("host: evict idle: %w", ctx.Err())
		}
		if err != nil {
			break
		}
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	return reports, err
}

// Shutdown seals every session at once (so their workers drain in
// parallel), waits for the queues to empty, and returns the final reports
// sorted by session ID. If ctx expires first it returns the reports of the
// sessions that finished draining alongside ctx.Err(); undrained workers
// keep running in the background, but the host accepts no new work either
// way. Shutdown is idempotent; later calls return (nil, nil).
func (h *Host) Shutdown(ctx context.Context) ([]SessionReport, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, nil
	}
	h.closed = true
	victims := make([]*Session, 0, len(h.sessions))
	for id, s := range h.sessions {
		victims = append(victims, s)
		delete(h.sessions, id)
		s.unregisterTelemetry()
	}
	h.open.Set(0)
	h.mu.Unlock()

	for _, s := range victims {
		s.seal()
	}
	var reports []SessionReport
	for _, s := range victims {
		select {
		case <-s.drained():
			h.closes.Inc()
			reports = append(reports, s.finalReport())
		case <-ctx.Done():
			sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
			return reports, fmt.Errorf("host: shutdown: %w", ctx.Err())
		}
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	return reports, nil
}
