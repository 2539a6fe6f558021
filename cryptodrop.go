// Package cryptodrop is an early-warning detection system for encrypting
// ransomware, reproducing "CryptoLock (and Drop It): Stopping Ransomware
// Attacks on User Data" (Scaife, Carter, Traynor, Butler — ICDCS 2016).
//
// A Monitor attaches the CryptoDrop analysis engine to a virtual filesystem
// through a minifilter chain, watches every read, write, rename and delete
// under the user's protected documents tree, and scores each process on a
// reputation scoreboard built from three primary indicators (file type
// change, similarity loss, entropy delta) and two secondary ones (bulk
// deletion, file-type funneling). When a process crosses its detection
// threshold, the monitor suspends the process family's disk access and
// reports the detection.
//
// Quickstart:
//
//	fsys := vfs.New()
//	corpus.Build(fsys, corpus.Spec{Seed: 1})
//	procs := proc.NewTable()
//	mon, err := cryptodrop.NewMonitor(fsys, procs)
//	// ... run workloads; consult mon.Detections() / mon.Report(pid).
//
// A Monitor is a thin convenience over the multi-session Host: it opens one
// direct (unqueued) session and wires it to the filesystem's filter chain.
// Services that watch many volumes or tenants use NewHost directly — each
// Host session is an independent engine behind a bounded ingest queue with
// backpressure and graceful degradation; see the internal/host package doc,
// mirrored here through the Host/Session/SessionConfig/Op aliases.
//
// # Errors
//
// Failures wrap typed sentinels, so callers dispatch with errors.Is:
//
//	ErrSuspended          operation vetoed: the acting process family is suspended pending review
//	ErrSessionClosed      submit/flush on a host session that was closed or evicted
//	ErrOverloaded         non-blocking submit found a session's ingest queue full
//	ErrSessionExists      Host.Open with a session ID already in use
//	ErrHostClosed         Host.Open after Shutdown
//	ErrSnapshotMismatch   restore refused: the snapshot was sealed under a different indicator registry or scoring configuration
//	ErrSnapshotCorrupt    restore refused: snapshot bytes fail structural or checksum validation
//	ErrUnauthorized       detection service: the request's bearer token matched no configured tenant
//	ErrRateLimited        detection service: the tenant's ingest budget is spent; retry after the interval the response names
//
// The service sentinels round-trip the wire: a remote producer using the
// ingest client gets the same errors.Is behaviour as an in-process caller
// (ErrOverloaded on a saturated queue, ErrSessionClosed on a gone session,
// and so on). Lifecycle methods are context-first: Monitor.Shutdown,
// Host.CloseSession and Host.EvictIdleSessions bound their drains by a
// context.
package cryptodrop

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cryptodrop/internal/audit"
	"cryptodrop/internal/core"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/filter"
	"cryptodrop/internal/host"
	"cryptodrop/internal/indicator"
	"cryptodrop/internal/measurecache"
	"cryptodrop/internal/policy"
	"cryptodrop/internal/proc"
	"cryptodrop/internal/recovery"
	"cryptodrop/internal/server/wire"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
	"cryptodrop/internal/vfs/versioned"
	"cryptodrop/internal/vfsadapter"
)

// ErrSuspended is returned to a process whose disk access CryptoDrop has
// suspended pending user review.
var ErrSuspended = errors.New("cryptodrop: process suspended pending user review")

// Sentinel errors of the hosting layer, re-exported so embedders need only
// this package. See the package-doc errors table.
var (
	ErrSessionClosed = host.ErrSessionClosed
	ErrOverloaded    = host.ErrOverloaded
	ErrSessionExists = host.ErrSessionExists
	ErrHostClosed    = host.ErrHostClosed
)

// Sentinel errors of the detection service (cmd/cdserver and its ingest
// client): admission refusals a remote producer dispatches on. Both are
// carried across the wire as typed codes, so errors.Is works identically on
// either side of the connection.
var (
	ErrUnauthorized = wire.ErrUnauthorized
	ErrRateLimited  = wire.ErrRateLimited
)

// Sentinel errors of the durability layer (WithCheckpoint,
// HostConfig.CheckpointDir): a refused restore dispatches on these with
// errors.Is. A mismatch additionally carries the diverging identity field
// ("registry" or "config") retrievable via errors.As on
// *snapshot.MismatchError.
var (
	ErrSnapshotMismatch = core.ErrSnapshotMismatch
	ErrSnapshotCorrupt  = core.ErrSnapshotCorrupt
)

// Re-exported engine types forming the public API surface.
type (
	// Detection reports a process crossing its detection threshold.
	Detection = core.Detection
	// Indicator identifies a behavioural indicator.
	Indicator = core.Indicator
	// ProcessReport is a scoreboard snapshot for one process.
	ProcessReport = core.ProcessReport
	// ScorePoint is one step of a process's score trajectory.
	ScorePoint = core.ScorePoint
	// Points are the per-indicator score values.
	Points = core.Points
	// EngineConfig is the full detection-engine configuration, for host
	// sessions built without the Monitor option helpers.
	EngineConfig = core.Config
	// Event is one backend-neutral file operation, the unit every engine
	// backend produces.
	Event = core.Event
	// EventKind identifies the operation an Event describes.
	EventKind = core.EventKind
	// EventFlag carries open-intent bits on create/open events.
	EventFlag = core.EventFlag
	// MeasureCache is a bounded content-hash measurement memo cache,
	// shareable across engines and host sessions. Create with
	// NewMeasureCache.
	MeasureCache = measurecache.Cache
	// MeasureCacheStats is a point-in-time snapshot of a MeasureCache's
	// hit/miss/eviction counters and occupancy.
	MeasureCacheStats = measurecache.Stats
	// SpanTracer is the sampling causal span tracer behind WithSpanTracer;
	// create with NewSpanTracer, export with its WriteChromeTrace.
	SpanTracer = telemetry.SpanTracer
	// AuditSink receives one AuditBundle per detection (WithAuditSink).
	AuditSink = audit.Sink
	// AuditBundle is the self-contained record of one detection: score
	// composition, causal firing history, touched files, engine and registry
	// identity, measurement state.
	AuditBundle = audit.Bundle
	// VersionStore retains copied pre-images of files modified by
	// not-yet-cleared process groups, out of reach of shadow-copy deletion.
	// Create with NewVersionStore and arm with WithRecovery.
	VersionStore = versioned.Store
	// VersionStoreStats is a snapshot of a VersionStore's retention state.
	VersionStoreStats = versioned.Stats
	// RecoveryOutcome summarises one detection-triggered rollback; see
	// Monitor.Recoveries and SessionReport.Recoveries.
	RecoveryOutcome = host.RecoveryOutcome
	// Recoverer is the host-session rollback hook (SessionConfig.Recoverer),
	// for host services wiring detect-then-recover without the Monitor.
	Recoverer = host.Recoverer
)

// NewVersionStore returns a pre-image retention store bounded to roughly
// maxBytes of retained content (<= 0: unbounded). Hand it to WithRecovery;
// consult Stats for retention counters.
func NewVersionStore(maxBytes int64) *VersionStore { return versioned.NewStore(maxBytes) }

// NewMeasureCache returns a measurement memo cache bounded to roughly
// maxBytes of cached state. Hand it to WithMeasureCache,
// EngineConfig.MeasureCache or HostConfig.MeasureCache; one cache may be
// shared by any number of engines and sessions.
func NewMeasureCache(maxBytes int64) *MeasureCache { return measurecache.New(maxBytes) }

// NewSpanTracer returns a span tracer ringing over capacity spans (zero:
// telemetry.DefaultSpanCapacity), recording one in sampleEvery sampled
// operations (values below 1 mean every operation). Hand it to
// WithSpanTracer or EngineConfig.SpanTracer; one tracer may be shared by
// many sessions, whose spans then interleave in one timeline under
// per-session lanes.
func NewSpanTracer(capacity, sampleEvery int) *SpanTracer {
	return telemetry.NewSpanTracer(capacity, sampleEvery)
}

// Re-exported indicator-pipeline types: the registry of pluggable indicator
// units the engine scores with, and the detection policy that fuses awards
// into a verdict. See internal/indicator and internal/policy for the layer
// contracts, and DESIGN.md ("Indicator pipeline") for how the layers fit.
type (
	// IndicatorRegistry is an immutable set of indicator units; compose
	// with DefaultIndicators().With(...) / .Without(...).
	IndicatorRegistry = indicator.Registry
	// IndicatorUnit is one pluggable behavioural indicator.
	IndicatorUnit = indicator.Unit
	// IndicatorDecl is a unit's static declaration.
	IndicatorDecl = indicator.Decl
	// IndicatorContext is the measured-state window a unit evaluates over.
	IndicatorContext = indicator.Context
	// HoneyfileIndicator is the opt-in SentryFS-style decoy-touch unit.
	HoneyfileIndicator = indicator.HoneyfileUnit
	// Policy decides when a scoring group's evidence becomes a detection.
	Policy = policy.Policy
	// MajorityPolicy accelerates detection once a quorum of distinct
	// indicators has fired (Davies et al.-style majority voting).
	MajorityPolicy = policy.Majority
)

// DefaultIndicators returns the paper's indicator set — the registry the
// engine uses when no WithIndicators option is given.
func DefaultIndicators() *IndicatorRegistry { return indicator.Default() }

// NewHoneyfileIndicator returns the decoy-touch indicator guarding exactly
// the given planted paths. Compose it into a registry with
// DefaultIndicators().With(...); plant the decoys first (the unit only
// matches paths, it does not create files).
func NewHoneyfileIndicator(paths ...string) *HoneyfileIndicator {
	return indicator.NewHoneyfile(paths...)
}

// NewUnionPolicy returns the paper's default detection policy: union
// indication over the three primary indicators with the given score bonus.
func NewUnionPolicy(bonus float64) Policy { return policy.NewUnion(bonus) }

// Re-exported multi-session hosting types: a Host owns N detector Sessions,
// each an independent engine behind a bounded ingest queue with explicit
// backpressure and overload degradation. See internal/host for semantics.
type (
	// Host multiplexes many detector sessions through one process.
	Host = host.Host
	// HostConfig configures a Host.
	HostConfig = host.Config
	// Session is one detector instance inside a Host.
	Session = host.Session
	// SessionConfig configures one detector session.
	SessionConfig = host.SessionConfig
	// SessionReport is the final snapshot returned when a session closes.
	SessionReport = host.SessionReport
	// Op is one unit of session ingest: an event plus staged content.
	Op = host.Op
)

// NewHost returns an empty multi-session detector host.
func NewHost(cfg HostConfig) *Host { return host.New(cfg) }

// DefaultEngineConfig returns the paper's calibrated engine configuration
// protecting root, the starting point for host SessionConfigs.
func DefaultEngineConfig(root string) EngineConfig { return core.DefaultConfig(root) }

// Re-exported event kinds and open-intent flags, for producers feeding host
// sessions directly.
const (
	EvCreate = core.EvCreate
	EvOpen   = core.EvOpen
	EvRead   = core.EvRead
	EvWrite  = core.EvWrite
	EvClose  = core.EvClose
	EvDelete = core.EvDelete
	EvRename = core.EvRename

	EvReadIntent   = core.EvReadIntent
	EvWriteIntent  = core.EvWriteIntent
	EvCreateIntent = core.EvCreateIntent
	EvTruncate     = core.EvTruncate
	EvAppend       = core.EvAppend
)

// Re-exported indicator constants. IndicatorHoneyfile is the opt-in
// decoy-touch indicator; the rest are the paper's default set.
const (
	IndicatorTypeChange   = core.IndicatorTypeChange
	IndicatorSimilarity   = core.IndicatorSimilarity
	IndicatorEntropyDelta = core.IndicatorEntropyDelta
	IndicatorDeletion     = core.IndicatorDeletion
	IndicatorFunneling    = core.IndicatorFunneling
	IndicatorHoneyfile    = core.IndicatorHoneyfile
)

// Filter altitudes: CryptoDrop sits in the anti-virus filter range; the
// enforcement filter sits above everything so suspended processes are cut
// off before any other filter sees their operations.
const (
	altitudeEnforce = 400000
	altitudeEngine  = 328000
)

// DefaultProtectedRoot is the documents tree monitored by default.
const DefaultProtectedRoot = corpus.DefaultRoot

// Option configures a Monitor.
type Option func(*options)

type options struct {
	cfg             core.Config
	onDetection     func(Detection)
	enforce         bool
	familyScoring   bool
	checkpointDir   string
	checkpointEvery int
	restore         bool
	versions        *VersionStore
}

// WithRoot sets the protected documents directory (default
// DefaultProtectedRoot).
func WithRoot(root string) Option {
	return func(o *options) { o.cfg.ProtectedRoot = root }
}

// WithNonUnionThreshold overrides the non-union detection threshold
// (default 200, the paper's experimental setting).
func WithNonUnionThreshold(t float64) Option {
	return func(o *options) { o.cfg.NonUnionThreshold = t }
}

// WithUnionThreshold overrides the effective threshold applied once union
// indication has fired.
func WithUnionThreshold(t float64) Option {
	return func(o *options) { o.cfg.UnionThreshold = t }
}

// WithPoints overrides the per-indicator score values.
func WithPoints(p Points) Option {
	return func(o *options) { o.cfg.Points = p }
}

// DefaultPoints returns the calibrated default per-indicator score values,
// as a starting point for WithPoints adjustments.
func DefaultPoints() Points { return core.DefaultPoints() }

// WithIndicators sets the engine's indicator registry, replacing the
// default five-indicator paper set. Compose registries from
// DefaultIndicators with With/Without; the engine measures only the
// features the registered units declare a need for, so a registry without
// content-dependent units never reads file content at all.
func WithIndicators(reg *IndicatorRegistry) Option {
	return func(o *options) { o.cfg.Indicators = reg }
}

// WithPolicy sets the detection policy, replacing the paper's default
// union-plus-threshold policy. When set, Points.UnionBonus no longer
// applies — the policy owns acceleration and thresholding. To ablate union
// indication, pass a policy that never accelerates:
// &MajorityPolicy{Quorum: math.MaxInt}.
func WithPolicy(p Policy) Option {
	return func(o *options) { o.cfg.Policy = p }
}

// WithFamilyScoring aggregates scores across process families: every
// process is scored against its root ancestor's scoreboard entry, so
// malware cannot dilute its reputation by spreading the attack over spawned
// workers. The detection then names (and suspends) the family root.
func WithFamilyScoring() Option {
	return func(o *options) { o.familyScoring = true }
}

// WithMeasureCache memoizes file measurements in c instead of the monitor's
// own 16 MiB memo: content already measured anywhere sharing the cache is
// resolved by hash lookup instead of re-running the digest and entropy
// kernels. Every monitor memoizes; this option only chooses the cache, so
// one cache can back many monitors and host sessions at once. Detections,
// scores and traces are bit-identical to unmemoized measurement. Create c
// with NewMeasureCache.
func WithMeasureCache(c *MeasureCache) Option {
	return func(o *options) { o.cfg.MeasureCache = c }
}

// WithCheckpoint makes the monitor's session durable: its complete scoring
// state — scoreboard, file-state cache, detection latches, flight-recorder
// trace — checkpoints into dir, recoverable with WithRestore. The monitor
// submits every operation it scores to its session with the content the
// engine reads, so each submitted op is write-ahead logged and recovery is
// op-granular, from the log alone. A checkpoint truncates the log once the
// ops submitted since the last one reach every (0: only on Shutdown and
// Monitor.Checkpoint).
// Durability I/O failures never interrupt scoring; they surface through
// Session.DurabilityErr and explicit Checkpoint calls.
func WithCheckpoint(dir string, every int) Option {
	return func(o *options) {
		o.checkpointDir = dir
		o.checkpointEvery = every
	}
}

// WithRestore makes NewMonitor recover the session state persisted by a
// previous WithCheckpoint run: the last checkpoint is restored (after
// verifying it was sealed under the same indicator registry and scoring
// configuration — ErrSnapshotMismatch otherwise) and the write-ahead log
// tail is replayed, reproducing scoreboards, detections and flight traces
// bit for bit. Without WithRestore the monitor starts fresh, replacing any
// state a previous run left in the checkpoint directory.
func WithRestore() Option {
	return func(o *options) { o.restore = true }
}

// WithRecovery arms detect-then-recover: every mount of the monitored
// filesystem is wrapped with pre-image retention into vs (capture rides the
// existing pre-operation snapshot path, first touch per suspect group and
// file), and each detection triggers a rollback of the convicted family's
// retained pre-images — after enforcement has suspended the family, so the
// restored bytes are the final state. Groups that end the session without a
// verdict are exonerated and their pre-images released; families the user
// clears with Allow are exempted from capture entirely. Rollback outcomes
// surface through Monitor.Recoveries, SessionReport.Recoveries and each
// detection's AuditBundle. Detection verdicts and scores are bit-identical
// with and without recovery armed.
func WithRecovery(vs *VersionStore) Option {
	return func(o *options) { o.versions = vs }
}

// WithDetectionHandler registers a callback invoked once per detection,
// after the process family has been suspended and before any rollback, in
// the operation that crossed the threshold: it must not operate on the
// monitored filesystem or call Monitor.Checkpoint, both of which wait for it.
func WithDetectionHandler(fn func(Detection)) Option {
	return func(o *options) { o.onDetection = fn }
}

// WithoutEnforcement disables process suspension: detections are recorded
// but flagged processes keep running (measurement-only mode, used by the
// false-positive threshold sweeps).
func WithoutEnforcement() Option {
	return func(o *options) { o.enforce = false }
}

// WithTelemetry attaches a metrics registry to the monitor: the engine,
// filter chain and filesystem all record into it. A nil registry (the
// default) disables collection; the instrumented paths then cost one nil
// check each.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *options) { o.cfg.Telemetry = reg }
}

// WithFlightRecorder attaches a detection flight recorder capturing the
// ordered indicator firings behind every scoreboard change, so each
// detection can be explained after the fact (see telemetry.FlightRecorder).
func WithFlightRecorder(fr *telemetry.FlightRecorder) Option {
	return func(o *options) { o.cfg.FlightRecorder = fr }
}

// WithSpanTracer attaches a causal span tracer: sampled operations record
// their journey through ingest, measurement, hook dispatch, indicator awards
// and the policy decision as timed spans, exportable as a Chrome trace-event
// file (see telemetry.SpanTracer). Create one with NewSpanTracer. A nil
// tracer (the default) disables tracing at the cost of one nil check per
// operation.
func WithSpanTracer(tr *SpanTracer) Option {
	return func(o *options) { o.cfg.SpanTracer = tr }
}

// WithAuditSink attaches a detection audit sink: every detection emits a
// self-contained AuditBundle — score composition per indicator, causal
// firing history, touched files, engine configuration and registry
// fingerprint, measurement and cache state — through it (see internal/audit;
// audit.NewJSONLSink writes bundles as JSON Lines).
func WithAuditSink(sink AuditSink) Option {
	return func(o *options) { o.cfg.AuditSink = sink }
}

// Monitor binds the CryptoDrop analysis engine, a filter chain and a
// process table to one filesystem. It is a single-session convenience over
// Host: the engine lives in a direct (unqueued) session, so scoring stays
// synchronous with the operation stream and enforcement can veto the very
// next operation after a detection.
type Monitor struct {
	fs       *vfs.FS
	procs    *proc.Table
	chain    *filter.Chain
	hst      *host.Host
	sess     *host.Session
	versions *VersionStore

	mu     sync.Mutex
	exempt map[int]bool

	onDetection func(Detection)
	enforce     bool
}

// MonitorSessionID is the session ID the Monitor's engine runs under in its
// internal Host.
const MonitorSessionID = "monitor"

// enforcement vetoes operations from suspended, non-exempt processes.
type enforcement struct{ m *Monitor }

var _ filter.Filter = (*enforcement)(nil)

// Name identifies the enforcement filter.
func (enforcement) Name() string { return "cryptodrop-enforce" }

// PreOp denies suspended processes.
func (f enforcement) PreOp(op *vfs.Op) error {
	if f.m.procs.Suspended(op.PID) && !f.m.isExempt(op.PID) {
		return fmt.Errorf("pid %d: %w", op.PID, ErrSuspended)
	}
	return nil
}

// PostOp is a no-op for the enforcement filter.
func (enforcement) PostOp(op *vfs.Op) {}

// NewMonitor attaches CryptoDrop to fsys, scoring processes registered in
// procs. The filesystem's interceptor is replaced with the monitor's filter
// chain; other filters (e.g. a simulated anti-virus) may be attached to
// Chain afterwards.
func NewMonitor(fsys *vfs.FS, procs *proc.Table, opts ...Option) (*Monitor, error) {
	o := options{cfg: core.DefaultConfig(DefaultProtectedRoot), enforce: true}
	for _, opt := range opts {
		opt(&o)
	}
	m := &Monitor{
		fs:          fsys,
		procs:       procs,
		chain:       &filter.Chain{},
		versions:    o.versions,
		exempt:      make(map[int]bool),
		onDetection: o.onDetection,
		enforce:     o.enforce,
	}
	o.cfg.OnDetection = m.handleDetection
	if o.familyScoring {
		o.cfg.FamilyOf = procs.RootOf
	}
	var recoverer host.Recoverer
	if o.versions != nil {
		// Retention groups must resolve exactly like the engine's scoring
		// groups, so exoneration and rollback release what capture retained.
		if o.familyScoring {
			o.versions.SetGroupOf(procs.RootOf)
		} else {
			o.versions.SetGroupOf(nil)
		}
		fsys.WrapMounts(func(_ string, b vfs.Backend) vfs.Backend {
			return versioned.Wrap(b, o.versions)
		})
		o.cfg.OnExonerate = o.versions.Release
		recoverer = recovery.NewCoordinator(fsys, o.versions)
	}
	m.hst = host.New(host.Config{
		Telemetry:       o.cfg.Telemetry,
		MeasureCache:    o.cfg.MeasureCache,
		CheckpointDir:   o.checkpointDir,
		CheckpointEvery: o.checkpointEvery,
		Restore:         o.restore,
	})
	sess, err := m.hst.Open(MonitorSessionID, host.SessionConfig{
		Engine:    o.cfg,
		Direct:    true,
		Recoverer: recoverer,
	})
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	m.sess = sess
	if o.cfg.Telemetry != nil {
		m.chain.SetTelemetry(o.cfg.Telemetry)
		fsys.SetTelemetry(o.cfg.Telemetry)
	}
	if err := m.chain.Attach(altitudeEnforce, enforcement{m}); err != nil {
		return nil, fmt.Errorf("attach enforcement: %w", err)
	}
	if err := m.chain.Attach(altitudeEngine, vfsadapter.New(fsys, sess)); err != nil {
		return nil, fmt.Errorf("attach engine: %w", err)
	}
	fsys.SetInterceptor(m.chain)
	return m, nil
}

// handleDetection suspends the flagged family and forwards to the user's
// callback. The detection record itself lives in the engine, where it is
// part of the checkpointable session state.
func (m *Monitor) handleDetection(d Detection) {
	if m.enforce {
		m.procs.SuspendFamily(d.PID)
	}
	if m.onDetection != nil {
		m.onDetection(d)
	}
}

func (m *Monitor) isExempt(pid int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exempt[pid]
}

// Allow records the user's decision to let a flagged process continue.
// Enforcement suspended the whole process family, so Allow resumes and
// exempts the whole family — otherwise children spawned before the
// detection would stay suspended forever.
func (m *Monitor) Allow(pid int) error {
	family, err := m.procs.ResumeFamily(pid)
	if err != nil {
		return err
	}
	m.mu.Lock()
	for _, p := range family {
		m.exempt[p] = true
	}
	m.mu.Unlock()
	if m.versions != nil {
		// The user cleared this program: stop retaining pre-images for it
		// and drop what capture already holds (the family list includes the
		// root, covering both per-PID and family scoring groups).
		for _, p := range family {
			m.versions.Exempt(p)
		}
	}
	return nil
}

// Recoveries returns the rollback outcomes of every detection-triggered
// recovery so far, in detection order (empty without WithRecovery).
func (m *Monitor) Recoveries() []RecoveryOutcome { return m.sess.Recoveries() }

// Chain exposes the filter chain so additional filters (anti-virus and the
// like) can be attached; CryptoDrop's behaviour is independent of their
// relative altitude.
func (m *Monitor) Chain() *filter.Chain { return m.chain }

// Detections returns all detections in occurrence order, including any
// restored from a checkpoint (WithRestore).
func (m *Monitor) Detections() []Detection { return m.sess.Detections() }

// Report returns the scoreboard snapshot for pid.
func (m *Monitor) Report(pid int) (ProcessReport, bool) { return m.sess.Report(pid) }

// Reports returns snapshots for every scored process, ordered by PID.
func (m *Monitor) Reports() []ProcessReport { return m.sess.Reports() }

// OpCount returns the number of protected-scope operations analysed.
func (m *Monitor) OpCount() int64 { return m.sess.Engine().OpIndex() }

// Session exposes the host session the monitor's engine runs in.
func (m *Monitor) Session() *Session { return m.sess }

// Checkpoint commits the session's complete scoring state to the
// WithCheckpoint directory and truncates its write-ahead log, blocking until
// the checkpoint is durably on disk or ctx expires. A no-op returning nil
// when the monitor was built without WithCheckpoint.
func (m *Monitor) Checkpoint(ctx context.Context) error { return m.sess.Checkpoint(ctx) }

// Shutdown detaches the monitor from the filesystem and shuts its host
// down — flushing and, under WithCheckpoint, durably checkpointing the
// session — returning the final session report. ctx bounds the wait.
func (m *Monitor) Shutdown(ctx context.Context) (SessionReport, error) {
	m.fs.SetInterceptor(nil)
	m.chain.Detach("cryptodrop-enforce")
	m.chain.Detach("cryptodrop")
	if m.versions != nil {
		// Unwrap the pre-image capture layer: the filesystem outlives the
		// monitor, and an unmonitored volume should not keep capturing.
		m.fs.WrapMounts(func(_ string, b vfs.Backend) vfs.Backend {
			if vb, ok := b.(*versioned.Backend); ok {
				return vb.Inner()
			}
			return b
		})
	}
	reports, err := m.hst.Shutdown(ctx)
	if err != nil {
		return SessionReport{}, err
	}
	if len(reports) == 0 {
		return SessionReport{}, fmt.Errorf("monitor: %w", ErrSessionClosed)
	}
	return reports[0], nil
}
