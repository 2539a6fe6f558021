package core

import (
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cryptodrop/internal/indicator"
	"cryptodrop/internal/magic"
	"cryptodrop/internal/measurecache"
	"cryptodrop/internal/policy"
	"cryptodrop/internal/telemetry"
)

// Engine is the CryptoDrop analysis engine: the measurement layer of the
// detection pipeline. It consumes the backend-neutral file operation stream
// (the minifilter vantage point of Fig. 2, abstracted as Events), extracts
// the features its indicator registry declares a need for, dispatches the
// registered indicator units at fixed hook points, and lets the detection
// policy fuse the resulting awards into detections on the per-process
// reputation scoreboard. The engine observes but never vetoes: enforcement
// (suspending the flagged process family) belongs to the monitor that owns
// it.
//
// Create an Engine with New and feed it Events through PreEvent/Handle —
// in production through a host session, fed by the backend adapters
// (internal/vfsadapter for the filter chain, livewatch.Feeder for a real
// directory), or from trace.EventReplayer for recorded streams. Each engine
// has one writer: the session's applying goroutine, or the replayer. All
// methods are still safe for concurrent use. One mutex guards the
// scoreboard, the file-state cache and the detection log, so readers
// (Report, Reports, Detections, PreReads, HandleReads) see whole
// operations; file content is measured outside it. See DESIGN.md
// ("Concurrency model") for who takes the lock, and DESIGN.md ("Indicator
// pipeline") for the layer seams.
type Engine struct {
	cfg Config
	src ContentSource
	// rootDir prefixes every path under a protected root other than "/".
	rootDir string

	// reg is the effective indicator registry (Config.Indicators, or the
	// default five); pol is the detection policy.
	reg *indicator.Registry
	pol policy.Policy
	// hooks are the registry's units flattened per evaluation hook, in
	// canonical ID order.
	hooks [indicator.HookMax + 1][]hookedUnit
	// feats is the union of the registered units' declared feature needs —
	// the measurement work this engine actually performs.
	feats indicator.Feature
	// byteWeighted measures every process's read/write entropy means with
	// plain byte weighting: some unit declared FeatByteWeighting.
	byteWeighted bool

	// mu guards procs, files, creators, detections and the scoring scratch
	// (ctx, spanOn). Handle holds it while scoring an operation; readers
	// hold it while they copy.
	mu sync.Mutex
	// procs is the per-process scoreboard, keyed by scoring group.
	procs map[int]*procState
	// files caches the measured previous-version state of protected
	// files, keyed by stable file ID so it survives renames and moves.
	files map[uint64]*fileState
	// creators records which process created each file, distinguishing a
	// process deleting its own temp files from one destroying the user's
	// pre-existing data.
	creators map[uint64]int
	// detections is the detection log in occurrence order.
	detections []Detection
	// ctx is the scratch evaluation context handed to indicator units and
	// the policy; living here keeps hook dispatch allocation-free. It is
	// reconfigured per scoring step.
	ctx evalCtx
	// spanOn marks the operation being scored as sampled for causal
	// tracing: award and policy sub-spans record only while it is set.
	spanOn bool

	// memo is the content-hash measurement memo cache (Config.MeasureCache,
	// possibly shared fleet-wide); nil disables memoization.
	memo *measurecache.Cache

	opIndex atomic.Int64

	// payloadBlind marks the FeatPayload feature as unavailable at runtime,
	// the equivalent of Config.NewCipherWithoutDelta: a host degrading an
	// overloaded session to payload-blind scoring flips it mid-stream (the
	// session sheds payload bytes, so payload-derived evidence could never
	// accumulate again). Indicator units observe it through
	// Context.PayloadStreamAvailable and waive payload-derived gates.
	payloadBlind atomic.Bool

	// tel is the telemetry facade; nil when telemetry is fully disabled,
	// in which case every instrumented path costs one branch.
	tel *engineTelemetry

	// spans is the causal span tracer (Config.SpanTracer); nil disables
	// tracing at the cost of one branch per operation. lane labels this
	// engine's spans and audit bundles (Config.SessionID, or "engine").
	spans *telemetry.SpanTracer
	lane  string
	// indNames resolves indicator IDs to their declared names for span and
	// audit attribution, independent of whether metrics are enabled.
	indNames map[indicator.ID]string
}

// New returns an engine analysing the event stream under cfg.ProtectedRoot,
// reading file content through src. A nil src disables content-dependent
// indicators (type change, similarity, file-level entropy) while the
// payload-level ones keep working.
func New(cfg Config, src ContentSource) *Engine {
	if src == nil {
		src = noContent{}
	}
	reg := cfg.Indicators
	if reg == nil {
		reg = indicator.Default()
	}
	pol := cfg.Policy
	if pol == nil {
		pol = policy.NewUnion(cfg.Points.UnionBonus)
	}
	feats := reg.Features()
	e := &Engine{
		cfg:          cfg,
		src:          src,
		rootDir:      cfg.ProtectedRoot + "/",
		reg:          reg,
		pol:          pol,
		feats:        feats,
		byteWeighted: feats.Has(indicator.FeatByteWeighting),
		procs:        make(map[int]*procState),
		files:        make(map[uint64]*fileState),
		creators:     make(map[uint64]int),
	}
	e.ctx.e = e
	e.buildHooks()
	e.memo = cfg.MeasureCache
	e.tel = newEngineTelemetry(cfg.Telemetry, cfg.FlightRecorder, reg)
	e.spans = cfg.SpanTracer
	e.lane = cfg.SessionID
	if e.lane == "" {
		e.lane = "engine"
	}
	e.indNames = make(map[indicator.ID]string, reg.Len())
	for _, u := range reg.Units() {
		e.indNames[u.Decl().ID] = u.Decl().Name
	}
	registerObsSeries(cfg.Telemetry, cfg.SpanTracer)
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Indicators returns the effective indicator registry the engine scores
// with (Config.Indicators, or the default five).
func (e *Engine) Indicators() *indicator.Registry { return e.reg }

// Features returns the union of the registered units' declared feature
// needs — the measurement work this engine performs.
func (e *Engine) Features() indicator.Feature { return e.feats }

// SetPayloadBlind switches the engine into (or out of) payload-blind
// scoring at runtime: the FeatPayload feature is declared unavailable,
// exactly as if the engine had been built with
// Config.NewCipherWithoutDelta. Units gating awards on payload-derived
// evidence (the Class C new-cipher-file award's entropy-delta gate) waive
// those gates, since the corroborating feature can no longer exist.
// Backends that stop delivering payload bytes mid-stream (an overloaded
// host session shedding payloads) set it so encrypted-copy attacks stay
// visible. Safe for concurrent use.
func (e *Engine) SetPayloadBlind(on bool) { e.payloadBlind.Store(on) }

// PayloadBlind reports whether runtime payload-blind scoring is on.
func (e *Engine) PayloadBlind() bool { return e.payloadBlind.Load() }

// inRoot reports whether p lies under the protected root. Root "/" protects
// the whole tree — the detection-service default, where producers pre-filter
// paths on their side of the wire.
func (e *Engine) inRoot(p string) bool {
	root := e.cfg.ProtectedRoot
	if root == "/" {
		return strings.HasPrefix(p, "/")
	}
	return p == root || strings.HasPrefix(p, e.rootDir)
}

// proc returns scoring group g's entry, creating it on first use; e.mu
// held.
func (e *Engine) proc(g int) *procState {
	ps, ok := e.procs[g]
	if !ok {
		ps = newProcState(g, e.byteWeighted)
		e.procs[g] = ps
	}
	return ps
}

// PreEvent snapshots file state that would otherwise be destroyed by the
// operation: the previous version of a file opened for writing, and the
// target a rename is about to replace. Backends must deliver it before the
// operation mutates the underlying content (and before the matching Handle).
// When no registered unit consumes file content, PreEvent does nothing —
// the ContentSource is never consulted.
func (e *Engine) PreEvent(ev Event) {
	ids, n := e.PreReads(&ev)
	for _, id := range ids[:n] {
		if st := e.measure(id, true); st != nil {
			e.mu.Lock()
			if _, ok := e.files[id]; !ok {
				e.files[id] = st
			}
			e.mu.Unlock()
		}
	}
}

// preReads and HandleReads are the one staging rule: the files PreEvent
// snapshots for ev and the one Handle measures, which producers staging
// content in their ops stage (PreReads, HandleReads, StaticPreReads). A nil
// e gives the static form: any path may lie inside or outside the root.
func (e *Engine) preReads(ev *Event) (ids [2]uint64, n int) {
	in := func(p string) bool { return e == nil || e.inRoot(p) }
	switch ev.Kind {
	case EvOpen:
		if ev.Flags&EvWriteIntent != 0 && ev.Size > 0 && in(ev.Path) {
			ids[0], n = ev.FileID, 1
		}
	case EvWrite:
		// Fallback for handles opened before the engine attached.
		if ev.Size > 0 && in(ev.Path) {
			ids[0], n = ev.FileID, 1
		}
	case EvRename:
		if ev.ReplacedID != 0 && in(ev.NewPath) {
			ids[0], n = ev.ReplacedID, 1
		}
		if in(ev.Path) && (e == nil || !e.inRoot(ev.NewPath)) {
			// The file is leaving the protected tree (Class B move-out):
			// capture its state so the return trip can be compared.
			ids[n] = ev.FileID
			n++
		}
	}
	return ids, n
}

// PreReads returns the files PreEvent(ev) would read now: those it
// snapshots that are not measured yet, so only a first touch names any.
func (e *Engine) PreReads(ev *Event) (ids [2]uint64, n int) {
	if !e.wantContent() {
		return ids, 0
	}
	all, m := e.preReads(ev)
	e.mu.Lock()
	for _, id := range all[:m] {
		if _, ok := e.files[id]; !ok {
			ids[n] = id
			n++
		}
	}
	e.mu.Unlock()
	return ids, n
}

// HandleReads reports whether Handle(ev) scores ev at all, and whether it
// then measures ev.FileID: a completed rewrite, or a rename into the
// protected tree that replaces a file or returns one with measured state.
func (e *Engine) HandleReads(ev *Event) (scored, measured bool) {
	if !e.inRoot(ev.Path) && !(ev.Kind == EvRename && e.inRoot(ev.NewPath)) {
		return false, false
	}
	return true, e.wantContent() && (ev.Kind == EvClose && ev.Wrote || ev.Kind == EvRename &&
		e.inRoot(ev.NewPath) && (ev.ReplacedID != 0 || e.cached(ev.FileID)))
}

// cached reports whether a previous-version state is cached for id.
func (e *Engine) cached(id uint64) bool {
	e.mu.Lock()
	_, ok := e.files[id]
	e.mu.Unlock()
	return ok
}

// StaticPreReads returns the files PreEvent(ev) may read under any
// protected root, measured or not.
func StaticPreReads(ev *Event) ([2]uint64, int) { return (*Engine)(nil).preReads(ev) }

// Handle measures the completed operation and updates the scoreboard. It is
// the engine's single entry point for scoring: every backend funnels its
// native notifications here as Events.
func (e *Engine) Handle(ev Event) {
	scored, measured := e.HandleReads(&ev)
	if !scored {
		return
	}
	// One sampling decision covers the whole operation: the op span plus
	// the award/policy sub-spans recorded under e.spanOn. Disabled tracing
	// costs exactly this one nil-check branch.
	var opStart time.Time
	traced := e.spans.Sample()
	if traced {
		opStart = time.Now()
	}
	// Transformation-evaluating ops (a completed rewrite, a rename into
	// the protected tree) need the file's current content. It is read and
	// measured before the lock is taken, so readers never wait on the
	// measurement kernels.
	var cur *fileState
	if measured {
		cur = e.measure(ev.FileID, false)
	}
	g := e.GroupOf(ev.PID)
	e.mu.Lock()
	ps := e.proc(g)
	e.spanOn = traced

	opIdx := e.opIndex.Add(1)
	switch ev.Kind {
	case EvRead:
		e.handleRead(ps, &ev, opIdx)
	case EvWrite:
		e.handleWrite(ps, &ev, opIdx)
	case EvClose:
		e.handleClose(ps, &ev, cur, opIdx)
	case EvDelete:
		e.handleDelete(ps, &ev, opIdx)
	case EvRename:
		e.handleRename(ps, &ev, cur, opIdx)
	case EvCreate:
		if e.feats.Has(indicator.FeatCreator) {
			e.creators[ev.FileID] = ev.PID
		}
		ps.dirsTouched[path.Dir(ev.Path)] = true
	case EvOpen:
		ps.dirsTouched[path.Dir(ev.Path)] = true
	}
	det, fire := e.checkDetection(ps, opIdx)
	e.spanOn = false
	e.mu.Unlock()
	if traced {
		e.spans.Record(telemetry.Span{
			Name: "op " + ev.Kind.String(), Cat: "dispatch", Lane: e.lane,
			Group: ps.pid, OpIndex: opIdx, Path: ev.Path,
		}, opStart, time.Since(opStart))
	}
	if fire {
		e.dispatch(det)
	}
}

// firedDetection couples a Detection with the flagged group's bookkeeping
// captured under the engine lock at the moment of detection — the inputs
// the audit bundle needs that the public Detection does not carry.
type firedDetection struct {
	det       Detection
	filesLost int
	deletes   int
}

// dispatch invokes the detection callback and emits the audit bundle for a
// fired detection, outside all engine locks.
func (e *Engine) dispatch(fd firedDetection) {
	if e.cfg.OnDetection != nil {
		e.cfg.OnDetection(fd.det)
	}
	if e.cfg.AuditSink != nil {
		e.cfg.AuditSink.Emit(e.buildAuditBundle(fd))
		e.tel.auditEmitted()
	}
}

// GroupOf resolves pid to its scoring group under the configured FamilyOf
// mapping (identity when unset) — the group OnDetection verdicts,
// exonerations and pre-image retention all key on.
func (e *Engine) GroupOf(pid int) int {
	if e.cfg.FamilyOf != nil {
		return e.cfg.FamilyOf(pid)
	}
	return pid
}

// ExonerateUndetected invokes Config.OnExonerate, outside all engine locks
// and in ascending group order, for every scoring group on the scoreboard
// whose score never crossed the threshold. The session host calls it when a
// session drains (close or idle eviction): groups that finished their run
// without a verdict are cleared, so the recovery layer can release the
// pre-images retained while they were suspect. Detected groups are never
// exonerated. With OnExonerate unset this is a no-op.
func (e *Engine) ExonerateUndetected() {
	if e.cfg.OnExonerate == nil {
		return
	}
	var groups []int
	e.mu.Lock()
	for g, ps := range e.procs {
		if !ps.detected {
			groups = append(groups, g)
		}
	}
	e.mu.Unlock()
	sort.Ints(groups)
	for _, g := range groups {
		e.cfg.OnExonerate(g)
	}
}

// handleRead folds a read payload into the entropy tracker and, when some
// unit consumes type sniffs, the funneling sets; e.mu held.
func (e *Engine) handleRead(ps *procState, ev *Event, opIdx int64) {
	ps.delta.AddRead(ev.Data)
	ps.dirsTouched[path.Dir(ev.Path)] = true
	ps.touchExt(extOf(ev.Path))
	if ev.Offset == 0 && len(ev.Data) > 0 && e.feats.Has(indicator.FeatTypeSniff) {
		// Identify the type being read, consulting the per-process sniff
		// cache first: re-reading the same unchanged prefix must not pay
		// for a full magic scan every time.
		key := ps.sniff.key(ev.FileID, ev.Data)
		t, ok := ps.sniff.get(key)
		if !ok {
			t = magic.Identify(ev.Data)
			ps.sniff.put(key, t)
		}
		ps.typesRead[t.ID] = true
		e.runHook(indicator.HookFunnel, ps, opIdx, ev.Path, measured{})
	}
}

// handleWrite folds a write payload into the entropy tracker and dispatches
// the per-write hook; e.mu held.
func (e *Engine) handleWrite(ps *procState, ev *Event, opIdx int64) {
	ps.delta.AddWrite(ev.Data)
	ps.dirsTouched[path.Dir(ev.Path)] = true
	ps.touchExt(extOf(ev.Path))
	e.runHook(indicator.HookWrite, ps, opIdx, ev.Path, measured{})
}

// deltaSuspicious reports whether the process's current entropy delta
// exceeds the threshold; e.mu held.
func (e *Engine) deltaSuspicious(ps *procState) bool {
	d, ok := ps.delta.Delta()
	return ok && d >= e.cfg.EntropyDeltaThreshold
}

// handleClose dispatches the touch-level close hook for every written
// handle, then evaluates the completed rewrite against the cached
// previous-version state when its content could be measured; e.mu held.
func (e *Engine) handleClose(ps *procState, ev *Event, cur *fileState, opIdx int64) {
	if !ev.Wrote {
		return
	}
	e.runHook(indicator.HookClose, ps, opIdx, ev.Path, measured{})
	if cur == nil {
		return
	}
	e.evaluate(ps, cur, ev.FileID, e.files[ev.FileID], opIdx, ev.Path)
}

// handleDelete scores a protected file removal; e.mu held.
// Removing a file the process itself created (temp/autosave churn) is
// ordinary behaviour; the deletion unit scores it far lower than destroying
// the user's pre-existing data — the bulk deletion the secondary indicator
// targets (§III-D).
func (e *Engine) handleDelete(ps *procState, ev *Event, opIdx int64) {
	ps.deletes++
	ps.dirsTouched[path.Dir(ev.Path)] = true
	ps.touchExt(extOf(ev.Path))
	var own bool
	if e.feats.Has(indicator.FeatCreator) {
		own = e.creators[ev.FileID] == ev.PID
	}
	e.runHook(indicator.HookDelete, ps, opIdx, ev.Path, measured{ownDelete: own})
	delete(e.files, ev.FileID)
	delete(e.creators, ev.FileID)
}

// handleRename links file state across moves. A rename that replaces an
// existing protected file is a Class B/C transformation of the replaced
// file; a move back into the protected root is checked against the moved
// file's own cached state. Each protected-tree side of the rename also gets
// a touch-level hook dispatch; e.mu held.
func (e *Engine) handleRename(ps *procState, ev *Event, cur *fileState, opIdx int64) {
	if e.inRoot(ev.Path) {
		ps.dirsTouched[path.Dir(ev.Path)] = true
		e.runHook(indicator.HookRename, ps, opIdx, ev.Path, measured{})
	}
	if !e.inRoot(ev.NewPath) {
		// Moved out of the protected tree: keep the cached state; the
		// file ID preserves identity until it comes back.
		return
	}
	if ev.NewPath != ev.Path {
		e.runHook(indicator.HookRename, ps, opIdx, ev.NewPath, measured{})
	}
	ps.dirsTouched[path.Dir(ev.NewPath)] = true
	ps.touchExt(extOf(ev.NewPath))
	if ev.ReplacedID != 0 {
		// The incoming file replaced a protected file: compare the new
		// content against the replaced file's snapshot.
		if cur != nil {
			e.evaluate(ps, cur, ev.FileID, e.files[ev.ReplacedID], opIdx, ev.NewPath)
		}
		delete(e.files, ev.ReplacedID)
		return
	}
	if prev := e.files[ev.FileID]; prev != nil && cur != nil {
		// The file itself returned to the protected tree (Class B):
		// compare against its own pre-move state.
		e.evaluate(ps, cur, ev.FileID, prev, opIdx, ev.NewPath)
	}
}

// evaluate scores the transformation of file contentID, whose new content
// measured as cur, against the previous-version state prev (nil for a new
// file): the funneling hook first (the written-type set may have changed),
// then the new-file or transform hook. The new state then becomes the
// file's previous version; e.mu held.
func (e *Engine) evaluate(ps *procState, cur *fileState, contentID uint64, prev *fileState, opIdx int64, path string) {
	if e.feats.Has(indicator.FeatTypeSniff) {
		ps.typesWritten[cur.typ.ID] = true
	}
	e.runHook(indicator.HookFunnel, ps, opIdx, path, measured{})
	if prev == nil {
		e.runHook(indicator.HookNewFile, ps, opIdx, path, measured{newState: cur})
	} else {
		ps.filesTransformed++
		e.runHook(indicator.HookTransform, ps, opIdx, path, measured{newState: cur, prev: prev})
	}
	e.files[contentID] = cur
}

// Report returns the scoreboard snapshot for pid (resolved to its scoring
// group under family scoring).
func (e *Engine) Report(pid int) (ProcessReport, bool) {
	g := e.GroupOf(pid)
	e.mu.Lock()
	defer e.mu.Unlock()
	ps, ok := e.procs[g]
	if !ok {
		return ProcessReport{}, false
	}
	return ps.report(), true
}

// Reports returns snapshots for every scored process, ordered by PID.
func (e *Engine) Reports() []ProcessReport {
	var out []ProcessReport
	e.mu.Lock()
	for _, ps := range e.procs {
		out = append(out, ps.report())
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// Detections returns all detections in occurrence order.
func (e *Engine) Detections() []Detection {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Detection, len(e.detections))
	copy(out, e.detections)
	return out
}

// OpIndex returns the number of protected-scope operations processed.
func (e *Engine) OpIndex() int64 {
	return e.opIndex.Load()
}

// extOf returns the lower-case extension of p without the dot.
func extOf(p string) string {
	ext := path.Ext(p)
	if ext == "" {
		return ""
	}
	return strings.ToLower(ext[1:])
}
