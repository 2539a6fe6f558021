package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cryptodrop"
	"cryptodrop/internal/benign"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/proc"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

// facadeUnit is one program run under a Monitor: a ransomware sample or a
// benign application.
type facadeUnit struct {
	name   string
	expect bool // a detection is the right verdict
	// heap marks the units whose end-of-run live heap is read: every
	// office application, and every second roster position on attack, a
	// fixed set, so the seed's order does not change which specimens the
	// heap figure describes.
	heap bool
	run  func(fs *vfs.FS, pid int, root string, stop func() bool) error
}

// attackUnits orders the Table I roster so that every prefix is
// class-stratified: each class is shuffled by the seed, and the classes are
// interleaved in proportion to their roster counts (282 A, 147 B, 63 C).
func attackUnits(seed int64) []facadeUnit {
	rng := rand.New(rand.NewSource(seed))
	byClass := map[ransomware.Class][]ransomware.Sample{}
	roster := ransomware.Roster(seed)
	sampled := map[string]bool{}
	for i, s := range roster {
		byClass[s.Profile.Class] = append(byClass[s.Profile.Class], s)
		sampled[s.ID] = i%2 == 0
	}
	classes := []ransomware.Class{ransomware.ClassA, ransomware.ClassB, ransomware.ClassC}
	for _, c := range classes {
		list := byClass[c]
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	}
	taken := map[ransomware.Class]int{}
	units := make([]facadeUnit, 0, len(roster))
	for len(units) < len(roster) {
		// Take next from the class furthest behind its share.
		best, bestLag := classes[0], -1.0
		for _, c := range classes {
			if taken[c] == len(byClass[c]) {
				continue
			}
			want := float64(len(units)+1) * float64(len(byClass[c])) / float64(len(roster))
			if lag := want - float64(taken[c]); lag > bestLag {
				best, bestLag = c, lag
			}
		}
		s := byClass[best][taken[best]]
		taken[best]++
		units = append(units, facadeUnit{
			name:   s.ID,
			expect: true,
			heap:   sampled[s.ID],
			run: func(fs *vfs.FS, pid int, root string, stop func() bool) error {
				_, err := s.Run(fs, pid, root, stop)
				return err
			},
		})
	}
	return units
}

// officeUnits is the thirty §V-F applications in a seeded order.
func officeUnits(seed int64) []facadeUnit {
	apps := benign.All()
	rand.New(rand.NewSource(seed)).Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	units := make([]facadeUnit, len(apps))
	for i, w := range apps {
		units[i] = facadeUnit{
			name:   w.Name,
			expect: w.ExpectDetection,
			heap:   true,
			run: func(fs *vfs.FS, pid int, root string, _ func() bool) error {
				return w.Run(fs, pid, root)
			},
		}
	}
	return units
}

// facadeEnv is the pristine victim machine every unit starts from.
type facadeEnv struct {
	base     *vfs.FS
	manifest *corpus.Manifest
	orig     map[string][]byte
	sha      map[string][32]byte
	units    []facadeUnit
	// boundary: a run ends only after a multiple of this many units, so
	// every run measures whole passes over the roster or the thirty
	// applications, and seeds differ in specimens and order, not in mix.
	boundary int
	attack   bool
}

func newFacadeEnv(cfg runConfig, name string) (*facadeEnv, error) {
	fs := vfs.New()
	m, err := corpus.Build(fs, corpus.Spec{
		Seed: corpusSeed, Files: cfg.sc.facadeFiles, Dirs: cfg.sc.facadeDirs, SizeScale: cfg.sc.facadeSize,
	})
	if err != nil {
		return nil, fmt.Errorf("build corpus: %w", err)
	}
	env := &facadeEnv{
		base: fs, manifest: m,
		orig: make(map[string][]byte, len(m.Entries)), sha: make(map[string][32]byte, len(m.Entries)),
	}
	for _, e := range m.Entries {
		b, err := fs.ReadFileRaw(e.Path)
		if err != nil {
			return nil, fmt.Errorf("read corpus: %w", err)
		}
		env.orig[e.Path] = b
		env.sha[e.Path] = e.SHA256
	}
	if env.attack = name == "attack"; env.attack {
		env.units = attackUnits(cfg.seed)
	} else {
		env.units = officeUnits(cfg.seed)
	}
	env.boundary = len(env.units)
	return env, nil
}

// filesLost counts corpus files whose original content exists nowhere on
// fs — the paper's SHA-256 check. Only the unit's own operations change
// the filesystem, so files at paths it never touched still hold their
// original content; only touched paths are read and hashed.
func (env *facadeEnv) filesLost(fs *vfs.FS, touched map[string]bool) int {
	surviving := make(map[[32]byte]bool, len(env.manifest.Entries))
	for _, e := range env.manifest.Entries {
		if !touched[e.Path] {
			surviving[e.SHA256] = true
		}
	}
	for p := range touched {
		cur, err := fs.ReadFileRaw(p)
		if err != nil {
			continue
		}
		if orig, ok := env.orig[p]; ok && bytes.Equal(cur, orig) {
			surviving[env.sha[p]] = true
		} else {
			surviving[sha256.Sum256(cur)] = true
		}
	}
	lost := 0
	for _, e := range env.manifest.Entries {
		if !surviving[e.SHA256] {
			lost++
		}
	}
	return lost
}

// facadePass is what one pass over the units measured.
type facadePass struct {
	units      int
	ops        int64
	monitorNs  int64
	opLatUs    []float64
	unitMs     []float64
	detectMs   []float64
	rollbackMs []float64
	lostBefore []float64
	cloneNs    int64
	clones     int
	attempted  int64
	failed     int64
	failures   []string
	heapMB     []float64 // live heap at sampled unit ends, less the heap before the unit
	// appMs holds each office application's run times, by name.
	appMs map[string][]float64

	// Per whole pass over the units: ops per second of monitor time, the
	// pass's own latency percentiles, and its median sampled heap.
	passRates, passP50, passP99, passUnitP50, passUnitP90, passHeap []float64

	tr *facadeTrace // traced pass only
}

// facadeTrace holds the traced pass's instruments and tallies.
type facadeTrace struct {
	reg          *telemetry.Registry
	spans        *telemetry.SpanTracer
	innerNs      int64
	outerNs      int64
	inEngineNs   int64
	window       engineWindow
	contents     *contentLog
	retainedPeak int64
	captures     int64
	evictions    int64
	restored     int64
	recreated    int64
	recFailures  int64
	bytesRestore int64
	rollbacks    int64
	rollbackMs   float64
}

// passLimits bounds a pass: a deadline checked at unit boundaries, and for
// the traced pass a unit count and a span budget.
type passLimits struct {
	deadline  time.Time
	maxUnits  int // 0: no limit
	spanLimit uint64
}

func (env *facadeEnv) pass(cfg runConfig, lim passLimits, traced bool) (*facadePass, error) {
	p := &facadePass{appMs: make(map[string][]float64)}
	if traced {
		p.tr = &facadeTrace{
			reg:      telemetry.NewRegistry(),
			spans:    telemetry.NewSpanTracer(cfg.sc.spanCap, 1),
			contents: newContentLog(cfg.sc.kernelBytes),
		}
	}
	var passOps, passNs int64
	var passLat, passUnit, passHeap int
	for i := 0; ; i++ {
		u := env.units[i%len(env.units)]
		atBoundary := (i+1)%env.boundary == 0
		last := func() bool {
			if lim.maxUnits > 0 && i+1 >= lim.maxUnits {
				return true
			}
			if traced && p.tr.spans.Recorded() > lim.spanLimit {
				return true
			}
			return atBoundary && !lim.deadline.IsZero() && time.Now().After(lim.deadline)
		}
		stop, err := env.runUnit(cfg, u, p, last)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.name, err)
		}
		if atBoundary {
			p.passRates = append(p.passRates, share(float64(p.ops-passOps), float64(p.monitorNs-passNs)/1e9))
			p.passP50 = append(p.passP50, percentile(p.opLatUs[passLat:], 0.50))
			p.passP99 = append(p.passP99, percentile(p.opLatUs[passLat:], 0.99))
			p.passUnitP50 = append(p.passUnitP50, percentile(p.unitMs[passUnit:], 0.50))
			p.passUnitP90 = append(p.passUnitP90, percentile(p.unitMs[passUnit:], 0.90))
			p.passHeap = append(p.passHeap, median(p.heapMB[passHeap:]))
			passOps, passNs, passLat, passUnit, passHeap = p.ops, p.monitorNs, len(p.opLatUs), len(p.unitMs), len(p.heapMB)
		}
		if stop {
			break
		}
	}
	return p, nil
}

// runUnit runs one unit on a fresh clone under a fresh Monitor and checks
// its verdict. It reports whether the pass should stop after this unit.
// Monitor time runs from NewMonitor to the end of Shutdown, less the heap
// reading taken in between.
func (env *facadeEnv) runUnit(cfg runConfig, u facadeUnit, p *facadePass, last func() bool) (bool, error) {
	root := env.manifest.Root
	// A sampled unit reads the live heap before it starts and at its end,
	// so the reading is what its Monitor holds, not what the pass has
	// accumulated.
	sampleHeap := p.tr == nil && u.heap
	var heapBefore float64
	if sampleHeap {
		heapBefore = liveHeapMB()
	}
	t0 := time.Now()
	fs := env.base.Clone()
	p.cloneNs += time.Since(t0).Nanoseconds()
	p.clones++

	tr := p.tr
	if tr != nil {
		fs.WrapMounts(func(_ string, b vfs.Backend) vfs.Backend {
			return &timedBackend{inner: b, window: &tr.window, ns: &tr.innerNs}
		})
	}
	procs := proc.NewTable()
	vs := cryptodrop.NewVersionStore(0)
	br := &bracket{touched: make(map[string]bool)}
	if tr != nil {
		br.window = &tr.window
	}
	detected := 0
	var atDetection *vfs.FS
	onDetect := func(cryptodrop.Detection) {
		now := time.Now()
		detected++
		if detected == 1 {
			p.detectMs = append(p.detectMs, float64(now.Sub(br.first).Nanoseconds())/1e6)
		}
		// Rollback runs right after this handler returns; a copy-on-write
		// clone keeps the state it is about to undo, for Table I's count.
		atDetection = fs.Clone()
		br.rollbackFrom = time.Now()
	}
	opts := []cryptodrop.Option{
		cryptodrop.WithRoot(root),
		cryptodrop.WithRecovery(vs),
		cryptodrop.WithDetectionHandler(onDetect),
	}
	if tr != nil {
		opts = append(opts, cryptodrop.WithTelemetry(tr.reg), cryptodrop.WithSpanTracer(tr.spans))
	}
	start := time.Now()
	mon, err := cryptodrop.NewMonitor(fs, procs, opts...)
	if err != nil {
		return false, err
	}
	if tr != nil {
		fs.WrapMounts(func(_ string, b vfs.Backend) vfs.Backend {
			return &timedBackend{
				inner: b, ns: &tr.outerNs, window: &tr.window, inEngineNs: &tr.inEngineNs,
				onContent: tr.contents.add,
				afterCapture: func() {
					if b := vs.Stats().Bytes; b > tr.retainedPeak {
						tr.retainedPeak = b
					}
				},
			}
		})
		if err := mon.Chain().Attach(altitudeMarkerAbove, marker{w: &tr.window, above: true}); err != nil {
			return false, err
		}
		if err := mon.Chain().Attach(altitudeMarkerBelow, marker{w: &tr.window}); err != nil {
			return false, err
		}
	}
	if err := mon.Chain().Attach(altitudeBracket, br); err != nil {
		return false, err
	}
	pid := procs.Spawn(u.name)
	runStart := time.Now()
	runErr := u.run(fs, pid, root, func() bool { return procs.Suspended(pid) })
	runEnd := time.Now()
	runNs := runEnd.Sub(runStart).Nanoseconds()
	if tr != nil {
		tr.window = engineWindow{} // a vetoed last operation never reached PostOp
	}
	if runErr != nil && !errors.Is(runErr, cryptodrop.ErrSuspended) {
		return false, runErr
	}
	rep, _ := mon.Report(pid)
	recs := mon.Recoveries()
	stop := last()
	if sampleHeap {
		p.heapMB = append(p.heapMB, liveHeapMB()-heapBefore)
	}
	shutStart := time.Now()
	if _, err := mon.Shutdown(context.Background()); err != nil {
		return false, fmt.Errorf("shutdown: %w", err)
	}
	monNs := runEnd.Sub(start).Nanoseconds() + time.Since(shutStart).Nanoseconds()

	ops := int64(len(br.latUs))
	p.units++
	p.ops += ops
	p.monitorNs += monNs
	p.opLatUs = append(p.opLatUs, br.latUs...)
	p.rollbackMs = append(p.rollbackMs, br.rollbackMs...)
	p.attempted += ops

	// The verdict gate.
	var wrong string
	recFailures := 0
	for _, r := range recs {
		recFailures += r.Failures
	}
	switch {
	case rep.Detected != u.expect:
		wrong = fmt.Sprintf("detected=%v, want %v", rep.Detected, u.expect)
	case u.expect && recFailures > 0:
		wrong = fmt.Sprintf("%d rollback failures", recFailures)
	}
	if env.attack && wrong == "" {
		if lost := env.filesLost(fs, br.touched); lost > 0 {
			wrong = fmt.Sprintf("%d files still lost after rollback", lost)
		}
		if atDetection != nil {
			p.lostBefore = append(p.lostBefore, float64(env.filesLost(atDetection, br.touched)))
		}
	}
	if wrong != "" {
		p.failed += ops
		p.failures = append(p.failures, u.name+": "+wrong)
	} else if env.attack {
		p.unitMs = append(p.unitMs, p.detectMs[len(p.detectMs)-1])
	} else {
		p.unitMs = append(p.unitMs, float64(runNs)/1e6)
		p.appMs[u.name] = append(p.appMs[u.name], float64(runNs)/1e6)
	}

	if tr != nil {
		st := vs.Stats()
		tr.captures += st.Captured
		tr.evictions += st.Evicted
		for _, r := range recs {
			tr.restored += int64(r.FilesRestored)
			tr.recreated += int64(r.FilesRecreated)
			tr.recFailures += int64(r.Failures)
			tr.bytesRestore += r.BytesRestored
		}
		for _, ms := range br.rollbackMs {
			tr.rollbacks++
			tr.rollbackMs += ms
		}
	}
	return stop, nil
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runFacade runs the attack or office workload.
func runFacade(cfg runConfig, name string) (*report, error) {
	var env *facadeEnv
	var setups []float64
	for i := 0; i < cfg.sc.setupReps; i++ {
		t0 := time.Now()
		e, err := newFacadeEnv(cfg, name)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	p, err := env.pass(cfg, passLimits{deadline: time.Now().Add(cfg.seconds)}, false)
	if err != nil {
		return nil, err
	}
	rep := newReport(p.attempted, p.failed, p.failures)
	rep.e2e["setup_s"] = median(setups) + float64(p.cloneNs)/1e9
	// Medians over whole passes: one slow stretch of a shared machine moves
	// one pass, not the figure.
	rep.e2e["ops_per_s"] = median(append([]float64(nil), p.passRates...))
	rep.e2e["op_us_p50"] = median(p.passP50)
	rep.e2e["op_us_p99"] = median(p.passP99)
	rep.e2e["heap_mb"] = median(p.passHeap)
	if env.attack {
		rep.e2e["unit_ms_p50"] = median(p.passUnitP50)
		rep.e2e["unit_ms_p90"] = median(p.passUnitP90)
	} else {
		// Thirty applications whose run times span 0.7 ms to 2 s: pooled
		// runs put a percentile on the edge between two applications,
		// where it jumps. Percentiles of each application's median run
		// move smoothly instead.
		var apps []float64
		for _, ms := range p.appMs {
			apps = append(apps, median(ms))
		}
		rep.e2e["unit_ms_p50"] = median(apps)
		rep.e2e["unit_ms_p90"] = percentile(apps, 0.90)
	}
	rep.samples = fmt.Sprintf("%d units in %d passes, %d ops, ops/s per pass %.0f", p.units, len(p.passRates), p.ops, p.passRates)
	if name == "attack" {
		rep.extra["e2e.detect_ms_p50"] = percentile(p.detectMs, 0.50)
		rep.extra["e2e.detect_ms_p90"] = percentile(p.detectMs, 0.90)
		rep.extra["e2e.files_lost_median"] = median(p.lostBefore)
		rep.extra["e2e.rollback_ms_p50"] = percentile(p.rollbackMs, 0.50)
	}
	if !cfg.traced {
		return rep, nil
	}

	// The traced pass is one more pass over the same units.
	limit := passLimits{maxUnits: env.boundary, spanLimit: uint64(cfg.sc.spanCap / 2)}
	tp, err := env.pass(cfg, limit, true)
	if err != nil {
		return nil, err
	}
	rep.attempted += tp.attempted
	rep.failed += tp.failed
	rep.failures = append(rep.failures, tp.failures...)
	tr := tp.tr
	ops := float64(tp.ops)
	perOp := func(ns float64) float64 { return share(ns/1e3, ops) }
	snap := tr.reg.Snapshot()
	l := rep.layers
	for _, k := range []string{"create", "open", "read", "write", "close", "delete", "rename"} {
		l["vfs.ops."+k] = float64(snap.Counters[`vfs_ops_total{kind="`+k+`"}`])
	}
	l["vfs.backend_us"] = perOp(float64(tr.innerNs))
	l["vfs.bytes_read"] = float64(snap.Counters[`vfs_op_bytes_total{kind="read"}`])
	l["vfs.bytes_written"] = float64(snap.Counters[`vfs_op_bytes_total{kind="write"}`])
	l["vfs.clone_ms"] = share(float64(tp.cloneNs)/1e6, float64(tp.clones))
	var preS, postS float64
	for _, f := range []string{"cryptodrop", "cryptodrop-enforce"} {
		preS += histSum(snap, `filter_pre_seconds{filter="`+f+`"}`)
		postS += histSum(snap, `filter_post_seconds{filter="`+f+`"}`)
		l["filter.vetoes"] += float64(snap.Counters[`filter_vetoes_total{filter="`+f+`"}`])
	}
	l["filter.pre_us"] = perOp(preS * 1e9)
	l["filter.post_us"] = perOp(postS * 1e9)
	st := attributeSpans(tr.spans.Spans())
	l["core.dispatch_us"] = perOp(float64(st.dispatchSelfNs))
	l["core.measure.count"] = float64(st.measures)
	l["core.measure.bytes"] = float64(tr.contents.total)
	l["core.measure_us"] = perOp(float64(st.measureNs))
	l["core.measure_us.sampled"] = perOp(float64(st.measureSampleNs))
	l["core.measure.memo_hits"] = float64(st.memoHits)
	engineTelemetry(rep, snap, ops)
	kernelTimings(l, tr.contents)
	l["versioned.capture_us"] = perOp(float64(tr.outerNs - tr.innerNs))
	l["versioned.captures"] = float64(tr.captures)
	l["versioned.retained_bytes_peak"] = float64(tr.retainedPeak)
	l["versioned.evictions"] = float64(tr.evictions)
	l["recovery.rollback_ms"] = share(tr.rollbackMs, float64(tr.rollbacks))
	l["recovery.files_restored"] = float64(tr.restored)
	l["recovery.files_recreated"] = float64(tr.recreated)
	l["recovery.failures"] = float64(tr.recFailures)
	l["recovery.bytes_restored"] = float64(tr.bytesRestore)
	// Every layer's self time nests inside the bracket: the engine's and
	// the enforcement filter's PreOp and PostOp, plus backend calls made
	// outside the engine window. The rest is the vfs router and the
	// harness's own filters.
	var bracketNs float64
	for _, us := range tp.opLatUs {
		bracketNs += us * 1e3
	}
	covered := (preS+postS)*1e9 + float64(tr.outerNs-tr.inEngineNs)
	l["unattributed_share"] = share(bracketNs-covered, bracketNs)
	// The traced pass is one whole pass, as is each rate the untraced
	// median is taken over.
	l["trace_overhead_share"] = 1 - share(share(ops, float64(tp.monitorNs)/1e9), rep.e2e["ops_per_s"])
	l["trace.spans_dropped"] = float64(tr.spans.Dropped())
	rep.traceNote = fmt.Sprintf("traced pass: %d units, %d ops, %d spans", tp.units, tp.ops, tr.spans.Recorded())
	return rep, writeChromeTrace(cfg, name, tr.spans)
}

// engineTelemetry copies the engine's own counters into the layer table.
// Only a traced pass attaches the engine's registry, so only there can an
// op whose content could not be read be counted as failed.
func engineTelemetry(rep *report, snap telemetry.Snapshot, ops float64) {
	l := rep.layers
	l["core.pool_saturated"] = float64(snap.Counters["engine_measure_pool_saturated_total"])
	l["core.lock_wait_us"] = share(histSum(snap, "engine_proc_shard_lock_wait_seconds")*1e6, ops)
	if n := snap.Counters["engine_content_read_failures_total"]; n > 0 {
		l["core.read_failures"] = float64(n)
		rep.failed += n
		rep.failures = append(rep.failures, fmt.Sprintf("%d content reads failed", n))
	}
	l["core.detections"] = float64(snap.Counters["engine_detections_total"])
	for _, n := range indicatorNames {
		l["indicator.awards."+n] = float64(snap.Counters[`engine_indicator_fires_total{indicator="`+n+`"}`])
	}
	l["policy.union_fires"] = float64(snap.Counters["engine_union_fires_total"])
}

// writeChromeTrace writes the traced pass's spans under the output
// directory with the tracer's own Chrome trace-event writer.
func writeChromeTrace(cfg runConfig, name string, spans *telemetry.SpanTracer) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json", name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := spans.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
