package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cryptodrop"
	"cryptodrop/internal/benign"
	"cryptodrop/internal/core"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/host"
	"cryptodrop/internal/proc"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/server"
	"cryptodrop/internal/server/client"
	"cryptodrop/internal/server/config"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/trace"
	"cryptodrop/internal/vfs"
)

const (
	tenantName  = "bench"
	tenantToken = "bench-token"
	// serverRoot is cdserver's default protected root for new sessions;
	// the reference engines score with the same configuration.
	serverRoot = "/"
)

// ingestStream is one recorded op stream and its reference verdict.
type ingestStream struct {
	name string
	// records is the recorded trace; ops is it converted for host ingest.
	records []trace.Record
	ops     []host.Op
	// dets is what a fresh core.DefaultConfig engine detects when
	// EventReplayer.Replay feeds it the same records.
	dets []core.Detection
}

// ingestEnv is the set-up every ingest epoch replays.
type ingestEnv struct {
	base    *vfs.FS
	pool    []*ingestStream
	assign  []*ingestStream // session i replays assign[i]
	workDir string
	tenants string // tenant config file
}

func newIngestEnv(cfg runConfig, workDir string) (*ingestEnv, error) {
	sc := cfg.sc
	fs := vfs.New()
	m, err := corpus.Build(fs, corpus.Spec{Seed: corpusSeed, Files: sc.ingestFiles, Dirs: sc.ingestDirs, SizeScale: sc.ingestSize})
	if err != nil {
		return nil, fmt.Errorf("build corpus: %w", err)
	}
	env := &ingestEnv{base: fs, workDir: workDir}
	// sc.specimens specimens of every Table I family and class pairing.
	// Like the corpus, the streams are fixed: a stream's length sets how
	// long its session runs, and a pool of a few dozen specimens drawn per
	// seed would swing every ingest figure with the seed. The seed orders
	// the sessions, which sets which streams share a producer and how
	// their batches interleave.
	pick := rand.New(rand.NewSource(corpusSeed))
	groups := map[string][]ransomware.Sample{}
	var keys []string
	for _, s := range ransomware.Roster(corpusSeed) {
		k := s.Profile.Family + "/" + s.Profile.Class.String()
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], s)
	}
	for _, k := range keys {
		g := groups[k]
		for _, i := range pick.Perm(len(g))[:min(sc.specimens, len(g))] {
			s := g[i]
			st, err := env.record(m.Root, s.ID, func(fs *vfs.FS, pid int, root string, stop func() bool) error {
				_, err := s.Run(fs, pid, root, stop)
				return err
			})
			if err != nil {
				return nil, err
			}
			env.pool = append(env.pool, st)
		}
	}
	for _, name := range sc.benignTraces {
		w, ok := benign.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no benign workload %q", name)
		}
		st, err := env.record(m.Root, w.Name, func(fs *vfs.FS, pid int, root string, _ func() bool) error {
			return w.Run(fs, pid, root)
		})
		if err != nil {
			return nil, err
		}
		env.pool = append(env.pool, st)
	}
	// Every stream is replayed by the same number of sessions, in a seeded
	// order.
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, i := range rng.Perm(sc.streamRepeats * len(env.pool)) {
		env.assign = append(env.assign, env.pool[i%len(env.pool)])
	}
	env.tenants = filepath.Join(workDir, "tenants.json")
	conf := fmt.Sprintf(`{"tenants": [{"name": %q, "token": %q}]}`, tenantName, tenantToken)
	if err := os.WriteFile(env.tenants, []byte(conf), 0o644); err != nil {
		return nil, err
	}
	return env, nil
}

// record runs a program on a pristine clone under an enforcing Monitor
// with a trace recorder attached, converts the recorded stream to host ops,
// and computes its reference verdict.
func (env *ingestEnv) record(root, name string, run func(fs *vfs.FS, pid int, root string, stop func() bool) error) (*ingestStream, error) {
	fs := env.base.Clone()
	procs := proc.NewTable()
	mon, err := cryptodrop.NewMonitor(fs, procs, cryptodrop.WithRoot(root))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	if err := mon.Chain().Attach(500000, rec); err != nil {
		return nil, err
	}
	pid := procs.Spawn(name)
	if err := run(fs, pid, root, func() bool { return procs.Suspended(pid) }); err != nil && !errors.Is(err, cryptodrop.ErrSuspended) {
		return nil, fmt.Errorf("record %s: %w", name, err)
	}
	if _, err := mon.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	if err := rec.Flush(); err != nil {
		return nil, err
	}
	records, err := trace.Read(&buf)
	if err != nil {
		return nil, fmt.Errorf("read trace %s: %w", name, err)
	}
	st := &ingestStream{name: name, records: records}
	conv, err := env.replayer()
	if err != nil {
		return nil, err
	}
	st.ops, _ = conv.BuildHostOps(records)
	ref, err := env.replayer()
	if err != nil {
		return nil, err
	}
	eng := core.New(core.DefaultConfig(serverRoot), ref)
	if _, err := ref.Replay(eng, records); err != nil {
		return nil, err
	}
	st.dets = eng.Detections()
	return st, nil
}

// replayer returns an EventReplayer seeded with the pristine corpus.
func (env *ingestEnv) replayer() (*trace.EventReplayer, error) {
	r := trace.NewEventReplayer()
	return r, r.SeedFromFS(env.base)
}

// sameDetections compares the verdict fields the gate checks.
func sameDetections(a, b []core.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].PID != b[i].PID || a[i].OpIndex != b[i].OpIndex || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// liveServer is an embedded server.New on a loopback listener.
type liveServer struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan error
}

func startServer(h *host.Host, tenants string, reg *telemetry.Registry) (*liveServer, error) {
	loader, err := config.Load(tenants)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv:  server.New(h, loader, server.Options{Telemetry: reg}),
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	ls.http = &http.Server{Handler: ls.srv.Handler()}
	go func() { ls.done <- ls.http.Serve(ln) }()
	return ls, nil
}

// drain closes the listener and its connections, then drains the host as
// cdserver does on SIGTERM, returning the final session reports. Every
// request has been answered by then; http.Server.Shutdown would instead
// wait five seconds for any connection the client dialled but never used.
func (ls *liveServer) drain(ctx context.Context) ([]host.SessionReport, error) {
	if err := ls.http.Close(); err != nil {
		return nil, err
	}
	<-ls.done
	return ls.srv.Drain(ctx)
}

// epochResult is what one epoch measured.
type epochResult struct {
	ops       int64
	streamNs  int64
	opLatUs   []float64 // per op: its batch's Submit round trip
	batchMs   []float64
	verdictMs []float64
	unitMs    []float64
	attempted int64
	failed    int64
	failures  []string
	// failedSessions are the sessions whose ops already count as failed.
	failedSessions map[int]bool
	heapMB         float64 // live heap with every session open, less the heap before the epoch
	restoreS       float64
	submitNs       int64
	submits        int64
	sealMs         float64 // traced only: mean Engine().Snapshot() per session
	heapPerSes     float64
	ckptBytes      float64 // traced, durable only: mean checkpoint file per session
	snap           telemetry.Snapshot
}

// sessionRun is one session's progress within its producer.
type sessionRun struct {
	idx    int
	name   string
	stream *ingestStream
	st     *client.Stream
	pos    int
	first  time.Time
	done   bool
}

// epoch opens every session on a fresh host and server, streams each
// session's ops to completion from sc.producers closed-loop producers, and
// checks the verdicts; durable epochs then drain, restart with Restore and
// re-open every session.
func (env *ingestEnv) epoch(ctx context.Context, cfg runConfig, durable bool, reg *telemetry.Registry, n int) (*epochResult, error) {
	sc := cfg.sc
	hcfg := host.Config{Telemetry: reg}
	dir := filepath.Join(env.workDir, fmt.Sprintf("epoch-%d", n))
	if durable {
		hcfg.CheckpointDir, hcfg.CheckpointEvery = dir, sc.checkpointEvery
		defer os.RemoveAll(dir)
	}
	res := &epochResult{}
	baseHeap := liveHeapMB()
	h := host.New(hcfg)
	ls, err := startServer(h, env.tenants, reg)
	if err != nil {
		return nil, err
	}
	c := client.New(ls.base, tenantToken)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	errs := make([]error, sc.producers)
	q := &sessionQueue{n: len(env.assign)}
	for p := 0; p < sc.producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = env.produce(ctx, c, q, sc, res, &mu)
		}(p)
	}
	wg.Wait()
	res.streamNs = time.Since(start).Nanoseconds()
	for _, err := range errs {
		if err != nil {
			ls.drain(ctx)
			return nil, err
		}
	}
	res.heapMB = liveHeapMB() - baseHeap
	res.heapPerSes = res.heapMB * (1 << 20) / float64(len(env.assign))
	before := make([][]core.Detection, len(env.assign))
	for i, s := range env.assign {
		sess, ok := h.Get(tenantName + "/" + sessionName(i))
		if !ok {
			ls.drain(ctx)
			return nil, fmt.Errorf("session %d missing from the host", i)
		}
		before[i] = sess.Detections()
		if sess.Ingested() != int64(len(s.ops)) {
			res.fail(i, int64(len(s.ops)), fmt.Sprintf("ingested %d of %d ops", sess.Ingested(), len(s.ops)))
		} else if !sameDetections(before[i], s.dets) {
			res.fail(i, int64(len(s.ops)), fmt.Sprintf("detections %v differ from the reference %v", before[i], s.dets))
		}
	}
	if reg != nil {
		res.snap = reg.Snapshot()
		var sealNs int64
		for i := range env.assign {
			sess, _ := h.Get(tenantName + "/" + sessionName(i))
			t0 := time.Now()
			if _, err := sess.Engine().Snapshot(); err != nil {
				ls.drain(ctx)
				return nil, fmt.Errorf("seal session %d: %w", i, err)
			}
			sealNs += time.Since(t0).Nanoseconds()
		}
		res.sealMs = float64(sealNs) / 1e6 / float64(len(env.assign))
	}
	reports, err := ls.drain(ctx)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	for _, r := range reports {
		var i int
		if _, err := fmt.Sscanf(r.ID, tenantName+"/s%d", &i); err != nil {
			return nil, fmt.Errorf("unexpected session %q", r.ID)
		}
		if r.Degraded || r.ShedBytes > 0 {
			res.fail(i, r.Ingested, fmt.Sprintf("degraded, %d bytes shed", r.ShedBytes))
		}
	}
	if !durable {
		return res, nil
	}
	if reg != nil {
		matches, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
		var total int64
		for _, m := range matches {
			if fi, err := os.Stat(m); err == nil {
				total += fi.Size()
			}
		}
		res.ckptBytes = share(float64(total), float64(len(matches)))
	}
	t0 := time.Now()
	hcfg.Restore = true
	h2 := host.New(hcfg)
	ls2, err := startServer(h2, env.tenants, reg)
	if err != nil {
		return nil, err
	}
	c2 := client.New(ls2.base, tenantToken)
	for i, s := range env.assign {
		st, err := c2.Open(ctx, sessionName(i))
		if err != nil {
			ls2.drain(ctx)
			return nil, fmt.Errorf("re-open session %d: %w", i, err)
		}
		sess, ok := h2.Get(tenantName + "/" + sessionName(i))
		switch {
		case !ok:
			res.fail(i, int64(len(s.ops)), "not restored")
		case st.Position() != int64(len(s.ops)):
			res.fail(i, int64(len(s.ops)), fmt.Sprintf("restored at %d of %d ops", st.Position(), len(s.ops)))
		case !sameDetections(sess.Detections(), before[i]):
			res.fail(i, int64(len(s.ops)), fmt.Sprintf("restored detections %v differ from %v", sess.Detections(), before[i]))
		}
	}
	res.restoreS = time.Since(t0).Seconds()
	if _, err := ls2.drain(ctx); err != nil {
		return nil, fmt.Errorf("drain restored host: %w", err)
	}
	return res, nil
}

func sessionName(i int) string { return fmt.Sprintf("s%03d", i) }

// fail counts a session's ops as failed, once however many checks it
// fails.
func (r *epochResult) fail(session int, ops int64, why string) {
	r.failures = append(r.failures, fmt.Sprintf("session %s: %s", sessionName(session), why))
	if r.failedSessions == nil {
		r.failedSessions = make(map[int]bool)
	}
	if !r.failedSessions[session] {
		r.failedSessions[session] = true
		r.failed += ops
	}
}

// sessionQueue hands the epoch's sessions out in order to whichever
// producer has room, so no producer idles while another still has work.
type sessionQueue struct {
	mu   sync.Mutex
	next int
	n    int
}

func (q *sessionQueue) take() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.next == q.n {
		return 0, false
	}
	q.next++
	return q.next - 1, true
}

// produce is one closed-loop producer: it keeps up to sc.window sessions
// open, taking the next from q whenever one finishes, and round-robins one
// batch at a time over them. Submit blocks until the server acks; a
// session's last batch is followed by a Flush, which returns once every op
// has been scored.
func (env *ingestEnv) produce(ctx context.Context, c *client.Client, q *sessionQueue, sc scale, res *epochResult, mu *sync.Mutex) error {
	var runs []*sessionRun
	refill := func() error {
		for len(runs) < sc.window {
			i, ok := q.take()
			if !ok {
				return nil
			}
			r := &sessionRun{idx: i, name: sessionName(i), stream: env.assign[i]}
			st, err := c.Open(ctx, r.name)
			if err != nil {
				return fmt.Errorf("open session %s: %w", r.name, err)
			}
			r.st = st
			runs = append(runs, r)
		}
		return nil
	}
	if err := refill(); err != nil {
		return err
	}
	var lat, batchMs, verdictMs, unitMs []float64
	var attempted, applied, submitNs, submits int64
	broken := func(r *sessionRun, err error) {
		mu.Lock()
		defer mu.Unlock()
		res.fail(r.idx, int64(len(r.stream.ops)), err.Error())
	}
	for len(runs) > 0 {
		for _, r := range runs {
			ops := r.stream.ops
			n := min(sc.batch, len(ops)-r.pos)
			t0 := time.Now()
			if r.pos == 0 {
				r.first = t0
			}
			err := r.st.Submit(ctx, ops[r.pos:r.pos+n]...)
			t1 := time.Now()
			if err != nil {
				// The client gave up: the session's stream is broken.
				r.done = true
				attempted += int64(len(ops))
				broken(r, err)
				continue
			}
			d := t1.Sub(t0)
			submitNs += d.Nanoseconds()
			submits++
			batchMs = append(batchMs, float64(d.Nanoseconds())/1e6)
			for k := 0; k < n; k++ {
				lat = append(lat, float64(d.Nanoseconds())/1e3)
			}
			r.pos += n
			if r.pos < len(ops) {
				continue
			}
			r.done = true
			attempted += int64(len(ops))
			if _, err := r.st.Flush(ctx); err != nil {
				broken(r, err)
				continue
			}
			t2 := time.Now()
			applied += int64(len(ops))
			verdictMs = append(verdictMs, float64(t2.Sub(t1).Nanoseconds())/1e6)
			unitMs = append(unitMs, float64(t2.Sub(r.first).Nanoseconds())/1e6)
		}
		open := runs[:0]
		for _, r := range runs {
			if !r.done {
				open = append(open, r)
			}
		}
		runs = open
		if err := refill(); err != nil {
			return err
		}
	}
	mu.Lock()
	defer mu.Unlock()
	res.ops += applied
	res.attempted += attempted
	res.opLatUs = append(res.opLatUs, lat...)
	res.batchMs = append(res.batchMs, batchMs...)
	res.verdictMs = append(res.verdictMs, verdictMs...)
	res.unitMs = append(res.unitMs, unitMs...)
	res.submitNs += submitNs
	res.submits += submits
	return nil
}

// ingestPass pools what a pass's epochs measured.
type ingestPass struct {
	epochs    []*epochResult
	rates     []float64 // acked-and-applied ops per second of streaming, per epoch
	ops       int64
	streamNs  int64
	attempted int64
	failed    int64
	failures  []string

	// Per epoch: op latency and session turnaround percentiles.
	epochP50, epochP99, epochUnitP50, epochUnitP90 []float64

	batchMs, verdictMs, heapMB, restoreS []float64
}

// pass runs epochs until the deadline (at least one, at most maxEpochs
// when positive).
func (env *ingestEnv) pass(ctx context.Context, cfg runConfig, durable bool, reg *telemetry.Registry, deadline time.Time, maxEpochs int) (*ingestPass, error) {
	p := &ingestPass{}
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		if maxEpochs > 0 && n >= maxEpochs {
			break
		}
		e, err := env.epoch(ctx, cfg, durable, reg, n)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", n, err)
		}
		p.epochs = append(p.epochs, e)
		p.ops += e.ops
		p.streamNs += e.streamNs
		p.rates = append(p.rates, share(float64(e.ops), float64(e.streamNs)/1e9))
		p.epochP50 = append(p.epochP50, percentile(e.opLatUs, 0.50))
		p.epochP99 = append(p.epochP99, percentile(e.opLatUs, 0.99))
		p.epochUnitP50 = append(p.epochUnitP50, percentile(e.unitMs, 0.50))
		p.epochUnitP90 = append(p.epochUnitP90, percentile(e.unitMs, 0.90))
		p.batchMs = append(p.batchMs, e.batchMs...)
		p.verdictMs = append(p.verdictMs, e.verdictMs...)
		p.heapMB = append(p.heapMB, e.heapMB)
		p.restoreS = append(p.restoreS, e.restoreS)
		p.attempted += e.attempted
		p.failed += e.failed
		p.failures = append(p.failures, e.failures...)
	}
	return p, nil
}

// runIngest runs the ingest or ingest-durable workload.
func runIngest(cfg runConfig, durable bool) (*report, error) {
	ctx := context.Background()
	workDir := filepath.Join(cfg.outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	var env *ingestEnv
	var setups []float64
	for i := 0; i < cfg.sc.setupReps; i++ {
		t0 := time.Now()
		e, err := newIngestEnv(cfg, workDir)
		if err != nil {
			return nil, err
		}
		// Server start is part of set-up: one start and drain of an idle
		// server.
		ls, err := startServer(host.New(host.Config{}), e.tenants, nil)
		if err != nil {
			return nil, err
		}
		if _, err := ls.drain(ctx); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	measureStart := time.Now()
	p, err := env.pass(ctx, cfg, durable, nil, time.Now().Add(cfg.seconds), 0)
	if err != nil {
		return nil, err
	}
	rep := newReport(p.attempted, p.failed, p.failures)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["ops_per_s"] = median(p.rates)
	// Medians over epochs, as the facade takes them over passes.
	rep.e2e["op_us_p50"] = median(p.epochP50)
	rep.e2e["op_us_p99"] = median(p.epochP99)
	rep.e2e["unit_ms_p50"] = median(p.epochUnitP50)
	rep.e2e["unit_ms_p90"] = median(p.epochUnitP90)
	rep.e2e["heap_mb"] = median(p.heapMB)
	rep.extra["e2e.batch_ms_p50"] = percentile(p.batchMs, 0.50)
	rep.extra["e2e.batch_ms_p99"] = percentile(p.batchMs, 0.99)
	rep.extra["e2e.verdict_ms_p50"] = percentile(p.verdictMs, 0.50)
	rep.extra["e2e.verdict_ms_p90"] = percentile(p.verdictMs, 0.90)
	if durable {
		rep.extra["e2e.restore_s"] = median(p.restoreS)
	}
	rep.samples = fmt.Sprintf("%d epochs of %d sessions (%d traces), %d ops, %d batches, %d producers; streaming %.1fs of %.1fs",
		len(p.epochs), len(env.assign), len(env.pool), p.ops, len(p.batchMs), cfg.sc.producers, float64(p.streamNs)/1e9, time.Since(measureStart).Seconds())
	if !cfg.traced {
		return rep, nil
	}
	return rep, env.traced(ctx, cfg, durable, p, rep)
}
