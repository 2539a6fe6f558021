// Command cdhost multiplexes several live directory roots through one
// multi-session detector host: each -dir gets its own detector session
// (independent engine, bounded ingest queue, overload policy) and the
// telemetry endpoint exposes per-session gauges, the fleet introspection
// snapshot (/debug/sessions), and — when tracing is on — the causal span
// buffer as a Chrome trace (/debug/trace).
//
//	cdhost -dir ~/Documents -dir ~/Pictures          # watch two roots
//	cdhost -dir ~/Documents -inotify                 # Linux inotify instead
//	                                                 # of polling
//	cdhost -selftest                                 # stage three corpora,
//	                                                 # encrypt one, show that
//	                                                 # only its session alerts
//	cdhost -selftest -trace-out /tmp/spans.json \
//	       -audit-out /tmp/audit.jsonl               # ...and keep the causal
//	                                                 # trace + audit bundle
//
// Sessions become durable with -checkpoint-dir: each session checkpoints its
// complete scoring state there and write-ahead-logs every ingested op batch,
// so a crashed host restarted with -restore resumes every session exactly —
// scoreboards, detection latches and traces included. -selftest-recover
// demonstrates the full cycle: it ingests two thirds of a deterministic
// attack durably, abandons the host mid-flight, recovers into a fresh host,
// finishes the attack, and verifies the outcome is bit-identical to an
// uninterrupted run.
package main

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"cryptodrop"
	"cryptodrop/internal/audit"
	"cryptodrop/internal/core"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/host"
	"cryptodrop/internal/livewatch"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cdhost:", err)
		os.Exit(1)
	}
}

// dirList collects repeated -dir flags.
type dirList []string

func (d *dirList) String() string     { return strings.Join(*d, ",") }
func (d *dirList) Set(v string) error { *d = append(*d, v); return nil }

func run(args []string) (err error) {
	fs := flag.NewFlagSet("cdhost", flag.ContinueOnError)
	var dirs dirList
	fs.Var(&dirs, "dir", "directory to watch as one session (repeatable)")
	var (
		interval    = fs.Duration("interval", time.Second, "poll interval per session")
		useInotify  = fs.Bool("inotify", false, "use the Linux inotify source instead of polling (Linux only)")
		queue       = fs.Int("queue", host.DefaultQueueDepth, "per-session ingest queue depth (batches)")
		selftest    = fs.Bool("selftest", false, "stage three corpora, encrypt one, show per-session verdicts")
		telAddr     = fs.String("telemetry", "", "serve /metrics, /debug/vars, /debug/sessions and pprof on this address (e.g. :9090)")
		traceOut    = fs.String("trace-out", "", "record causal pipeline spans and write a Chrome trace-event JSON file at shutdown")
		traceSample = fs.Int("trace-sample", 1, "record one in N operations when tracing (1 = every operation)")
		auditOut    = fs.String("audit-out", "", "append one JSONL detection audit bundle per detection to this file")
		slowMs      = fs.Int("slow-ms", 0, "log ingested ops slower than this many milliseconds to the introspection snapshot (0 = off)")
		ckptDir     = fs.String("checkpoint-dir", "", "make sessions durable: checkpoint files and write-ahead logs live here")
		ckptEvery   = fs.Int("checkpoint-every", 0, "auto-checkpoint a session every N ingested ops (0 = checkpoint only on shutdown)")
		restore     = fs.Bool("restore", false, "recover session state from -checkpoint-dir on open (checkpoint + WAL-tail replay)")
		recoverTest = fs.Bool("selftest-recover", false, "run the crash-and-recover selftest: durable ingest, simulated crash, bit-identical recovery")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *restore && *ckptDir == "" {
		return fmt.Errorf("-restore requires -checkpoint-dir")
	}
	cfg := watchConfig{
		interval:  *interval,
		inotify:   *useInotify,
		queue:     *queue,
		reg:       telemetry.NewRegistry(),
		telAddr:   *telAddr,
		traceOut:  *traceOut,
		slowOp:    time.Duration(*slowMs) * time.Millisecond,
		ckptDir:   *ckptDir,
		ckptEvery: *ckptEvery,
		restore:   *restore,
	}
	if *traceOut != "" {
		cfg.spans = telemetry.NewSpanTracer(telemetry.DefaultSpanCapacity, *traceSample)
	}
	if *auditOut != "" {
		f, ferr := os.Create(*auditOut)
		if ferr != nil {
			return fmt.Errorf("audit-out: %w", ferr)
		}
		sink := audit.NewJSONLSink(f)
		cfg.sink = sink
		defer func() {
			werr := sink.Err()
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				err = errors.Join(err, fmt.Errorf("audit-out: %w", werr))
				return
			}
			fmt.Printf("audit: %d bundle(s) written to %s\n", sink.Emitted(), *auditOut)
		}()
	}
	if *recoverTest {
		return runRecoverSelftest(cfg)
	}
	if *selftest {
		return runSelftest(cfg)
	}
	if len(dirs) == 0 {
		return fmt.Errorf("pass -dir <directory> (repeatable) or -selftest")
	}
	cfg.dirs = dirs
	return watch(cfg)
}

// watchConfig carries everything watch needs: the roots, the overload knobs,
// and the observability surfaces (shared across all sessions).
type watchConfig struct {
	dirs     []string
	interval time.Duration
	inotify  bool
	queue    int
	reg      *telemetry.Registry
	telAddr  string
	spans    *telemetry.SpanTracer
	traceOut string
	sink     audit.Sink
	slowOp   time.Duration
	// Durability knobs (-checkpoint-dir, -checkpoint-every, -restore).
	ckptDir   string
	ckptEvery int
	restore   bool
	// attack, if non-nil, runs in the background once watching has started;
	// exitOnAlert stops at the first alert (both selftest hooks).
	attack      func() error
	exitOnAlert bool
	// onAlert, if non-nil, runs on the first alert before shutdown, with the
	// live host and the bound telemetry address ("" when not serving) — the
	// selftest uses it to validate the introspection endpoint against itself.
	onAlert func(h *host.Host, addr string) error
}

// sessionID derives a unique, readable session ID for a root.
func sessionID(root string, taken map[string]bool) string {
	id := filepath.Base(filepath.Clean(root))
	for n := 2; taken[id]; n++ {
		id = fmt.Sprintf("%s-%d", filepath.Base(filepath.Clean(root)), n)
	}
	taken[id] = true
	return id
}

// roster couples one watched root's event source to its session and feeder.
type roster struct {
	id     string
	src    livewatch.Source
	feeder *livewatch.Feeder
	sess   *host.Session
}

// watch multiplexes the configured roots through one host until interrupted
// (or, when cfg.exitOnAlert, until the first alert).
func watch(cfg watchConfig) (err error) {
	h := host.New(host.Config{
		QueueDepth:      cfg.queue,
		Telemetry:       cfg.reg,
		SlowOpThreshold: cfg.slowOp,
		CheckpointDir:   cfg.ckptDir,
		CheckpointEvery: cfg.ckptEvery,
		Restore:         cfg.restore,
	})
	if cfg.traceOut != "" {
		defer func() { err = errors.Join(err, dumpSpans(cfg.traceOut, cfg.spans)) }()
	}

	bound := ""
	if cfg.telAddr != "" {
		ln, err := net.Listen("tcp", cfg.telAddr)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", telemetry.Handler(cfg.reg, nil, cfg.spans))
		mux.Handle("/debug/sessions", h.IntrospectionHandler())
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		bound = ln.Addr().String()
		fmt.Printf("telemetry: serving /metrics and /debug/sessions on http://%s\n", bound)
	}

	type alert struct {
		id  string
		det core.Detection
	}
	alerts := make(chan alert, len(cfg.dirs))

	taken := make(map[string]bool)
	rosters := make([]*roster, 0, len(cfg.dirs))
	for _, dir := range cfg.dirs {
		id := sessionID(dir, taken)
		var src livewatch.Source = livewatch.NewScanner(dir)
		if cfg.inotify {
			in, err := livewatch.NewInotifyScanner(dir)
			if err != nil {
				return fmt.Errorf("-inotify: %w", err)
			}
			defer in.Close()
			src = in
		}
		ecfg := core.DefaultConfig("")
		ecfg.SpanTracer = cfg.spans
		if cfg.sink != nil {
			ecfg.AuditSink = cfg.sink
			// Audit bundles reconstruct the causal firing history from the
			// flight recorder; one per session, with wall-clock stamps so the
			// bundle can report time-to-detection.
			fr := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
			fr.EnableTimestamps()
			ecfg.FlightRecorder = fr
		}
		ecfg.OnDetection = func(d core.Detection) {
			select {
			case alerts <- alert{id: id, det: d}:
			default:
			}
		}
		sess, err := h.Open(id, livewatch.FeederSessionConfig(&ecfg))
		if err != nil {
			return fmt.Errorf("open session %q: %w", id, err)
		}
		rosters = append(rosters, &roster{id: id, src: src, feeder: livewatch.NewFeeder(sess), sess: sess})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	fmt.Printf("baselining %d roots...\n", len(rosters))
	for _, r := range rosters {
		if _, err := r.src.Scan(); err != nil {
			return fmt.Errorf("session %q: baseline: %w", r.id, err)
		}
		if err := r.feeder.PrimeTree(ctx, r.src.Root()); err != nil {
			return fmt.Errorf("session %q: prime: %w", r.id, err)
		}
	}

	// One poller goroutine per session: scan, translate, submit. A slow or
	// overloaded session blocks only its own poller (backpressure), never
	// its siblings. A poller ends when the context is cancelled or its
	// session closes.
	var wg sync.WaitGroup
	for _, r := range rosters {
		wg.Add(1)
		go func(r *roster) {
			defer wg.Done()
			_ = r.feeder.Watch(ctx, r.src, cfg.interval)
		}(r)
	}
	defer wg.Wait()
	fmt.Printf("watching %d sessions (poll every %v). Ctrl-C to stop.\n", len(rosters), cfg.interval)

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	defer signal.Stop(interrupt)

	attackDone := make(chan error, 1)
	if cfg.attack != nil {
		go func() { attackDone <- cfg.attack() }()
	}

	status := time.NewTicker(5 * time.Second)
	defer status.Stop()
	for {
		select {
		case a := <-alerts:
			fmt.Printf("\n!! ALERT in session %q: score %.1f (union=%v)\n", a.id, a.det.Score, a.det.Union)
			if cfg.exitOnAlert {
				if cfg.onAlert != nil {
					if err := cfg.onAlert(h, bound); err != nil {
						cancel()
						return fmt.Errorf("selftest introspection: %w", err)
					}
				}
				cancel()
				return shutdown(h, a.id)
			}
		case err := <-attackDone:
			if err != nil {
				cancel()
				return fmt.Errorf("selftest attack: %w", err)
			}
			attackDone = nil // keep waiting for the alert
		case <-status.C:
			fmt.Print("  scores:")
			for _, r := range rosters {
				score := 0.0
				for _, rep := range r.sess.Reports() {
					score += rep.Score
				}
				fmt.Printf(" %s=%.1f", r.id, score)
			}
			fmt.Println()
		case <-interrupt:
			cancel()
			return shutdown(h, "")
		}
	}
}

// dumpSpans writes the recorded causal spans as a Chrome trace-event file.
func dumpSpans(path string, spans *telemetry.SpanTracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	err = spans.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	fmt.Printf("trace: %d span(s) written to %s (%d dropped)\n", spans.Recorded(), path, spans.Dropped())
	return nil
}

// shutdown drains every session and prints the final per-session summary,
// flagging alertedID's verdict if set.
func shutdown(h *host.Host, alertedID string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reports, err := h.Shutdown(ctx)
	if err != nil {
		return err
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	fmt.Println("\nfinal session reports:")
	for _, r := range reports {
		verdict := "clean"
		if len(r.Detections) > 0 {
			verdict = fmt.Sprintf("DETECTED (%d)", len(r.Detections))
		}
		fmt.Printf("  %-12s %-14s %6d events ingested, degraded=%v\n",
			r.ID, verdict, r.Ingested, r.Degraded)
	}
	if alertedID != "" {
		for _, r := range reports {
			if r.ID != alertedID && len(r.Detections) > 0 {
				return fmt.Errorf("session %q alerted unexpectedly", r.ID)
			}
		}
	}
	return nil
}

// runSelftest stages three corpora in temp directories, watches each as its
// own session, encrypts exactly one and verifies only that session alerts —
// and, on the way out, that the introspection endpoint sees the whole fleet.
func runSelftest(cfg watchConfig) error {
	var dirs []string
	for i := 0; i < 3; i++ {
		stage, err := os.MkdirTemp("", fmt.Sprintf("cdhost-selftest-%d-", i))
		if err != nil {
			return err
		}
		defer os.RemoveAll(stage)
		mem := vfs.New()
		m, err := corpus.Build(mem, corpus.Spec{
			Seed: int64(101 + i), Files: 120, Dirs: 12, SizeScale: 0.2, ReadOnlyFraction: -1,
		})
		if err != nil {
			return err
		}
		for _, e := range m.Entries {
			rel := strings.TrimPrefix(e.Path, m.Root+"/")
			dst := filepath.Join(stage, filepath.FromSlash(rel))
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return err
			}
			content, err := mem.ReadFileRaw(e.Path)
			if err != nil {
				return err
			}
			if err := os.WriteFile(dst, content, 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("staged %d files under %s\n", len(m.Entries), stage)
		dirs = append(dirs, stage)
	}

	victim := dirs[1]
	cfg.dirs = dirs
	cfg.exitOnAlert = true
	cfg.attack = func() error {
		time.Sleep(2 * cfg.interval) // let the pollers settle
		fmt.Printf("  (selftest: encrypting %s...)\n", victim)
		return filepath.WalkDir(victim, func(p string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			enc := make([]byte, info.Size())
			if _, err := rand.Read(enc); err != nil {
				return err
			}
			return os.WriteFile(p, enc, 0o644)
		})
	}
	if cfg.telAddr == "" {
		// The selftest validates the fleet endpoint against itself, so it
		// always serves — on an ephemeral loopback port unless told where.
		cfg.telAddr = "127.0.0.1:0"
	}
	cfg.onAlert = func(h *host.Host, addr string) error {
		return checkIntrospection(h, addr, len(dirs))
	}
	return watch(cfg)
}

// recoverCipher is a deterministic high-entropy keystream for file id, so
// every selftest run replays byte-identical "ciphertext".
func recoverCipher(id uint64, n int) []byte {
	s := id*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	out := make([]byte, n)
	for i := range out {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		out[i] = byte(s >> 32)
	}
	return out
}

// recoverWorkload builds a deterministic n-file in-place encryption attack
// as host ops: each op is one full rewrite cycle (cryptodrop.OpWrite)
// staging the file's low-entropy pre-version for the destructive-open
// snapshot and its ciphertext for the close-time measurement, which is
// exactly the stream a feeder would produce.
func recoverWorkload(pid, n int) []host.Op {
	const size = 2048
	ops := make([]host.Op, 0, n)
	for id := uint64(1); id <= uint64(n); id++ {
		path := fmt.Sprintf("/docs/doc%03d.txt", id)
		line := fmt.Sprintf("document %d: plain readable prose with very little entropy.\n", id)
		plain := []byte(strings.Repeat(line, size/len(line)+1))[:size]
		ops = append(ops, cryptodrop.OpWrite(pid, path, id, plain, recoverCipher(id, size)))
	}
	return ops
}

// submitAll feeds ops to a session in fixed-size batches.
func submitAll(sess *host.Session, ops []host.Op, batch int) error {
	ctx := context.Background()
	for len(ops) > 0 {
		n := min(batch, len(ops))
		if err := sess.Submit(ctx, ops[:n]...); err != nil {
			return err
		}
		ops = ops[n:]
	}
	return nil
}

// runRecoverSelftest exercises the durable-session cycle end to end with a
// deterministic synthetic attack (no real filesystem involved): durable
// ingest of two thirds of an in-place encryption run, a simulated crash —
// the host is simply abandoned mid-flight, no shutdown of any kind — then
// recovery into a fresh host from the checkpoint + WAL tail, the rest of
// the attack, and a bit-identical comparison against an uninterrupted
// reference run.
func runRecoverSelftest(cfg watchConfig) error {
	const pid, files, batch = 4242, 60, 5
	every := cfg.ckptEvery
	if every == 0 {
		every = 16
	}
	dir := cfg.ckptDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "cdhost-recover-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	ops := recoverWorkload(pid, files)
	engCfg := func() core.Config { return core.DefaultConfig("/docs") }

	// Reference: the same attack through a non-durable host, no crash.
	href := host.New(host.Config{})
	sref, err := href.Open("victim", host.SessionConfig{Engine: engCfg()})
	if err != nil {
		return err
	}
	if err := submitAll(sref, ops, batch); err != nil {
		return err
	}
	want, err := href.CloseSession(context.Background(), "victim")
	if err != nil {
		return err
	}
	if len(want.Detections) == 0 {
		return fmt.Errorf("selftest workload fired no detections; recovery would prove nothing")
	}
	fmt.Printf("reference run: %d ops, %d detection(s), final score %.1f\n",
		want.Ingested, len(want.Detections), want.Detections[0].Score)

	// Phase 1: durable ingest of the first 2/3, then crash.
	cut := (files * 2 / 3 / batch) * batch
	h1 := host.New(host.Config{CheckpointDir: dir, CheckpointEvery: every})
	s1, err := h1.Open("victim", host.SessionConfig{Engine: engCfg()})
	if err != nil {
		return err
	}
	if err := submitAll(s1, ops[:cut], batch); err != nil {
		return err
	}
	if err := s1.Flush(context.Background()); err != nil {
		return err
	}
	if err := s1.DurabilityErr(); err != nil {
		return fmt.Errorf("phase 1 durability: %w", err)
	}
	fmt.Printf("phase 1: ingested %d/%d ops durably (checkpoint every %d), now crashing the host\n",
		cut, len(ops), every)

	// Phase 2: recover into a fresh host and finish the attack.
	h2 := host.New(host.Config{CheckpointDir: dir, CheckpointEvery: every, Restore: true})
	s2, err := h2.Open("victim", host.SessionConfig{Engine: engCfg()})
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if got := s2.Engine().OpIndex(); got != int64(cut) {
		return fmt.Errorf("restored engine resumed at op %d, want %d", got, cut)
	}
	fmt.Printf("phase 2: restored session at op %d, finishing the attack\n", cut)
	if err := submitAll(s2, ops[cut:], batch); err != nil {
		return err
	}
	got, err := h2.CloseSession(context.Background(), "victim")
	if err != nil {
		return err
	}
	if err := s2.DurabilityErr(); err != nil {
		return fmt.Errorf("phase 2 durability: %w", err)
	}

	switch {
	case !reflect.DeepEqual(got.Reports, want.Reports):
		return fmt.Errorf("recovered scoreboard diverged from the uninterrupted run")
	case !reflect.DeepEqual(got.Detections, want.Detections):
		return fmt.Errorf("recovered detections diverged from the uninterrupted run")
	case got.Ingested != want.Ingested:
		return fmt.Errorf("recovered run ingested %d ops, reference %d", got.Ingested, want.Ingested)
	}
	fmt.Printf("recovered run is bit-identical to the uninterrupted run: %d ops, %d detection(s), score %.1f\n",
		got.Ingested, len(got.Detections), got.Detections[0].Score)
	return nil
}

// checkIntrospection fetches /debug/sessions from the live endpoint and
// verifies the snapshot lists every session with its ingest accounting.
func checkIntrospection(h *host.Host, addr string, want int) error {
	resp, err := http.Get("http://" + addr + "/debug/sessions")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /debug/sessions: status %d", resp.StatusCode)
	}
	var snap host.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("parse /debug/sessions: %w", err)
	}
	if snap.SessionsOpen != want || len(snap.Sessions) != want {
		return fmt.Errorf("snapshot lists %d sessions (rows: %d), want %d",
			snap.SessionsOpen, len(snap.Sessions), want)
	}
	for _, s := range snap.Sessions {
		if s.Ingested == 0 {
			return fmt.Errorf("session %q shows no ingested ops", s.ID)
		}
	}
	fmt.Printf("  (selftest: /debug/sessions lists all %d sessions)\n", want)
	return nil
}
