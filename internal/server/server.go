// Package server is the detection-as-a-service ingest plane: an HTTP server
// that terminates the wire protocol (package wire) and feeds per-tenant
// sessions on an embedded host.Host. One process serves many tenants; each
// tenant authenticates with a bearer token from the hot-reloadable config
// (package config), is throttled by its own token bucket (package
// ratelimit), and owns a namespace of sessions keyed "tenant/session".
//
// The service contract, end to end:
//
//   - Ops are never dropped. Admission control refuses work — 429 with
//     Retry-After on a rate limit or an overloaded ingest queue, 409 on a
//     sequence gap — and the client retransmits from the acknowledged
//     position. A session under sustained pressure degrades to
//     payload-blind scoring (the PR 4 machinery) rather than shedding
//     events.
//   - Ingest is idempotent. Every frame carries the producer's op position;
//     the server skips prefixes it already admitted and refuses gaps, so
//     retransmits and reconnects after either side crashes converge on
//     exactly-once application.
//   - Drain is lossless. Drain stops admission (503 + draining), flushes
//     every queue, checkpoints durable sessions (PR 8), and reports; a
//     restarted server resumes each session from its checkpointed
//     position.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cryptodrop/internal/core"
	"cryptodrop/internal/host"
	"cryptodrop/internal/server/config"
	"cryptodrop/internal/server/ratelimit"
	"cryptodrop/internal/server/wire"
	"cryptodrop/internal/telemetry"
)

// Options configures a Server beyond its host and tenant table.
type Options struct {
	// ProtectedRoot is the engine's protected directory for new sessions.
	// Producers stream paths from their own filesystems, so the default ""
	// becomes "/" — inspect everything, let producers pre-filter.
	ProtectedRoot string
	// Telemetry receives the server's counters and latency histograms; nil
	// disables. Flight and Tracer, when set, are mounted on /debug.
	Telemetry *telemetry.Registry
	// Flight and Tracer back /debug/flight and /debug/trace; may be nil.
	Flight *telemetry.FlightRecorder
	// Tracer, when set, is every session engine's span tracer, so the
	// sampled ops of streamed sessions appear on /debug/trace. May be nil.
	Tracer *telemetry.SpanTracer
	// OverloadRetryAfter is the wait hinted on a 429 from a saturated ingest
	// queue (a rate-limit 429 computes its own). Default 500ms.
	OverloadRetryAfter time.Duration
}

// Server terminates the wire protocol onto a host.Host.
type Server struct {
	host  *host.Host
	cfg   *config.Loader
	limit *ratelimit.Registry
	mux   *http.ServeMux
	opts  Options

	draining atomic.Bool

	mu       sync.Mutex
	sessions map[string]*sessionState

	frames        *telemetry.Counter
	opsAccepted   *telemetry.Counter
	opsDuplicate  *telemetry.Counter
	authFailures  *telemetry.Counter
	rateRefusals  *telemetry.Counter
	overloads     *telemetry.Counter
	gaps          *telemetry.Counter
	badFrames     *telemetry.Counter
	frameLatency  *telemetry.Histogram
	streamLatency *telemetry.Histogram
}

// sessionState is the server's per-session admission ledger. accepted is
// the op position admitted to the host queue — ahead of Session.Ingested()
// by whatever is queued — and is the position the server acknowledges, so a
// producer never retransmits ops that are merely still in flight.
type sessionState struct {
	mu       sync.Mutex
	sess     *host.Session
	accepted int64
}

// New builds a Server around h drawing tenants from loader.
func New(h *host.Host, loader *config.Loader, opts Options) *Server {
	if opts.ProtectedRoot == "" {
		opts.ProtectedRoot = "/"
	}
	if opts.OverloadRetryAfter <= 0 {
		opts.OverloadRetryAfter = 500 * time.Millisecond
	}
	s := &Server{
		host:     h,
		cfg:      loader,
		opts:     opts,
		sessions: make(map[string]*sessionState),
	}
	s.limit = ratelimit.NewRegistry(func(name string) (float64, float64) {
		if t := loader.Current().TenantByName(name); t != nil {
			return t.RateOps, t.BurstOps
		}
		return 0, 1
	})
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s.frames = reg.Counter("server_frames_total")
	s.opsAccepted = reg.Counter("server_ops_accepted_total")
	s.opsDuplicate = reg.Counter("server_ops_duplicate_total")
	s.authFailures = reg.Counter("server_auth_failures_total")
	s.rateRefusals = reg.Counter("server_rate_refusals_total")
	s.overloads = reg.Counter("server_overload_refusals_total")
	s.gaps = reg.Counter("server_sequence_gaps_total")
	s.badFrames = reg.Counter("server_bad_frames_total")
	s.frameLatency = reg.Histogram("server_frame_seconds", telemetry.DefaultLatencyBuckets())
	s.streamLatency = reg.Histogram("server_stream_seconds", telemetry.DefaultLatencyBuckets())

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/session", s.handleSession)
	s.mux.HandleFunc("/v1/flush", s.handleFlush)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.Handle("/debug/sessions", h.IntrospectionHandler())
	s.mux.Handle("/", telemetry.Handler(reg, opts.Flight, opts.Tracer))
	return s
}

// Handler returns the server's mux: the /v1 ingest API, /healthz, and the
// observability endpoints (/metrics, /debug/sessions, /debug/trace, pprof).
func (s *Server) Handler() http.Handler { return s.mux }

// Reload re-reads the tenant table and re-parameterizes live rate buckets.
// A config that fails to parse leaves the previous table in force.
func (s *Server) Reload() error {
	if err := s.cfg.Reload(); err != nil {
		return err
	}
	s.limit.Reload()
	return nil
}

// ReloadLimits re-parameterizes live rate buckets from the current config —
// the hook for reloads the config.Loader already performed (mtime watch).
func (s *Server) ReloadLimits() { s.limit.Reload() }

// Drain stops admission (new streams answer 503 + draining), then shuts the
// host down: every queue flushes, durable sessions checkpoint, and the
// final per-session reports return. ctx bounds the wait.
func (s *Server) Drain(ctx context.Context) ([]host.SessionReport, error) {
	s.draining.Store(true)
	return s.host.Shutdown(ctx)
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// authenticate resolves the request's bearer token to a tenant.
func (s *Server) authenticate(r *http.Request) *config.Tenant {
	auth := r.Header.Get("Authorization")
	token, ok := strings.CutPrefix(auth, "Bearer ")
	if !ok {
		return nil
	}
	return s.cfg.Current().TenantByToken(strings.TrimSpace(token))
}

// session returns the admission ledger for tenant's session name, opening
// the host session on first use (or re-attaching after a restart, where the
// restored Ingested() position seeds the ledger).
func (s *Server) session(t *config.Tenant, name string) (*sessionState, error) {
	key := t.Name + "/" + name
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.sessions[key]; ok {
		return st, nil
	}
	ecfg := core.DefaultConfig(s.opts.ProtectedRoot)
	ecfg.SpanTracer = s.opts.Tracer
	sess, err := s.host.Open(key, host.SessionConfig{
		Engine:       ecfg,
		QueueDepth:   t.QueueDepth,
		DegradeAfter: t.DegradeAfter,
	})
	if errors.Is(err, host.ErrSessionExists) {
		sess, _ = s.host.Get(key)
		err = nil
	}
	if err != nil {
		return nil, err
	}
	st := &sessionState{sess: sess, accepted: sess.Ingested()}
	s.sessions[key] = st
	return st, nil
}

// writeAck writes status plus the JSON ack body.
func writeAck(w http.ResponseWriter, status int, ack wire.Ack) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if ack.RetryAfterMs > 0 {
		secs := (ack.RetryAfterMs + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ack)
}

// ackFor fills the session-position fields of an ack.
func (st *sessionState) ackFor(session string) wire.Ack {
	st.mu.Lock()
	accepted := st.accepted
	st.mu.Unlock()
	return wire.Ack{
		Session:    session,
		Accepted:   accepted,
		Ingested:   st.sess.Ingested(),
		Degraded:   st.sess.Degraded(),
		Detections: st.sess.DetectionCount(),
	}
}

// readerPool holds the 64 KiB stream readers handleIngest reads bodies
// through, so a request does not allocate one.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// handleIngest terminates one wire stream: header, then frames until EOF,
// each frame admission-checked (sequence, rate limit, queue) before its ops
// enter the session. The first refusal ends the stream with a status the
// client maps back to a typed sentinel; a clean EOF acks the position.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	defer func() { s.streamLatency.ObserveDuration(time.Since(start)) }()

	if s.draining.Load() {
		writeAck(w, http.StatusServiceUnavailable, wire.Ack{Code: wire.CodeDraining, Error: "server draining", RetryAfterMs: 1000})
		return
	}
	tenant := s.authenticate(r)
	if tenant == nil {
		s.authFailures.Inc()
		writeAck(w, http.StatusUnauthorized, wire.Ack{Code: wire.CodeUnauthorized, Error: wire.ErrUnauthorized.Error()})
		return
	}
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r.Body)
	defer func() {
		br.Reset(nil)
		readerPool.Put(br)
	}()
	hdr, err := wire.ReadHeader(br)
	if err != nil {
		s.badFrames.Inc()
		writeAck(w, http.StatusBadRequest, wire.Ack{Code: wire.CodeBadFrame, Error: err.Error()})
		return
	}
	st, err := s.session(tenant, hdr.Session)
	if err != nil {
		// Host refused the open: it is closing (drain raced us) or closed.
		writeAck(w, http.StatusServiceUnavailable, wire.Ack{Session: hdr.Session, Code: wire.CodeDraining, Error: err.Error(), RetryAfterMs: 1000})
		return
	}
	frames := wire.NewFrameReader(br)
	for {
		frameStart := time.Now()
		f, err := frames.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.badFrames.Inc()
			writeAck(w, http.StatusBadRequest, wire.Ack{Session: hdr.Session, Code: wire.CodeBadFrame, Error: err.Error()})
			return
		}
		s.frames.Inc()
		if status, ack := s.admit(tenant, st, f); status != 0 {
			ack.Session = hdr.Session
			writeAck(w, status, ack)
			return
		}
		s.frameLatency.ObserveDuration(time.Since(frameStart))
	}
	writeAck(w, http.StatusOK, st.ackFor(hdr.Session))
}

// admit runs one frame through the admission ladder: sequence check (dup
// skip / gap refusal), tenant rate limit, then a non-blocking submit to the
// session queue. A zero status means the frame (or its novel suffix) was
// admitted; otherwise the returned status+ack refuse the stream.
func (s *Server) admit(tenant *config.Tenant, st *sessionState, f wire.Frame) (int, wire.Ack) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if f.Seq > st.accepted {
		s.gaps.Inc()
		return http.StatusConflict, wire.Ack{
			Accepted: st.accepted,
			Code:     wire.CodeGap,
			Error:    fmt.Sprintf("sequence gap: frame at %d, accepted %d", f.Seq, st.accepted),
		}
	}
	ops := f.Ops
	if covered := st.accepted - f.Seq; covered > 0 {
		// Retransmit overlap: skip ops this ledger already admitted.
		if covered >= int64(len(ops)) {
			s.opsDuplicate.Add(int64(len(ops)))
			return 0, wire.Ack{}
		}
		s.opsDuplicate.Add(covered)
		ops = ops[covered:]
	}
	if len(ops) == 0 {
		return 0, wire.Ack{}
	}
	if ok, wait := s.limit.Get(tenant.Name).TakeN(len(ops)); !ok {
		s.rateRefusals.Inc()
		return http.StatusTooManyRequests, wire.Ack{
			Accepted:     st.accepted,
			Code:         wire.CodeRateLimited,
			Error:        wire.ErrRateLimited.Error(),
			RetryAfterMs: wait.Milliseconds(),
		}
	}
	if err := st.sess.TrySubmit(ops...); err != nil {
		switch {
		case errors.Is(err, host.ErrOverloaded):
			s.overloads.Inc()
			return http.StatusTooManyRequests, wire.Ack{
				Accepted:     st.accepted,
				Code:         wire.CodeOverloaded,
				Error:        err.Error(),
				RetryAfterMs: s.opts.OverloadRetryAfter.Milliseconds(),
			}
		case errors.Is(err, host.ErrSessionClosed):
			return http.StatusGone, wire.Ack{Accepted: st.accepted, Code: wire.CodeClosed, Error: err.Error()}
		default:
			return http.StatusInternalServerError, wire.Ack{Accepted: st.accepted, Error: err.Error()}
		}
	}
	st.accepted += int64(len(ops))
	s.opsAccepted.Add(int64(len(ops)))
	return 0, wire.Ack{}
}

// lookup authenticates r and resolves its ?session= to a live ledger.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*sessionState, string, bool) {
	tenant := s.authenticate(r)
	if tenant == nil {
		s.authFailures.Inc()
		writeAck(w, http.StatusUnauthorized, wire.Ack{Code: wire.CodeUnauthorized, Error: wire.ErrUnauthorized.Error()})
		return nil, "", false
	}
	name := r.URL.Query().Get("session")
	if name == "" {
		writeAck(w, http.StatusBadRequest, wire.Ack{Code: wire.CodeBadFrame, Error: "missing session parameter"})
		return nil, "", false
	}
	s.mu.Lock()
	st, ok := s.sessions[tenant.Name+"/"+name]
	s.mu.Unlock()
	if !ok {
		// Not in the ledger — but a restarted server may hold a restored
		// host session the producer is asking about before re-streaming.
		if s.draining.Load() {
			writeAck(w, http.StatusServiceUnavailable, wire.Ack{Session: name, Code: wire.CodeDraining, Error: "server draining", RetryAfterMs: 1000})
			return nil, "", false
		}
		st2, err := s.session(tenant, name)
		if err != nil {
			writeAck(w, http.StatusNotFound, wire.Ack{Session: name, Code: wire.CodeClosed, Error: "unknown session"})
			return nil, "", false
		}
		st = st2
	}
	return st, name, true
}

// handleSession answers the producer's position query: GET
// /v1/session?session=name → the ack the client resumes from.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	st, name, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeAck(w, http.StatusOK, st.ackFor(name))
}

// handleFlush blocks until the session's queue has drained: POST
// /v1/flush?session=name. The ack's Ingested then equals Accepted.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	st, name, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if err := st.sess.Flush(r.Context()); err != nil {
		writeAck(w, http.StatusServiceUnavailable, wire.Ack{Session: name, Error: err.Error()})
		return
	}
	writeAck(w, http.StatusOK, st.ackFor(name))
}

// handleHealth is the liveness probe; draining flips it to 503 so load
// balancers stop routing before the listener closes.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}
