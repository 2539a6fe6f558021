package host

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// This file is the host's fleet-introspection surface: a point-in-time
// Snapshot of every open session (queue depth, backpressure and degrade
// state, ingest accounting, last detection), the host-wide measurement-cache
// hit rate, and the slow-op log, plus the HTTP handler cdhost mounts at
// /debug/sessions. Snapshots read only atomics and the session map — they
// never touch engine locks — so polling the endpoint cannot stall scoring.

// slowLogCapacity bounds the slow-op ring. Overwritten entries are counted
// in Snapshot.SlowOpsDropped, never silently discarded.
const slowLogCapacity = 256

// LastDetection summarises a session's most recent detection.
type LastDetection struct {
	// PID is the detected process.
	PID int `json:"pid"`
	// Score and Union are the detection's score and union-indication state.
	Score float64 `json:"score"`
	Union bool    `json:"union"`
	// OpIndex is the engine's operation counter at detection.
	OpIndex int64 `json:"opIndex"`
	// AtNs is the wall-clock detection time, Unix nanoseconds.
	AtNs int64 `json:"atNs"`
}

// SessionSnapshot is one session's row in the host snapshot.
type SessionSnapshot struct {
	// ID is the session's host-assigned identifier.
	ID string `json:"id"`
	// Direct reports an unqueued session (no queue columns apply).
	Direct bool `json:"direct,omitempty"`
	// QueueLen and QueueCap are the ingest queue's current depth and
	// capacity, in batches; both zero for direct sessions.
	QueueLen int `json:"queueLen"`
	QueueCap int `json:"queueCap"`
	// Degraded reports payload-blind scoring; Saturations counts
	// submissions that found the queue full (blocking or not).
	Degraded    bool  `json:"degraded"`
	Saturations int64 `json:"saturations"`
	// Ingested counts ops applied; ShedBytes counts payload bytes stripped
	// after degradation.
	Ingested  int64 `json:"ingested"`
	ShedBytes int64 `json:"shedBytes"`
	// IdleNs is how long ago a snapshot or idle check first saw the
	// session's op count where it is now (never more than the true idle).
	IdleNs int64 `json:"idleNs"`
	// Detections counts the session's detections; LastDetection describes
	// the most recent one (nil when none fired).
	Detections    int64          `json:"detections"`
	LastDetection *LastDetection `json:"lastDetection,omitempty"`
}

// CacheSnapshot is the shared measurement cache's state, with the derived
// hit rate.
type CacheSnapshot struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int64  `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Capacity  int64  `json:"capacity"`
	// HitRate is hits / (hits + misses), zero before any lookup.
	HitRate float64 `json:"hitRate"`
}

// SlowOp is one entry of the slow-op log.
type SlowOp struct {
	// Session is the session that applied the op.
	Session string `json:"session"`
	// Kind is the event kind ("write", "delete", …; "baseline" for
	// PreEvent-only ops) and Path the protected path, when the op had one.
	Kind string `json:"kind"`
	Path string `json:"path,omitempty"`
	// PID is the op's scoring group.
	PID int `json:"pid"`
	// DurNs is the end-to-end apply latency; AtNs the start time.
	DurNs int64 `json:"durNs"`
	AtNs  int64 `json:"atNs"`
}

// Snapshot is a point-in-time view of the host fleet.
type Snapshot struct {
	// SessionsOpen is the number of open sessions; Sessions their rows,
	// sorted by ID.
	SessionsOpen int               `json:"sessionsOpen"`
	Sessions     []SessionSnapshot `json:"sessions"`
	// BackpressureWaits counts blocking submissions host-wide; Degrades
	// counts sessions that fell to payload-blind scoring.
	BackpressureWaits int64 `json:"backpressureWaits"`
	Degrades          int64 `json:"degrades"`
	// Cache is the host's measurement memo cache state; every host has one.
	Cache *CacheSnapshot `json:"cache,omitempty"`
	// SlowOpThresholdNs is the armed slow-op threshold (zero: log off);
	// SlowOps the logged entries, oldest first; SlowOpsDropped how many
	// entries the bounded ring overwrote.
	SlowOpThresholdNs int64    `json:"slowOpThresholdNs,omitempty"`
	SlowOps           []SlowOp `json:"slowOps,omitempty"`
	SlowOpsDropped    int64    `json:"slowOpsDropped,omitempty"`
}

// Snapshot captures the host's current state. It is safe to call
// concurrently with ingest and costs no engine locks.
func (h *Host) Snapshot() Snapshot {
	h.mu.Lock()
	sessions := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })

	now := time.Now().UnixNano()
	snap := Snapshot{
		SessionsOpen:      len(sessions),
		Sessions:          make([]SessionSnapshot, 0, len(sessions)),
		BackpressureWaits: h.bpCount.Load(),
		Degrades:          h.degCount.Load(),
	}
	for _, s := range sessions {
		ss := SessionSnapshot{
			ID:            s.id,
			Direct:        s.direct,
			Degraded:      s.degraded.Load(),
			Saturations:   s.saturations.Load(),
			Ingested:      s.ingested.Load(),
			ShedBytes:     s.shedBytes.Load(),
			IdleNs:        now - s.activeAt(now),
			Detections:    s.detCount.Load(),
			LastDetection: s.lastDet.Load(),
		}
		if !s.direct {
			ss.QueueLen = len(s.queue)
			ss.QueueCap = cap(s.queue)
		}
		snap.Sessions = append(snap.Sessions, ss)
	}
	st := h.cfg.MeasureCache.Stats()
	snap.Cache = &CacheSnapshot{
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		Entries: int64(st.Entries), Bytes: st.Bytes, Capacity: st.Capacity,
	}
	if total := st.Hits + st.Misses; total > 0 {
		snap.Cache.HitRate = float64(st.Hits) / float64(total)
	}
	if h.slow != nil {
		snap.SlowOpThresholdNs = int64(h.slow.threshold)
		snap.SlowOps, snap.SlowOpsDropped = h.slow.snapshot()
	}
	return snap
}

// IntrospectionHandler serves the host snapshot as indented JSON — the
// /debug/sessions endpoint.
func (h *Host) IntrospectionHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h.Snapshot())
	})
}

// slowLog is a bounded, mutex-guarded ring of SlowOp entries. note runs only
// for ops that already crossed the latency threshold, so the lock is far off
// the common path.
type slowLog struct {
	threshold time.Duration

	mu      sync.Mutex
	buf     []SlowOp
	start   int // index of the oldest entry
	n       int // live entries
	dropped int64
}

func newSlowLog(threshold time.Duration, capacity int) *slowLog {
	return &slowLog{threshold: threshold, buf: make([]SlowOp, capacity)}
}

// note records one slow op, overwriting the oldest entry (and counting the
// loss) when the ring is full.
func (l *slowLog) note(session string, op *Op, d time.Duration, at time.Time) {
	kind := "baseline"
	ev := op.Event
	if ev.Kind == 0 && op.PreEvent != nil {
		ev = *op.PreEvent
	} else if ev.Kind != 0 {
		kind = ev.Kind.String()
	}
	entry := SlowOp{
		Session: session, Kind: kind, Path: ev.Path, PID: ev.PID,
		DurNs: int64(d), AtNs: at.UnixNano(),
	}
	l.mu.Lock()
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = entry
		l.n++
	} else {
		l.buf[l.start] = entry
		l.start = (l.start + 1) % len(l.buf)
		l.dropped++
	}
	l.mu.Unlock()
}

// snapshot returns the logged entries oldest-first and the overwrite count.
func (l *slowLog) snapshot() ([]SlowOp, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowOp, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.buf[(l.start+i)%len(l.buf)]
	}
	return out, l.dropped
}
