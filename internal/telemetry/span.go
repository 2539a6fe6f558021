package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Span is one timed step of the detection pipeline, captured by a
// SpanTracer: an ingest-queue wait, a measurement kernel run, a hook
// dispatch, an indicator award or a policy decision. Start and Dur are
// nanoseconds; Start is relative to the tracer's construction, so spans
// from every lane share one timeline.
type Span struct {
	// Seq is the global 1-based capture sequence number, assigned by the
	// tracer.
	Seq uint64 `json:"seq"`
	// Name labels the step ("queue-wait", "measure", "op close",
	// "award type-change", "policy", ...).
	Name string `json:"name"`
	// Cat is the pipeline stage: "ingest", "measure", "dispatch", "award"
	// or "policy".
	Cat string `json:"cat"`
	// Lane groups spans by their emitting pipeline instance — a host
	// session ID, or "engine" for a standalone engine. Lanes become
	// separate process rows in the Chrome trace viewer.
	Lane string `json:"lane,omitempty"`
	// Group is the scoring-group PID the step worked for (0 when the step
	// is not tied to one, e.g. a queue-wait covering a whole batch).
	Group int `json:"group,omitempty"`
	// OpIndex is the engine's protected-operation counter, when known.
	OpIndex int64 `json:"opIndex,omitempty"`
	// Path is the protected file the step concerned, when known.
	Path string `json:"path,omitempty"`
	// Detail carries preformatted step attributes ("memo=hit").
	Detail string `json:"detail,omitempty"`
	// Start is nanoseconds since the tracer epoch.
	Start int64 `json:"startNs"`
	// Dur is the span length in nanoseconds (0 for instant events).
	Dur int64 `json:"durNs"`
}

// SpanTracer is a lock-free, sampling ring buffer of Spans — the causal
// companion to the FlightRecorder. Recording a span costs one atomic
// increment plus one atomic pointer store; the sampling decision (Sample)
// is a single atomic increment. When the ring wraps, the oldest spans are
// overwritten and counted as dropped, never silently lost. A nil
// SpanTracer records nothing and never samples, so the engine's event path
// pays exactly one nil-check branch when tracing is disabled.
type SpanTracer struct {
	slots []atomic.Pointer[Span]
	pos   atomic.Uint64
	tick  atomic.Uint64
	every uint64
	epoch time.Time
}

// DefaultSpanCapacity is the default ring size.
const DefaultSpanCapacity = 16384

// NewSpanTracer returns a tracer holding the last capacity spans
// (DefaultSpanCapacity if capacity <= 0) and sampling one in sampleEvery
// units of work (1 — trace everything — if sampleEvery <= 0).
func NewSpanTracer(capacity, sampleEvery int) *SpanTracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	return &SpanTracer{
		slots: make([]atomic.Pointer[Span], capacity),
		every: uint64(sampleEvery),
		epoch: time.Now(),
	}
}

// Sample reports whether the next unit of traced work (one engine
// operation, one measurement, one queued batch) should record spans: true
// once every sampleEvery calls. Each caller makes one Sample decision per
// unit and propagates it to the unit's sub-steps, so a sampled operation is
// always captured whole. Nil-safe: a nil tracer never samples.
func (t *SpanTracer) Sample() bool {
	if t == nil {
		return false
	}
	return t.tick.Add(1)%t.every == 0
}

// Record captures one span. start is the step's wall-clock start and dur
// its length; the tracer converts them onto its own epoch-relative
// timeline and assigns the sequence number.
func (t *SpanTracer) Record(sp Span, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	sp.Start = start.Sub(t.epoch).Nanoseconds()
	sp.Dur = dur.Nanoseconds()
	seq := t.pos.Add(1)
	sp.Seq = seq
	t.slots[(seq-1)%uint64(len(t.slots))].Store(&sp)
}

// Recorded returns how many spans have ever been recorded (including any
// already overwritten).
func (t *SpanTracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.pos.Load()
}

// Dropped returns how many spans the ring has overwritten — the truncation
// a consumer must check before treating Spans() as complete.
func (t *SpanTracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	n := t.pos.Load()
	if c := uint64(len(t.slots)); n > c {
		return n - c
	}
	return 0
}

// Spans returns every buffered span in capture order. Safe to call while
// recording continues; spans captured concurrently may or may not appear.
func (t *SpanTracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, len(t.slots))
	for i := range t.slots {
		if sp := t.slots[i].Load(); sp != nil {
			out = append(out, *sp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (chrome://tracing, Perfetto): a complete event ("X") with microsecond
// timestamps, or a metadata event ("M") naming a process row.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes spans as Chrome trace-event JSON: each lane
// becomes a named process row (pid), each scoring group a thread (tid),
// and each span a complete "X" event with its detail in args. The output
// loads directly into chrome://tracing or Perfetto.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	// Assign deterministic pids: lanes sorted, 1-based.
	laneSet := make(map[string]bool)
	for _, sp := range spans {
		laneSet[laneOf(sp)] = true
	}
	lanes := make([]string, 0, len(laneSet))
	for l := range laneSet {
		lanes = append(lanes, l)
	}
	sort.Strings(lanes)
	lanePid := make(map[string]int, len(lanes))
	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans)+len(lanes))}
	for i, l := range lanes {
		lanePid[l] = i + 1
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: i + 1,
			Args: map[string]any{"name": l},
		})
	}
	for _, sp := range spans {
		args := map[string]any{"seq": sp.Seq}
		if sp.Detail != "" {
			args["detail"] = sp.Detail
		}
		if sp.Path != "" {
			args["path"] = sp.Path
		}
		if sp.OpIndex != 0 {
			args["opIndex"] = sp.OpIndex
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			Ts:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.Dur) / 1e3,
			Pid:  lanePid[laneOf(sp)],
			Tid:  sp.Group,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// WriteChromeTrace writes the tracer's buffered spans as Chrome
// trace-event JSON.
func (t *SpanTracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Spans())
}

// laneOf resolves a span's process-row label.
func laneOf(sp Span) string {
	if sp.Lane == "" {
		return "engine"
	}
	return sp.Lane
}
