package main

import (
	"hash/maphash"
	"sort"
	"time"

	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

// Filter altitudes of the harness's own filters. The bracket sits above
// every filter the Monitor attaches, so it sees an operation first on the
// way down and last on the way up; the two markers sit just above and just
// below the engine's filter (altitude 328000) and open a window around its
// PreOp and PostOp.
const (
	altitudeBracket     = 900000
	altitudeMarkerAbove = 328001
	altitudeMarkerBelow = 327999
)

// bracket times every monitored vfs call as the calling program sees it:
// from the outermost PreOp to the outermost PostOp. A vetoed operation
// never reaches PostOp and is not counted. One goroutine issues the
// operations of a unit, so the fields need no locking.
type bracket struct {
	window *engineWindow // traced pass only
	first  time.Time     // the unit's first operation
	start  time.Time
	latUs  []float64
	// rollbackFrom is set by the detection handler; the PostOp of the
	// operation that ran the rollback closes the interval.
	rollbackFrom time.Time
	rollbackMs   []float64
	// touched collects every path an operation named, for the files-lost
	// check.
	touched map[string]bool
}

func (b *bracket) Name() string { return "perfbench-bracket" }

func (b *bracket) PreOp(op *vfs.Op) error {
	b.touched[op.Path] = true
	if op.NewPath != "" {
		b.touched[op.NewPath] = true
	}
	if b.window != nil {
		b.window.op = true
	}
	b.start = time.Now()
	if b.first.IsZero() {
		b.first = b.start
	}
	return nil
}

func (b *bracket) PostOp(*vfs.Op) {
	now := time.Now()
	d := now.Sub(b.start).Nanoseconds()
	b.latUs = append(b.latUs, float64(d)/1e3)
	if !b.rollbackFrom.IsZero() {
		b.rollbackMs = append(b.rollbackMs, float64(now.Sub(b.rollbackFrom).Nanoseconds())/1e6)
		b.rollbackFrom = time.Time{}
	}
	if b.window != nil {
		b.window.op = false
	}
}

// engineWindow tracks whether a monitored operation is in flight (op) and
// whether the engine's filter is running (in), so backend time spent inside
// the engine (content reads for measurement, rollback restores) is told
// apart from the operation's own backend call, and backend calls outside
// any operation (the harness's own checks) are not counted at all.
type engineWindow struct{ op, in bool }

// marker is one edge of the engine window: above opens it on the way down
// and closes it on the way up, below does the reverse.
type marker struct {
	w     *engineWindow
	above bool
}

func (m marker) Name() string {
	if m.above {
		return "perfbench-marker-above"
	}
	return "perfbench-marker-below"
}

func (m marker) PreOp(*vfs.Op) error { m.w.in = m.above; return nil }
func (m marker) PostOp(*vfs.Op)      { m.w.in = !m.above }

// timedBackend is a vfs.Backend that times every call into the backend it
// wraps. The traced facade pass mounts one directly over the in-memory
// backend (inner) and one over the Monitor's versioned backend (outer), so
// outer minus inner is the versioned layer's own time.
type timedBackend struct {
	inner  vfs.Backend
	window *engineWindow
	ns     *int64
	// Outer wrapper only: backend time inside the engine window, the
	// engine's full-content reads, and a hook run after each pre-image
	// capture.
	inEngineNs   *int64
	onContent    func([]byte)
	afterCapture func()
}

var (
	_ vfs.Backend   = (*timedBackend)(nil)
	_ vfs.PreImager = (*timedBackend)(nil)
	_ vfs.Cloner    = (*timedBackend)(nil)
)

func (t *timedBackend) done(start time.Time) {
	if !t.window.op {
		return
	}
	d := time.Since(start).Nanoseconds()
	*t.ns += d
	if t.inEngineNs != nil && t.window.in {
		*t.inEngineNs += d
	}
}

func (t *timedBackend) Open(id uint64, path string, create, truncate bool) error {
	defer t.done(time.Now())
	return t.inner.Open(id, path, create, truncate)
}

func (t *timedBackend) Read(id uint64, off, n int64) ([]byte, int64, error) {
	start := time.Now()
	data, size, err := t.inner.Read(id, off, n)
	t.done(start)
	if err == nil && off == 0 && n < 0 && t.onContent != nil && t.window.in {
		t.onContent(data)
	}
	return data, size, err
}

func (t *timedBackend) Write(id uint64, off int64, data []byte) (int64, error) {
	defer t.done(time.Now())
	return t.inner.Write(id, off, data)
}

func (t *timedBackend) Close(id uint64) error {
	defer t.done(time.Now())
	return t.inner.Close(id)
}

func (t *timedBackend) Delete(id uint64) error {
	defer t.done(time.Now())
	return t.inner.Delete(id)
}

func (t *timedBackend) Rename(id uint64, oldPath, newPath string) error {
	defer t.done(time.Now())
	return t.inner.Rename(id, oldPath, newPath)
}

func (t *timedBackend) Stat(id uint64) (int64, error) {
	defer t.done(time.Now())
	return t.inner.Stat(id)
}

// PreImage forwards the router's pre-image offer to a versioned backend
// underneath; it is where pre-image capture happens.
func (t *timedBackend) PreImage(id uint64, path string, pid int, kind vfs.OpKind) {
	pi, ok := t.inner.(vfs.PreImager)
	if !ok {
		return
	}
	start := time.Now()
	pi.PreImage(id, path, pid, kind)
	t.done(start)
	if t.afterCapture != nil {
		t.afterCapture()
	}
}

// CloneBackend keeps FS.Clone copy-on-write through the wrapper.
func (t *timedBackend) CloneBackend() vfs.Backend {
	if c, ok := t.inner.(vfs.Cloner); ok {
		return c.CloneBackend()
	}
	return nil
}

// contentLog records the contents that reach measurement: how many bytes
// repeat content already seen in the run, and a bounded set of distinct
// contents for timing the measurement kernels on.
type contentLog struct {
	seed     maphash.Seed
	seen     map[uint64]bool
	total    int64
	repeated int64
	distinct [][]byte
	kept     int64
	maxKept  int64
}

func newContentLog(maxKept int64) *contentLog {
	return &contentLog{seed: maphash.MakeSeed(), seen: make(map[uint64]bool), maxKept: maxKept}
}

func (c *contentLog) add(b []byte) {
	if len(b) == 0 {
		return
	}
	h := maphash.Bytes(c.seed, b)
	c.total += int64(len(b))
	if c.seen[h] {
		c.repeated += int64(len(b))
		return
	}
	c.seen[h] = true
	if c.kept+int64(len(b)) <= c.maxKept {
		c.distinct = append(c.distinct, append([]byte(nil), b...))
		c.kept += int64(len(b))
	}
}

func (c *contentLog) repeatShare() float64 { return share(float64(c.repeated), float64(c.total)) }

// spanTotals is what the engine's own spans say about the core layer.
type spanTotals struct {
	dispatchSelfNs  int64 // op spans minus the measure spans inside them
	measureNs       int64
	measureSampleNs int64
	measures        int64
	memoHits        int64
}

// attributeSpans folds a tracer's spans into layer totals. Measurement is
// synchronous under the default configuration, so a measure span that lies
// inside an op span's interval ran on behalf of that op.
func attributeSpans(spans []telemetry.Span) spanTotals {
	var t spanTotals
	var ops []telemetry.Span
	var measures []telemetry.Span
	for _, sp := range spans {
		switch sp.Cat {
		case "dispatch":
			ops = append(ops, sp)
		case "measure":
			measures = append(measures, sp)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	inside := make([]int64, len(ops))
	for _, m := range measures {
		t.measures++
		t.measureNs += m.Dur
		if containsWord(m.Detail, "memo=hit") {
			t.memoHits++
		}
		if containsWord(m.Detail, "tier=sampled") {
			t.measureSampleNs += m.Dur
		}
		i := sort.Search(len(ops), func(i int) bool { return ops[i].Start > m.Start }) - 1
		if i >= 0 && ops[i].Lane == m.Lane && m.Start+m.Dur <= ops[i].Start+ops[i].Dur {
			inside[i] += m.Dur
		}
	}
	for i, op := range ops {
		t.dispatchSelfNs += op.Dur - inside[i]
	}
	return t
}

// containsWord reports whether the space-separated detail has word.
func containsWord(detail, word string) bool {
	for len(detail) > 0 {
		i := 0
		for i < len(detail) && detail[i] != ' ' {
			i++
		}
		if detail[:i] == word {
			return true
		}
		if i == len(detail) {
			break
		}
		detail = detail[i+1:]
	}
	return false
}

// histSum returns the sum of a registry histogram, 0 when absent.
func histSum(s telemetry.Snapshot, name string) float64 {
	if h, ok := s.Histograms[name]; ok {
		return h.Sum
	}
	return 0
}

// histCount returns the observation count of a registry histogram.
func histCount(s telemetry.Snapshot, name string) float64 {
	if h, ok := s.Histograms[name]; ok {
		return float64(h.Count)
	}
	return 0
}
