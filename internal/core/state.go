package core

import (
	"sort"

	"cryptodrop/internal/entropy"
	"cryptodrop/internal/magic"
	"cryptodrop/internal/sdhash"
)

// fileState is the cached measurement of a file's previous version, keyed by
// stable file ID so the state survives renames and moves (§III: "the state
// of the file must be carefully tracked each time a file is moved").
type fileState struct {
	typ     magic.Type
	digest  *sdhash.Digest // nil when the content could not be digested
	size    int64
	entropy float64
}

// procState is the per-process scoreboard entry.
type procState struct {
	pid   int
	score float64
	// delta tracks the weighted read/write entropy means.
	delta entropy.DeltaTracker
	// indicatorSeen marks indicators observed at least once.
	indicatorSeen map[Indicator]bool
	// indicatorPoints accumulates score contributions per indicator.
	indicatorPoints map[Indicator]float64
	// typesRead / typesWritten hold distinct type IDs for funneling.
	typesRead    map[string]bool
	typesWritten map[string]bool
	// unionFired records the policy's one-time acceleration latch (the
	// union bonus under the default policy).
	unionFired bool
	// detected records that OnDetection already ran for this process.
	detected bool
	// deletes counts protected files removed.
	deletes int
	// filesTransformed counts protected files whose rewrite completed.
	filesTransformed int
	// extsTouched records the protected file extensions this process
	// read or wrote, in first-touch order (Fig. 5 data).
	extsTouched []string
	extSeen     map[string]bool
	// dirsTouched records protected directories accessed (Fig. 4 data).
	dirsTouched map[string]bool
	// history records the score trajectory (capped, see maxHistory).
	history []ScorePoint
	// sniff caches identified types of offset-0 read prefixes.
	sniff sniffCache
}

// ScorePoint is one step of a process's score trajectory.
type ScorePoint struct {
	// OpIndex is the engine's protected-operation counter at this step.
	OpIndex int64
	// Score is the reputation score after the step.
	Score float64
}

// maxHistory bounds the per-process trajectory length.
const maxHistory = 20000

// newProcState returns an empty scoreboard entry; byteWeighted selects the
// entropy means' weighting (Engine.byteWeighted).
func newProcState(pid int, byteWeighted bool) *procState {
	ps := &procState{
		pid:             pid,
		indicatorSeen:   make(map[Indicator]bool),
		indicatorPoints: make(map[Indicator]float64),
		typesRead:       make(map[string]bool),
		typesWritten:    make(map[string]bool),
		extSeen:         make(map[string]bool),
		dirsTouched:     make(map[string]bool),
	}
	ps.delta.SetUnweighted(byteWeighted)
	return ps
}

// touchExt records a file extension access in first-touch order.
func (ps *procState) touchExt(ext string) {
	if ext == "" || ps.extSeen[ext] {
		return
	}
	ps.extSeen[ext] = true
	ps.extsTouched = append(ps.extsTouched, ext)
}

// ProcessReport is a snapshot of one process's scoreboard entry.
type ProcessReport struct {
	// PID is the process.
	PID int
	// Score is the current reputation score.
	Score float64
	// Union reports whether union indication fired.
	Union bool
	// Detected reports whether the process crossed its threshold.
	Detected bool
	// IndicatorsSeen lists indicators observed at least once, sorted.
	IndicatorsSeen []Indicator
	// IndicatorPoints are per-indicator score totals.
	IndicatorPoints map[Indicator]float64
	// ReadEntropyMean and WriteEntropyMean are the weighted means.
	ReadEntropyMean  float64
	WriteEntropyMean float64
	// Deletes counts protected files removed by the process.
	Deletes int
	// FilesTransformed counts protected files whose rewrite completed.
	FilesTransformed int
	// History is the score trajectory in operation order (capped).
	History []ScorePoint
	// ExtensionsTouched lists protected extensions in first-touch order.
	ExtensionsTouched []string
	// DirsTouched lists protected directories accessed, sorted.
	DirsTouched []string
}

func (ps *procState) report() ProcessReport {
	r := ProcessReport{
		PID:              ps.pid,
		Score:            ps.score,
		Union:            ps.unionFired,
		Detected:         ps.detected,
		IndicatorPoints:  make(map[Indicator]float64, len(ps.indicatorPoints)),
		ReadEntropyMean:  ps.delta.ReadMean(),
		WriteEntropyMean: ps.delta.WriteMean(),
		Deletes:          ps.deletes,
		FilesTransformed: ps.filesTransformed,
	}
	for ind := range ps.indicatorSeen {
		r.IndicatorsSeen = append(r.IndicatorsSeen, ind)
	}
	sort.Slice(r.IndicatorsSeen, func(i, j int) bool { return r.IndicatorsSeen[i] < r.IndicatorsSeen[j] })
	for ind, pts := range ps.indicatorPoints {
		r.IndicatorPoints[ind] = pts
	}
	r.History = append(r.History, ps.history...)
	r.ExtensionsTouched = append(r.ExtensionsTouched, ps.extsTouched...)
	for d := range ps.dirsTouched {
		r.DirsTouched = append(r.DirsTouched, d)
	}
	sort.Strings(r.DirsTouched)
	return r
}

// sniffKey identifies a sniffed read payload: the file it came from, the
// payload length and a hash of the leading bytes. Keying on the file ID
// keeps the cache exact across distinct files that share a prefix (two
// OOXML containers can agree on far more than 16 leading bytes).
type sniffKey struct {
	id uint64
	n  int
	h  uint64
}

// sniffCacheCap bounds the per-process sniff cache.
const sniffCacheCap = 64

// sniffCache is a small per-process LRU mapping a read payload's prefix to
// its identified type, so a process re-reading the same file does not pay
// for magic.Identify on every offset-0 read. It is only touched under e.mu.
type sniffCache struct {
	m     map[sniffKey]magic.Type
	order []sniffKey // least recently used first
}

// prefixHash is FNV-1a over the first 16 bytes of data.
func prefixHash(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	n := len(data)
	if n > 16 {
		n = 16
	}
	h := uint64(offset64)
	for _, b := range data[:n] {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

func (c *sniffCache) key(id uint64, data []byte) sniffKey {
	return sniffKey{id: id, n: len(data), h: prefixHash(data)}
}

// get returns the cached type for the payload, refreshing its recency.
func (c *sniffCache) get(k sniffKey) (magic.Type, bool) {
	t, ok := c.m[k]
	if !ok {
		return magic.Type{}, false
	}
	for i, ek := range c.order {
		if ek == k {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = k
			break
		}
	}
	return t, true
}

// put caches the identified type, evicting the least recently used entry
// when full.
func (c *sniffCache) put(k sniffKey, t magic.Type) {
	if c.m == nil {
		c.m = make(map[sniffKey]magic.Type, sniffCacheCap)
	}
	if _, ok := c.m[k]; !ok && len(c.order) >= sniffCacheCap {
		delete(c.m, c.order[0])
		copy(c.order, c.order[1:])
		c.order = c.order[:len(c.order)-1]
	}
	if _, ok := c.m[k]; !ok {
		c.order = append(c.order, k)
	}
	c.m[k] = t
}
