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
	// sampled marks a cheap-tier state measured from only the file's leading
	// sample area: typ, digest and entropy then describe that prefix, while
	// size is still the full file size.
	sampled bool
	// sampleEntropy is the entropy of the leading sample area, recorded on
	// full measurements in sampled-tier sessions so entropy deltas against
	// sampled states compare like with like. Unset (zero) in full-tier
	// sessions, where it is never consulted.
	sampleEntropy float64
}

// prefixEntropy returns the entropy of the state's header sample area: the
// whole measurement for a sampled state, the recorded prefix entropy for a
// full state measured in a sampled-tier session.
func (st *fileState) prefixEntropy() float64 {
	if st.sampled {
		return st.entropy
	}
	return st.sampleEntropy
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
	// escalated records that, under the sampled measurement tier, this
	// process has been promoted to full measurement (first indicator
	// firing). Always false under TierFull.
	escalated bool
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
	// spanOn marks the operation currently scoring this process as sampled
	// for causal tracing: award and policy sub-spans record only while it
	// is set. Written and read under the owning shard lock.
	spanOn bool
	// sniff caches identified types of offset-0 read prefixes.
	sniff sniffCache
	// ctx is the scratch evaluation context handed to indicator units and
	// the policy; living here keeps hook dispatch allocation-free. Only
	// valid under the owning shard lock, reconfigured per scoring step.
	ctx evalCtx
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
	// Escalated reports whether the sampled measurement tier promoted the
	// process to full measurement. Always false under TierFull.
	Escalated bool
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
		Escalated:        ps.escalated,
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
