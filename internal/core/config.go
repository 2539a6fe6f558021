// Package core implements the paper's contribution: the CryptoDrop analysis
// engine (§IV), structured as the measurement layer of a three-layer
// detection pipeline.
//
//   - The measurement layer (this package) consumes the backend-neutral
//     filesystem operation stream, extracts per-event features — magic-type
//     sniffs, similarity digests, entropy deltas, delete/funnel bookkeeping —
//     and maintains the per-process reputation scoreboard.
//   - The indicator layer (internal/indicator) is a registry of pluggable
//     units mapping measured features to score awards. The default registry
//     is the paper's five indicators: three primary (file type change,
//     similarity, entropy delta — §III-A/B/C) and two secondary (deletion,
//     funneling — §III-D).
//   - The policy layer (internal/policy) fuses awards into detections. The
//     default is the paper's union indication + threshold (§III-E): once all
//     three primaries have been seen, the score is boosted and the detection
//     threshold drops.
//
// The engine only performs measurement work some registered unit declared a
// need for: a registry of content-free indicators never reads file content
// at all. Config.Indicators and Config.Policy swap the upper layers without
// touching this package.
package core

import (
	"cryptodrop/internal/audit"
	"cryptodrop/internal/indicator"
	"cryptodrop/internal/measurecache"
	"cryptodrop/internal/policy"
	"cryptodrop/internal/telemetry"
)

// Default thresholds from the paper (§IV-C1, §V-A).
const (
	// DefaultNonUnionThreshold is the reputation score at which a process
	// is flagged without union indication (the paper's experiments used
	// 200).
	DefaultNonUnionThreshold = 200.0
	// DefaultUnionThreshold is the effective threshold once union
	// indication has been observed for a process.
	DefaultUnionThreshold = 140.0
	// DefaultUnionBonus is added to a process's score the first time all
	// three primary indicators have been observed together.
	DefaultUnionBonus = 30.0
	// DefaultEntropyDeltaThreshold is the write-minus-read weighted mean
	// entropy delta considered suspicious (Δe ≥ 0.1).
	DefaultEntropyDeltaThreshold = 0.1
	// DefaultSimilarityMatchMax is the highest sdhash score still treated
	// as "no match": the paper expects near-zero scores for
	// ransomware-encrypted content.
	DefaultSimilarityMatchMax = 4
	// DefaultFunnelingThreshold is the minimum excess of distinct types
	// read over types written before funneling is flagged.
	DefaultFunnelingThreshold = 6
)

// Points assigns reputation score values to indicator events. Each field's
// calibrated default is declared by the owning indicator unit
// (internal/indicator); DefaultPoints assembles them from those
// declarations, so the table cannot drift from the units that consume it.
type Points = indicator.Points

// DefaultPoints returns the calibrated default point values: the per-unit
// fields from the indicator declarations, plus the policy-layer union
// bonus.
func DefaultPoints() Points {
	p := indicator.DefaultPoints()
	p.UnionBonus = DefaultUnionBonus
	return p
}

// Config configures the analysis engine.
type Config struct {
	// ProtectedRoot is the user documents directory the engine watches.
	// Operations outside it are ignored (§V-H: "CryptoDrop does not
	// inspect files outside of the user's documents directory").
	ProtectedRoot string
	// NonUnionThreshold is the score at which a process is flagged.
	NonUnionThreshold float64
	// UnionThreshold replaces NonUnionThreshold once union indication has
	// fired for the process.
	UnionThreshold float64
	// EntropyDeltaThreshold is the suspicious Δe bound.
	EntropyDeltaThreshold float64
	// SimilarityMatchMax is the highest similarity score treated as
	// complete dissimilarity.
	SimilarityMatchMax int
	// FunnelingThreshold is the types-read minus types-written excess
	// considered funneling.
	FunnelingThreshold int
	// Points are the per-indicator score values.
	Points Points
	// Indicators is the indicator registry the engine scores with. Nil
	// means indicator.Default() — the paper's five units. The engine only
	// performs the measurement work the registered units declare a need
	// for (indicator.Feature), so a registry without content-dependent
	// units never reads file content. Ablations are compositions:
	// Default().Without(ids...) drops indicators, and
	// Default().With(indicator.ByteWeightedEntropyDelta()) measures the
	// entropy means with plain byte weighting.
	Indicators *indicator.Registry
	// Policy decides how awards fuse into detections. Nil means the
	// paper's union+threshold policy with Points.UnionBonus; when a Policy
	// is set, UnionBonus is ignored (the policy owns acceleration
	// entirely). Ablating union indication is a policy that never
	// accelerates: &policy.Majority{Quorum: math.MaxInt}. The policy's
	// type and field values are part of the snapshot config hash, so a
	// policy whose engine is checkpointed must be plain data — no
	// pointers, maps or funcs, whose printed form is not stable.
	Policy policy.Policy
	// NewCipherWithoutDelta awards NewCipherFile for a new untyped
	// high-entropy file even when the process's read/write entropy delta is
	// not (yet) suspicious. Payload-blind backends — watchers that only see
	// completed files, never the read/write stream — set this: for them the
	// delta gate can never open, so without it the Class C encrypted-copy
	// shape would be invisible. Minifilter-style backends leave it false
	// (the default), preserving the paper's delta-gated behaviour. The
	// indicator layer sees this (together with the runtime SetPayloadBlind
	// switch) as "the FeatPayload feature is unavailable", via
	// indicator.Context.PayloadStreamAvailable.
	NewCipherWithoutDelta bool
	// MeasureCache, if set, memoizes file measurements by content hash:
	// before running the measurement kernels the engine looks the content up
	// in the cache, and identical bytes — across files, processes, and every
	// engine sharing the cache (a host fleet over deduplicated corpora) —
	// are measured exactly once. Measured states in the cache are immutable
	// and safe to share. Detections, scores and traces are bit-identical
	// with and without the cache; only the work performed changes.
	MeasureCache *measurecache.Cache
	// FamilyOf, if set, maps an acting PID to its scoring group (typically
	// the root ancestor of the process family). All processes in a group
	// share one scoreboard entry, so malware cannot dilute its score by
	// spreading the attack across spawned workers — the "family of
	// processes" the paper suspends (§IV). Nil scores each PID separately.
	FamilyOf func(pid int) int
	// OnDetection, if set, is invoked exactly once per flagged process at
	// the moment its score crosses the effective threshold.
	OnDetection func(Detection)
	// OnExonerate, if set, is invoked by ExonerateUndetected for each
	// scoring group the engine clears without a detection — the
	// "closed clean" verdict the recovery layer uses to release that
	// group's retained pre-images. Like FamilyOf and OnDetection it is
	// code, not configuration: it does not participate in the config
	// fingerprint and never affects scoring.
	OnExonerate func(group int)
	// Telemetry, if set, receives the engine's metrics: per-indicator fire
	// counters (series derived from the registry's declared names),
	// detection counters and score distributions, measurement latency
	// histograms and sampled shard lock-wait times. Nil (the
	// default) disables all metric collection; the event path then pays a
	// single nil-check branch.
	Telemetry *telemetry.Registry
	// FlightRecorder, if set, captures the ordered per-group sequence of
	// indicator firings so every Detection can be explained after the fact.
	FlightRecorder *telemetry.FlightRecorder
	// SpanTracer, if set, samples causal spans across the pipeline: one
	// Sample() decision per operation covers the operation's hook dispatch,
	// indicator awards and policy decision, and measurements sample
	// independently (a PreEvent snapshot belongs to no scored operation).
	// Nil (the default) disables tracing; the event path then pays a
	// single nil-check branch and scoring output is bit-identical.
	SpanTracer *telemetry.SpanTracer
	// AuditSink, if set, receives one self-contained audit bundle per
	// detection — per-indicator score provenance, touched/lost files,
	// config and registry fingerprint, measurement stats — emitted outside
	// all engine locks, right after OnDetection. Nil disables audit
	// assembly entirely.
	AuditSink audit.Sink
	// SessionID labels spans and audit bundles with the owning pipeline
	// instance (the host stamps its session ID here). Empty means "engine".
	// It never affects scoring.
	SessionID string
}

// DefaultConfig returns a Config with the paper's parameters, protecting
// root.
func DefaultConfig(root string) Config {
	return Config{
		ProtectedRoot:         root,
		NonUnionThreshold:     DefaultNonUnionThreshold,
		UnionThreshold:        DefaultUnionThreshold,
		EntropyDeltaThreshold: DefaultEntropyDeltaThreshold,
		SimilarityMatchMax:    DefaultSimilarityMatchMax,
		FunnelingThreshold:    DefaultFunnelingThreshold,
		Points:                DefaultPoints(),
	}
}

// Indicator identifies one of CryptoDrop's behavioural indicators. It is
// the indicator layer's unit ID; the name, class, feature needs and default
// points of each ID live in its unit declaration (internal/indicator).
type Indicator = indicator.ID

// The indicators. TypeChange, Similarity and EntropyDelta are primary;
// Deletion and Funneling are secondary. Honeyfile is the opt-in decoy-touch
// unit (not in the default registry).
const (
	IndicatorTypeChange   = indicator.TypeChange
	IndicatorSimilarity   = indicator.Similarity
	IndicatorEntropyDelta = indicator.EntropyDelta
	IndicatorDeletion     = indicator.Deletion
	IndicatorFunneling    = indicator.Funneling
	IndicatorHoneyfile    = indicator.Honeyfile
)

// PrimaryIndicators lists the three primary indicators whose union triggers
// accelerated detection under the default policy.
func PrimaryIndicators() []Indicator { return indicator.Primaries() }

// Detection reports a process crossing its detection threshold.
type Detection struct {
	// PID is the flagged process.
	PID int
	// Score is the reputation score at detection time.
	Score float64
	// Threshold is the effective threshold that was crossed.
	Threshold float64
	// Union reports whether the policy had accelerated detection for the
	// process (union indication under the default policy).
	Union bool
	// OpIndex is the number of protected-scope operations the engine had
	// processed when detection occurred.
	OpIndex int64
	// Indicators are the per-indicator point totals at detection time.
	Indicators map[Indicator]float64
}
