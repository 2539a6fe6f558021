// Package policy is the detection-policy layer of the pipeline: it decides
// how per-indicator awards fuse into a detection verdict. The engine owns
// measurement and the indicator registry owns scoring; a Policy only reads
// the scoreboard through Context and controls two things — when a scoring
// group's detection is accelerated (the paper's union indication, a voting
// quorum, …) and which threshold its score is judged against.
//
// Union is the paper's default (§III-E): once all three primary indicators
// have been seen, a one-time bonus is added and the lower union threshold
// applies. Majority (Davies et al.) generalises the acceleration to "any
// quorum of distinct indicators", independent of class. Policies must be
// stateless per scoring group — all group state (score, seen set,
// acceleration latch) lives in the engine and is reached through Context —
// so one Policy value can serve any number of engines.
package policy

import "cryptodrop/internal/indicator"

// Context is a policy's window onto one scoring group's state. It is only
// valid for the duration of the call it is passed to; implementations are
// supplied by the engine with its lock held.
type Context interface {
	// Score is the group's current reputation score.
	Score() float64
	// Seen reports whether the indicator has fired at least once for the
	// group.
	Seen(indicator.ID) bool
	// SeenCount is the number of distinct indicators that have fired.
	SeenCount() int
	// RegistrySize is the number of indicator units registered with the
	// engine.
	RegistrySize() int
	// Accelerated reports whether this group's detection has already been
	// accelerated (the latch is one-time per group).
	Accelerated() bool
	// Accelerate latches acceleration for the group, adds bonus to its
	// score and records the step (telemetry counter, flight-recorder entry
	// under label, score-history point). Idempotent: once a group is
	// accelerated, further calls do nothing.
	Accelerate(label string, bonus float64)
	// NonUnionThreshold and UnionThreshold are the engine's configured
	// base and accelerated detection thresholds.
	NonUnionThreshold() float64
	UnionThreshold() float64
}

// Policy decides detection for a scoring group. AfterAward runs after every
// indicator award (the point where acceleration conditions can change);
// Decide runs whenever the engine re-evaluates the group against its
// threshold. Both run with the engine lock held and must not retain ctx.
type Policy interface {
	AfterAward(ctx Context)
	Decide(ctx Context) (threshold float64, detect bool)
}

// Union is the paper's detection policy: when every required primary
// indicator has been seen, the group's score gets a one-time bonus and the
// lower union threshold applies (§III-E). The zero value is not usable;
// construct with NewUnion.
type Union struct {
	required []indicator.ID
	bonus    float64
}

// NewUnion returns the paper's union+threshold policy. bonus is the
// one-time score bonus added when union fires. To ablate union indication,
// use a policy that never accelerates instead — Majority with an
// unreachable Quorum — which leaves the plain non-union threshold.
//
// The required set is the paper's three primary indicators — a constant,
// not whatever primaries happen to be registered. Ablating a primary out of
// the registry therefore leaves union unattainable rather than quietly
// shrinking the requirement to the survivors.
func NewUnion(bonus float64) *Union {
	return &Union{required: indicator.Primaries(), bonus: bonus}
}

// AfterAward fires union indication once all required indicators are seen.
func (u *Union) AfterAward(ctx Context) {
	if ctx.Accelerated() {
		return
	}
	for _, id := range u.required {
		if !ctx.Seen(id) {
			return
		}
	}
	ctx.Accelerate("union-bonus", u.bonus)
}

// Decide flags the group when its score reaches the effective threshold:
// the union threshold once union fired (when lower), the non-union
// threshold otherwise.
func (u *Union) Decide(ctx Context) (float64, bool) {
	threshold := ctx.NonUnionThreshold()
	if ctx.Accelerated() && ctx.UnionThreshold() < threshold {
		threshold = ctx.UnionThreshold()
	}
	return threshold, ctx.Score() >= threshold
}

// Majority is the voting-style policy (after Davies et al.): acceleration
// requires a quorum of distinct indicators — any indicators, primary or
// secondary — rather than the paper's specific primary union. With a
// larger registry this tolerates any single indicator being evaded while
// still demanding broad agreement before the lower threshold applies.
type Majority struct {
	// Quorum is the number of distinct fired indicators required. Zero
	// means a strict majority of the registered units (size/2 + 1).
	Quorum int
	// Bonus is added to the score when the quorum is reached. Zero adds
	// nothing — the quorum then only switches the threshold.
	Bonus float64
	// Threshold is the effective detection threshold once the quorum has
	// been reached. Zero means the engine's configured union threshold.
	Threshold float64
}

// AfterAward latches acceleration once the quorum of distinct indicators
// has fired.
func (m *Majority) AfterAward(ctx Context) {
	if ctx.Accelerated() {
		return
	}
	q := m.Quorum
	if q <= 0 {
		q = ctx.RegistrySize()/2 + 1
	}
	if ctx.SeenCount() >= q {
		ctx.Accelerate("majority-quorum", m.Bonus)
	}
}

// Decide applies the quorum threshold once accelerated, the non-union
// threshold otherwise.
func (m *Majority) Decide(ctx Context) (float64, bool) {
	threshold := ctx.NonUnionThreshold()
	if ctx.Accelerated() {
		t := m.Threshold
		if t == 0 {
			t = ctx.UnionThreshold()
		}
		if t < threshold {
			threshold = t
		}
	}
	return threshold, ctx.Score() >= threshold
}
