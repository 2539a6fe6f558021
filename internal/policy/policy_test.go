package policy

import (
	"math"
	"testing"

	"cryptodrop/internal/indicator"
)

// fakeContext is a canned policy Context.
type fakeContext struct {
	score       float64
	seen        map[indicator.ID]bool
	regSize     int
	accelerated bool
	accelLabel  string
	accelBonus  float64
	nonUnion    float64
	union       float64
}

func (f *fakeContext) Score() float64             { return f.score }
func (f *fakeContext) Seen(id indicator.ID) bool  { return f.seen[id] }
func (f *fakeContext) SeenCount() int             { return len(f.seen) }
func (f *fakeContext) RegistrySize() int          { return f.regSize }
func (f *fakeContext) Accelerated() bool          { return f.accelerated }
func (f *fakeContext) NonUnionThreshold() float64 { return f.nonUnion }
func (f *fakeContext) UnionThreshold() float64    { return f.union }
func (f *fakeContext) Accelerate(label string, bonus float64) {
	if f.accelerated {
		return
	}
	f.accelerated = true
	f.accelLabel = label
	f.accelBonus = bonus
	f.score += bonus
}

func defaultCtx() *fakeContext {
	return &fakeContext{seen: make(map[indicator.ID]bool), regSize: 5, nonUnion: 200, union: 140}
}

// TestUnionRequiresAllPrimaries pins the paper's union rule: the bonus
// fires exactly when all three primary indicators have been seen, once.
func TestUnionRequiresAllPrimaries(t *testing.T) {
	p := NewUnion(30)
	ctx := defaultCtx()
	for _, id := range indicator.Primaries()[:2] {
		ctx.seen[id] = true
		p.AfterAward(ctx)
		if ctx.accelerated {
			t.Fatalf("union fired with only %d primaries seen", len(ctx.seen))
		}
	}
	ctx.seen[indicator.EntropyDelta] = true
	p.AfterAward(ctx)
	if !ctx.accelerated || ctx.accelLabel != "union-bonus" || ctx.accelBonus != 30 {
		t.Fatalf("union did not fire correctly: %+v", ctx)
	}
	score := ctx.score
	p.AfterAward(ctx)
	if ctx.score != score {
		t.Fatal("union bonus applied twice")
	}
}

// TestUnionSecondariesDoNotCount pins that secondary indicators (however
// many) never satisfy the union requirement.
func TestUnionSecondariesDoNotCount(t *testing.T) {
	p := NewUnion(30)
	ctx := defaultCtx()
	ctx.seen[indicator.Deletion] = true
	ctx.seen[indicator.Funneling] = true
	ctx.seen[indicator.Honeyfile] = true
	p.AfterAward(ctx)
	if ctx.accelerated {
		t.Fatal("union fired on secondary indicators alone")
	}
}

// TestUnionDecide pins threshold selection: the non-union threshold
// normally, the lower union threshold once accelerated, never a higher one.
func TestUnionDecide(t *testing.T) {
	p := NewUnion(30)
	ctx := defaultCtx()
	ctx.score = 150
	if th, detect := p.Decide(ctx); th != 200 || detect {
		t.Fatalf("unaccelerated Decide = (%v, %v), want (200, false)", th, detect)
	}
	ctx.accelerated = true
	if th, detect := p.Decide(ctx); th != 140 || !detect {
		t.Fatalf("accelerated Decide = (%v, %v), want (140, true)", th, detect)
	}
	// A union threshold above the base one must not raise the bar.
	ctx.union = 400
	if th, _ := p.Decide(ctx); th != 200 {
		t.Fatalf("Decide picked the higher union threshold %v", th)
	}
}

// TestUnionDisabled pins the union ablation's composed form: a Majority
// with an unreachable quorum never accelerates, even with every primary
// seen, and judges the score against the non-union threshold.
func TestUnionDisabled(t *testing.T) {
	p := &Majority{Quorum: math.MaxInt}
	ctx := defaultCtx()
	for _, id := range indicator.Builtins() {
		ctx.seen[id.ID] = true
	}
	ctx.score = 199
	p.AfterAward(ctx)
	if ctx.accelerated {
		t.Fatal("unreachable quorum still accelerated")
	}
	if th, detect := p.Decide(ctx); th != 200 || detect {
		t.Fatalf("Decide = (%v, %v), want (200, false)", th, detect)
	}
}

// TestMajorityQuorum pins the majority-voting policy: acceleration at
// ceil(N/2)+... — a strict majority of the registry's distinct indicators.
func TestMajorityQuorum(t *testing.T) {
	p := &Majority{Bonus: 10}
	ctx := defaultCtx() // registry size 5 -> default quorum 3
	ctx.seen[indicator.Deletion] = true
	ctx.seen[indicator.Funneling] = true
	p.AfterAward(ctx)
	if ctx.accelerated {
		t.Fatal("majority fired below quorum")
	}
	ctx.seen[indicator.TypeChange] = true
	p.AfterAward(ctx)
	if !ctx.accelerated || ctx.accelLabel != "majority-quorum" || ctx.accelBonus != 10 {
		t.Fatalf("majority did not fire at quorum: %+v", ctx)
	}
}

// TestMajorityDecide pins threshold selection for the majority policy: its
// own threshold when set, the union threshold otherwise, once accelerated.
func TestMajorityDecide(t *testing.T) {
	p := &Majority{}
	ctx := defaultCtx()
	ctx.score = 150
	if th, detect := p.Decide(ctx); th != 200 || detect {
		t.Fatalf("unaccelerated Decide = (%v, %v), want (200, false)", th, detect)
	}
	ctx.accelerated = true
	if th, detect := p.Decide(ctx); th != 140 || !detect {
		t.Fatalf("accelerated Decide = (%v, %v), want (140, true)", th, detect)
	}
	p.Threshold = 100
	if th, detect := p.Decide(ctx); th != 100 || !detect {
		t.Fatalf("explicit-threshold Decide = (%v, %v), want (100, true)", th, detect)
	}
}

// TestMajorityExplicitQuorum pins that an explicit quorum overrides the
// registry-derived default.
func TestMajorityExplicitQuorum(t *testing.T) {
	p := &Majority{Quorum: 2}
	ctx := defaultCtx()
	ctx.seen[indicator.Deletion] = true
	ctx.seen[indicator.Funneling] = true
	p.AfterAward(ctx)
	if !ctx.accelerated {
		t.Fatal("explicit quorum of 2 did not fire with 2 seen")
	}
}
