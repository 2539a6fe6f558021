package core

import (
	"fmt"
	"math"
	"time"

	"cryptodrop/internal/indicator"
	"cryptodrop/internal/policy"
	"cryptodrop/internal/telemetry"
)

// This file is the seam between the measurement layer (the engine) and the
// pluggable layers above it: hook dispatch into the indicator registry, the
// award bookkeeping shared by every unit, and the policy callbacks.

// hookedUnit is one registry unit's subscription to a hook, flattened at
// engine construction so dispatch is a slice walk with no map lookups.
type hookedUnit struct {
	unit indicator.Unit
	id   indicator.ID
	once bool
}

// buildHooks flattens the registry into per-hook dispatch lists. Units are
// already in canonical ID order (the registry sorts), so units sharing a
// hook always evaluate in ID order — scoring is independent of registration
// order, and the default registry reproduces the historical award order
// (type change, then similarity, then entropy delta on a transform).
func (e *Engine) buildHooks() {
	for _, u := range e.reg.Units() {
		d := u.Decl()
		for _, h := range d.Hooks {
			if h < 1 || h > indicator.HookMax {
				continue
			}
			e.hooks[h] = append(e.hooks[h], hookedUnit{unit: u, id: d.ID, once: d.Once})
		}
	}
}

// measured carries the per-operation measurement products a hook exposes to
// the units: the new content's state, the previous version's state (both
// nil outside transform scope) and the delete-ownership verdict.
type measured struct {
	newState  *fileState
	prev      *fileState
	ownDelete bool
}

// runHook evaluates every unit subscribed to h against the current
// operation and awards whatever fires; proc-shard lock held. The scratch
// context lives in the procState so dispatch allocates nothing.
func (e *Engine) runHook(h indicator.Hook, ps *procState, opIdx int64, path string, m measured) {
	units := e.hooks[h]
	if len(units) == 0 {
		return
	}
	c := &ps.ctx
	c.e, c.ps, c.opIdx, c.path, c.m = e, ps, opIdx, path, m
	for i := range units {
		hu := &units[i]
		if hu.once && ps.indicatorSeen[hu.id] {
			continue
		}
		if pts, fired := hu.unit.Eval(h, c); fired {
			e.award(ps, hu.id, pts, opIdx, path)
		}
	}
}

// award adds points for an indicator occurrence and gives the policy its
// post-award look (where acceleration conditions can change); proc-shard
// lock held. path attributes the award in telemetry.
func (e *Engine) award(ps *procState, id indicator.ID, pts float64, opIdx int64, path string) {
	ps.indicatorSeen[id] = true
	ps.indicatorPoints[id] += pts
	ps.score += pts
	if len(ps.history) < maxHistory {
		ps.history = append(ps.history, ScorePoint{OpIndex: opIdx, Score: ps.score})
	}
	e.tel.fired(ps, id, pts, opIdx, path)
	if ps.spanOn {
		e.spans.Record(telemetry.Span{
			Name: "award " + e.indNames[id], Cat: "award", Lane: e.lane,
			Group: ps.pid, OpIndex: opIdx, Path: path,
			Detail: fmt.Sprintf("points=%g score=%g", pts, ps.score),
		}, time.Now(), 0)
	}
	e.pol.AfterAward(&ps.ctx)
}

// checkDetection asks the policy to judge the process against its effective
// threshold; proc-shard lock held. The fired detection — the Detection plus
// the scoreboard facts the audit bundle needs, captured under this lock —
// is returned for dispatch outside the lock.
func (e *Engine) checkDetection(ps *procState, opIdx int64) (firedDetection, bool) {
	if ps.detected {
		return firedDetection{}, false
	}
	c := &ps.ctx
	c.e, c.ps, c.opIdx = e, ps, opIdx
	threshold, detect := e.pol.Decide(c)
	if ps.spanOn {
		e.spans.Record(telemetry.Span{
			Name: "policy", Cat: "policy", Lane: e.lane,
			Group: ps.pid, OpIndex: opIdx,
			Detail: fmt.Sprintf("score=%g threshold=%g detect=%t", ps.score, threshold, detect),
		}, time.Now(), 0)
	}
	if !detect {
		return firedDetection{}, false
	}
	ps.detected = true
	e.tel.detected(ps)
	det := Detection{
		PID:        ps.pid,
		Score:      ps.score,
		Threshold:  threshold,
		Union:      ps.unionFired,
		OpIndex:    opIdx,
		Indicators: make(map[Indicator]float64, len(ps.indicatorPoints)),
	}
	for ind, pts := range ps.indicatorPoints {
		det.Indicators[ind] = pts
	}
	e.detMu.Lock()
	e.detections = append(e.detections, det)
	e.detMu.Unlock()
	return firedDetection{
		det:       det,
		filesLost: ps.filesTransformed,
		deletes:   ps.deletes,
	}, true
}

// evalCtx adapts one scoring step to the indicator- and policy-layer
// Context interfaces. One instance lives inside each procState (configured
// by runHook/checkDetection under the owning shard lock), so handing &ctx
// to an interface parameter never heap-allocates on the event path.
type evalCtx struct {
	e     *Engine
	ps    *procState
	opIdx int64
	path  string
	m     measured
}

var (
	_ indicator.Context = (*evalCtx)(nil)
	_ policy.Context    = (*evalCtx)(nil)
)

// Points implements indicator.Context.
func (c *evalCtx) Points() Points { return c.e.cfg.Points }

// Path implements indicator.Context.
func (c *evalCtx) Path() string { return c.path }

// StreamDeltaSuspicious implements indicator.Context.
func (c *evalCtx) StreamDeltaSuspicious() bool { return c.e.deltaSuspicious(c.ps) }

// PayloadStreamAvailable implements indicator.Context: the payload stream
// is gone when the backend never delivers it (NewCipherWithoutDelta) or
// when the host degraded the session at runtime (SetPayloadBlind).
func (c *evalCtx) PayloadStreamAvailable() bool {
	return !c.e.cfg.NewCipherWithoutDelta && !c.e.payloadBlind.Load()
}

// TypeChanged implements indicator.Context.
func (c *evalCtx) TypeChanged() bool {
	return c.m.prev != nil && c.m.newState != nil && c.m.newState.typ.ID != c.m.prev.typ.ID
}

// Dissimilar implements indicator.Context.
func (c *evalCtx) Dissimilar() bool {
	return c.m.prev != nil && c.m.newState != nil &&
		reliableDigest(c.m.prev) && c.e.dissimilar(c.m.prev.digest, c.m.newState.digest)
}

// FileEntropyDelta implements indicator.Context. Outside transform scope
// there is no delta; -Inf keeps any >= threshold comparison false.
func (c *evalCtx) FileEntropyDelta() float64 {
	if c.m.prev == nil || c.m.newState == nil {
		return math.Inf(-1)
	}
	return c.m.newState.entropy - c.m.prev.entropy
}

// EntropyDeltaThreshold implements indicator.Context.
func (c *evalCtx) EntropyDeltaThreshold() float64 { return c.e.cfg.EntropyDeltaThreshold }

// NewFileCipherLike implements indicator.Context: untyped data at
// near-maximal Shannon entropy — the shape of an encrypted copy (§V-C).
func (c *evalCtx) NewFileCipherLike() bool {
	return c.m.newState != nil && c.m.newState.typ.IsData() && c.m.newState.entropy > 7.0
}

// DeletedOwnFile implements indicator.Context.
func (c *evalCtx) DeletedOwnFile() bool { return c.m.ownDelete }

// TypesRead implements indicator.Context.
func (c *evalCtx) TypesRead() int { return len(c.ps.typesRead) }

// TypesWritten implements indicator.Context.
func (c *evalCtx) TypesWritten() int { return len(c.ps.typesWritten) }

// FunnelingThreshold implements indicator.Context.
func (c *evalCtx) FunnelingThreshold() int { return c.e.cfg.FunnelingThreshold }

// Score implements policy.Context.
func (c *evalCtx) Score() float64 { return c.ps.score }

// Seen implements policy.Context.
func (c *evalCtx) Seen(id indicator.ID) bool { return c.ps.indicatorSeen[id] }

// SeenCount implements policy.Context.
func (c *evalCtx) SeenCount() int { return len(c.ps.indicatorSeen) }

// RegistrySize implements policy.Context.
func (c *evalCtx) RegistrySize() int { return c.e.reg.Len() }

// Accelerated implements policy.Context.
func (c *evalCtx) Accelerated() bool { return c.ps.unionFired }

// Accelerate implements policy.Context: the one-time acceleration latch —
// bonus onto the score, a history step, and the labelled flight-recorder
// entry ("union-bonus" under the default policy).
func (c *evalCtx) Accelerate(label string, bonus float64) {
	ps := c.ps
	if ps.unionFired {
		return
	}
	ps.unionFired = true
	ps.score += bonus
	if len(ps.history) < maxHistory {
		ps.history = append(ps.history, ScorePoint{OpIndex: c.opIdx, Score: ps.score})
	}
	c.e.tel.accelerated(ps, label, bonus, c.opIdx)
	if ps.spanOn {
		c.e.spans.Record(telemetry.Span{
			Name: "award " + label, Cat: "award", Lane: c.e.lane,
			Group: ps.pid, OpIndex: c.opIdx,
			Detail: fmt.Sprintf("points=%g score=%g", bonus, ps.score),
		}, time.Now(), 0)
	}
}

// NonUnionThreshold implements policy.Context.
func (c *evalCtx) NonUnionThreshold() float64 { return c.e.cfg.NonUnionThreshold }

// UnionThreshold implements policy.Context.
func (c *evalCtx) UnionThreshold() float64 { return c.e.cfg.UnionThreshold }
