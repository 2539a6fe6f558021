package core

import (
	"time"

	"cryptodrop/internal/entropy"
	"cryptodrop/internal/indicator"
	"cryptodrop/internal/magic"
	"cryptodrop/internal/measurecache"
	"cryptodrop/internal/sdhash"
	"cryptodrop/internal/telemetry"
)

// This file is the content side of the measurement layer: reading a file's
// bytes through the ContentSource and turning them into a fileState (magic
// type, similarity digest, size, Shannon entropy). All of it is gated on
// the registry's declared feature needs — when no registered unit consumes
// FeatContent, the engine never calls the ContentSource at all.
//
// A measurement has one path: read the content with no engine lock held,
// look it up in the memo, and run the kernels inline on a miss. Two
// optimisations can shortcut the kernels, neither of which changes any
// verdict:
//
//   - the measurement memo cache (Config.MeasureCache) resolves content
//     already measured anywhere in the fleet by hash lookup;
//   - the sampled tier (Config.Tier = TierSampled) reads and measures only
//     the file's header area until the process earns escalation.

// measureFile computes the cached state for content.
func measureFile(content []byte) *fileState {
	st := &fileState{
		typ:     magic.Identify(content),
		size:    int64(len(content)),
		entropy: entropy.Shannon(content),
	}
	if d, err := sdhash.Compute(content); err == nil {
		st.digest = d
	}
	return st
}

// measureSampled computes the cheap-tier state from the file's leading
// sample: exact magic identification (the sample always covers
// magic.SniffLen), prefix entropy and a prefix similarity digest. size is
// the file's full size.
func measureSampled(sample []byte, fullSize int64) *fileState {
	st := &fileState{
		typ:     magic.Identify(sample),
		size:    fullSize,
		entropy: entropy.Shannon(sample),
		sampled: true,
	}
	st.sampleEntropy = st.entropy
	if d, err := sdhash.Compute(sample); err == nil {
		st.digest = d
	}
	return st
}

// Memo-key mode flags: the measurement flavour is part of the cache key, so
// a sampled-tier state can never be served to a full-tier measurement (or
// across different sample sizes). The sample size occupies the high bits.
const (
	memoFull       uint32 = 0 // plain full-content measurement
	memoFullPrefix uint32 = 1 // full content + recorded prefix entropy
	memoSampled    uint32 = 2 // prefix-only cheap-tier measurement
)

// memoMode returns the memo key mode for a measurement at the given tier
// under this engine's configuration.
func (e *Engine) memoMode(sampled bool) uint32 {
	if sampled {
		return memoSampled | uint32(e.sampleN)<<2
	}
	if e.cfg.Tier == TierSampled {
		return memoFullPrefix | uint32(e.sampleN)<<2
	}
	return memoFull
}

// stateCost estimates the resident bytes of a memoized state for the
// cache's byte accounting: the struct itself plus the digest's filters.
func stateCost(st *fileState) int64 {
	cost := int64(96)
	if st.digest != nil {
		cost += int64(st.digest.MemSize())
	}
	return cost
}

// measureSpec is one prepared measurement: the captured content (or header
// sample), its tier flavour and the memo key to fill on completion.
type measureSpec struct {
	content  []byte
	fullSize int64 // sampled mode: the file's total size
	sampled  bool
	// memoKey is filled into the memo cache after the kernels run.
	memoKey measurecache.Key
	useMemo bool
}

// spanDetail names the measurement flavour for a causal span: the ladder
// tier and whether the result feeds the memo cache.
func (sp *measureSpec) spanDetail() string {
	d := "tier=full"
	if sp.sampled {
		d = "tier=sampled"
	}
	if sp.useMemo {
		d += " memo=store"
	}
	return d
}

// runMeasure runs the kernels over a prepared measurement and fills the
// memo on the way out.
func (e *Engine) runMeasure(sp measureSpec) *fileState {
	if tl := e.tel; tl != nil {
		t0 := time.Now()
		defer func() { tl.measureLat.ObserveDuration(time.Since(t0)) }()
	}
	// Measurements sample independently of the operation they serve: a
	// PreEvent snapshot belongs to no scored operation.
	if e.spans.Sample() {
		t0 := time.Now()
		defer func() {
			e.spans.Record(telemetry.Span{
				Name: "measure", Cat: "measure", Lane: e.lane, Detail: sp.spanDetail(),
			}, t0, time.Since(t0))
		}()
	}
	var st *fileState
	if sp.sampled {
		st = measureSampled(sp.content, sp.fullSize)
	} else {
		st = measureFile(sp.content)
		if e.cfg.Tier == TierSampled {
			// Full measurements in a sampled-tier session also record the
			// header-area entropy, so deltas against sampled previous
			// versions compare prefix against prefix.
			n := min(e.sampleN, len(sp.content))
			st.sampleEntropy = entropy.Shannon(sp.content[:n])
		}
	}
	if sp.useMemo {
		e.memo.Put(sp.memoKey, st, stateCost(st))
	}
	return st
}

// measure reads the file's content at the requested tier and measures it:
// memo cache first, then the kernels inline. The caller holds no engine
// lock. It returns nil when the content cannot be read (counted in
// telemetry — a read failure is not "empty content", e.g. the file was
// deleted in the window since the operation completed) or when skipEmpty
// is set and the file is empty.
func (e *Engine) measure(id uint64, sampled, skipEmpty bool) *fileState {
	var sp measureSpec
	if sampled {
		data, size, err := readRange(e.src, id, 0, int64(e.sampleN))
		if err != nil {
			e.tel.readFailed()
			return nil
		}
		sp = measureSpec{content: data, fullSize: size, sampled: true}
	} else {
		content, err := e.src.Content(id)
		if err != nil {
			e.tel.readFailed()
			return nil
		}
		sp = measureSpec{content: content, fullSize: int64(len(content))}
	}
	if skipEmpty && len(sp.content) == 0 {
		return nil
	}
	if e.memo != nil {
		// A sampled key must also discriminate the full size: two files may
		// share a header sample yet differ in length, and size participates
		// in digest-reliability verdicts.
		if sampled {
			sp.memoKey = measurecache.KeyOfSeeded(sp.content, uint64(sp.fullSize), e.memoMode(true))
		} else {
			sp.memoKey = measurecache.KeyOf(sp.content, e.memoMode(false))
		}
		if v, ok := e.memo.Get(sp.memoKey); ok {
			if e.spans.Sample() {
				detail := "memo=hit tier=full"
				if sampled {
					detail = "memo=hit tier=sampled"
				}
				e.spans.Record(telemetry.Span{
					Name: "measure", Cat: "measure", Lane: e.lane, Detail: detail,
				}, time.Now(), 0)
			}
			return v.(*fileState)
		}
		sp.useMemo = true
	}
	return e.runMeasure(sp)
}

// wantContent reports whether any registered unit consumes measured file
// content.
func (e *Engine) wantContent() bool { return e.feats.Has(indicator.FeatContent) }

// snapshot caches the current content state of the file with the given ID
// if not already cached. The content read and measurement run without any
// engine lock held.
func (e *Engine) snapshot(id uint64, sampled bool) {
	if e.files.has(id) {
		return
	}
	if st := e.measure(id, sampled, true); st != nil {
		e.files.storeIfMissing(id, st)
	}
}

// needsContent reports whether the operation evaluates a file
// transformation and therefore needs the file's current content measured;
// the caller holds the proc-shard lock. Always false when no registered
// unit consumes content.
func (e *Engine) needsContent(ev *Event) bool {
	if !e.wantContent() {
		return false
	}
	switch ev.Kind {
	case EvClose:
		return ev.Wrote
	case EvRename:
		return e.inRoot(ev.NewPath) && (ev.ReplacedID != 0 || e.files.has(ev.FileID))
	}
	return false
}

// escalated reports whether pid's scoring group has been promoted to full
// measurement, without creating a scoreboard entry.
func (e *Engine) escalated(pid int) bool {
	if e.cfg.FamilyOf != nil {
		pid = e.cfg.FamilyOf(pid)
	}
	sh := e.procs.shard(pid)
	sh.mu.Lock()
	ps := sh.m[pid]
	esc := ps != nil && ps.escalated
	sh.mu.Unlock()
	return esc
}

// tierSampled reports whether pid's next measurement should use the cheap
// sampled tier: the session runs the ladder and the process has not yet
// earned escalation.
func (e *Engine) tierSampled(pid int) bool {
	return e.cfg.Tier == TierSampled && !e.escalated(pid)
}

// minReliableFeatures is the feature count above which a digest is always
// trusted for a dissimilarity verdict.
const minReliableFeatures = 8

// reliableDigest reports whether the previous version's digest can support
// a dissimilarity verdict: either it has plenty of features, or its feature
// density is high enough that the features are characteristic content
// rather than chance windows in random-like data (≥ 1 feature per 256
// bytes). Chance features in ciphertext-like streams occur orders of
// magnitude more sparsely.
func reliableDigest(st *fileState) bool {
	if st.digest == nil {
		return false
	}
	fc := st.digest.FeatureCount()
	return fc >= minReliableFeatures || int64(fc)*256 >= st.size
}

// dissimilar reports whether new content is completely dissimilar from the
// previous digest: either its comparison score is at or below the match
// ceiling, or the new content is undigestable (as ciphertext is) while the
// old version was digestable.
func (e *Engine) dissimilar(prev *sdhash.Digest, next *sdhash.Digest) bool {
	if next == nil {
		return true
	}
	return prev.Compare(next) <= e.cfg.SimilarityMatchMax
}
