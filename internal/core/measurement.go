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
// A measurement has one path: read the whole content with no engine lock
// held, look it up in the memo cache (Config.MeasureCache), and run the
// kernels inline on a miss. The memo never changes a verdict; it only
// resolves content already measured anywhere in the fleet by hash lookup.

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

// stateCost estimates the resident bytes of a memoized state for the
// cache's byte accounting: the struct itself plus the digest's filters.
func stateCost(st *fileState) int64 {
	cost := int64(96)
	if st.digest != nil {
		cost += int64(st.digest.MemSize())
	}
	return cost
}

// runMeasure runs the kernels over content and, when key is set, fills the
// memo on the way out.
func (e *Engine) runMeasure(content []byte, key *measurecache.Key) *fileState {
	if tl := e.tel; tl != nil {
		t0 := time.Now()
		defer func() { tl.measureLat.ObserveDuration(time.Since(t0)) }()
	}
	// Measurements sample independently of the operation they serve: a
	// PreEvent snapshot belongs to no scored operation.
	if e.spans.Sample() {
		t0 := time.Now()
		detail := ""
		if key != nil {
			detail = "memo=store"
		}
		defer func() {
			e.spans.Record(telemetry.Span{
				Name: "measure", Cat: "measure", Lane: e.lane, Detail: detail,
			}, t0, time.Since(t0))
		}()
	}
	st := measureFile(content)
	if key != nil {
		e.memo.Put(*key, st, stateCost(st))
	}
	return st
}

// measure reads the file's whole content and measures it: memo cache
// first, then the kernels inline. The caller holds no engine lock. It
// returns nil when the content cannot be read (counted in telemetry — a
// read failure is not "empty content", e.g. the file was deleted in the
// window since the operation completed) or when skipEmpty is set and the
// file is empty.
func (e *Engine) measure(id uint64, skipEmpty bool) *fileState {
	content, err := e.src.Content(id)
	if err != nil {
		e.tel.readFailed()
		return nil
	}
	if skipEmpty && len(content) == 0 {
		return nil
	}
	if e.memo == nil {
		return e.runMeasure(content, nil)
	}
	key := measurecache.KeyOf(content)
	if v, ok := e.memo.Get(key); ok {
		if e.spans.Sample() {
			e.spans.Record(telemetry.Span{
				Name: "measure", Cat: "measure", Lane: e.lane, Detail: "memo=hit",
			}, time.Now(), 0)
		}
		return v.(*fileState)
	}
	return e.runMeasure(content, &key)
}

// wantContent reports whether any registered unit consumes measured file
// content.
func (e *Engine) wantContent() bool { return e.feats.Has(indicator.FeatContent) }

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
