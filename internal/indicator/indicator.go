// Package indicator is the indicator layer of the detection pipeline: the
// catalogue of behavioural signals the engine scores. Each indicator is a
// self-contained Unit that declares, in one place, everything the rest of
// the system derives from it — its ID, its human-readable name (used by
// String, telemetry series and flight-recorder entries), its class (primary
// indicators participate in union indication), the measurement features it
// consumes, the evaluation hooks it listens on and its default point
// values. The engine owns measurement (package core extracts features from
// the event stream) and the policy layer owns detection (package policy
// fuses awards into a verdict); a Unit only maps measured features to score
// contributions.
//
// The five paper indicators (CryptoLock §III) form the Default registry.
// Additional signals — the SentryFS-style Honeyfile unit shipped here, or
// units defined outside this package — are composed in per Config, not by
// editing the engine: Default().With(unit) yields a new registry, and
// Without(id) removes units for ablation studies. A Unit must not import
// the engine; it sees the engine only through the Context interface.
package indicator

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ID identifies one behavioural indicator. IDs order the dispatch of units
// that share a hook, so scoring is a function of the registry's contents,
// never of its registration order.
type ID int

// The built-in indicators. TypeChange, Similarity and EntropyDelta are the
// paper's primary indicators; Deletion and Funneling its secondary ones
// (§III-D). Honeyfile is the opt-in SentryFS-style decoy-touch signal and is
// not part of the default registry.
const (
	TypeChange ID = iota + 1
	Similarity
	EntropyDelta
	Deletion
	Funneling
	Honeyfile
)

// String returns the indicator's declared name ("unknown" for IDs no
// built-in unit declares). Names are never written twice: String, telemetry
// series labels and flight-recorder entries all read the same declaration.
func (i ID) String() string {
	if name, ok := builtinNames[i]; ok {
		return name
	}
	return "unknown"
}

// Class separates the paper's indicator tiers.
type Class int

const (
	// Primary indicators carry union indication (§III-E).
	Primary Class = iota + 1
	// Secondary indicators add evidence but do not gate union.
	Secondary
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Primary:
		return "primary"
	case Secondary:
		return "secondary"
	default:
		return "unknown"
	}
}

// Feature is a bit set naming the measurement-layer products a unit
// consumes. The engine unions the feature sets of the registered units and
// skips extracting anything nobody declared — disabling every
// content-dependent indicator really does stop the engine reading file
// content.
type Feature uint32

const (
	// FeatContent is measured file content: the magic type, similarity
	// digest and Shannon entropy of a protected file's previous and new
	// versions, read through the ContentSource.
	FeatContent Feature = 1 << iota
	// FeatPayload is the read/write payload stream: the weighted entropy
	// delta between what a process reads and what it writes. It is the
	// feature a payload-blind backend (or a degraded host session) cannot
	// supply.
	FeatPayload
	// FeatTypeSniff is offset-0 read type identification: the distinct
	// type sets behind funneling.
	FeatTypeSniff
	// FeatCreator is file-creator bookkeeping: who created each file,
	// distinguishing own-temp-file deletion from destruction of user data.
	FeatCreator
	// FeatByteWeighting measures the FeatPayload read/write means with
	// plain byte weighting (w = b) instead of the paper's entropy-operation
	// weighting (w = 0.125×⌊e⌉×b). Only the ByteWeightedEntropyDelta
	// ablation unit declares it; the engine reads it once, when built.
	FeatByteWeighting
)

// Has reports whether f contains all bits of want.
func (f Feature) Has(want Feature) bool { return f&want == want }

// Hook names a fixed evaluation point in the engine's scoring flow. The
// engine decides when each hook runs (that sequencing is part of the
// measurement layer's contract); units decide what to conclude there.
type Hook int

const (
	// HookWrite runs after a payload write folded into the stream
	// measurements.
	HookWrite Hook = iota + 1
	// HookClose runs when a written handle closes, whether or not the
	// file's content could be read — the touch-level signal.
	HookClose
	// HookDelete runs when a protected file is removed.
	HookDelete
	// HookRename runs for each protected-tree side of a rename: once for
	// the source path when it lies in the tree, once for the destination
	// path when it does. Like HookClose it is a touch-level signal,
	// dispatched whether or not the rename led to a measured
	// transformation.
	HookRename
	// HookFunnel runs after the process's distinct read/write type sets
	// changed.
	HookFunnel
	// HookNewFile runs when a brand-new file's measurement completes (no
	// previous version exists).
	HookNewFile
	// HookTransform runs when a completed rewrite is measured against the
	// file's cached previous version.
	HookTransform

	// HookMax is the highest hook value; dispatch tables size off it.
	HookMax = HookTransform
)

// Decl is a unit's static declaration: the single source the engine,
// telemetry, String() and DefaultPoints all derive from.
type Decl struct {
	// ID is the indicator's identity in scoreboards and detections.
	ID ID
	// Name labels the indicator everywhere a string is needed.
	Name string
	// Class is the indicator's tier.
	Class Class
	// Features are the measurement products the unit's Eval consumes.
	Features Feature
	// Hooks are the evaluation points the unit listens on.
	Hooks []Hook
	// Once limits the unit to a single award per scoring group.
	Once bool
	// DefaultPoints writes the unit's calibrated default score values into
	// a Points table; nil when the unit reads no Points field.
	DefaultPoints func(*Points)
}

// Unit is one pluggable indicator: a declaration plus the evaluation that
// turns measured features into a score contribution. Eval runs with the
// scoring group's lock held and must not retain ctx.
type Unit interface {
	// Decl returns the unit's static declaration.
	Decl() Decl
	// Eval inspects the measured state at hook h and returns the points to
	// award. fired=false awards nothing.
	Eval(h Hook, ctx Context) (points float64, fired bool)
}

// Context is the window a Unit gets onto the engine's measured state for
// the operation being scored. It exposes semantic predicates over the
// measurement layer's features rather than raw structures, so units stay
// independent of the engine's internals (and of each other).
type Context interface {
	// Points returns the engine's per-indicator score table.
	Points() Points
	// Path is the protected file path that triggered the hook.
	Path() string

	// StreamDeltaSuspicious reports whether the process's write-minus-read
	// weighted entropy delta currently exceeds the configured threshold
	// (FeatPayload).
	StreamDeltaSuspicious() bool
	// PayloadStreamAvailable reports whether the backend delivers the
	// read/write payload stream at all. Payload-blind backends and degraded
	// host sessions return false; units gating on FeatPayload-derived
	// evidence should waive those gates when the feature cannot exist.
	PayloadStreamAvailable() bool

	// TypeChanged reports whether the rewrite changed the file's magic type
	// (HookTransform, FeatContent).
	TypeChanged() bool
	// Dissimilar reports whether the new content is completely dissimilar
	// from the previous version's reliable similarity digest
	// (HookTransform, FeatContent).
	Dissimilar() bool
	// FileEntropyDelta returns the rewrite's file-level entropy increase
	// (HookTransform, FeatContent).
	FileEntropyDelta() float64
	// EntropyDeltaThreshold returns the configured suspicious Δe bound.
	EntropyDeltaThreshold() float64
	// NewFileCipherLike reports whether a brand-new file's content is
	// untyped high-entropy data — the shape of an encrypted copy
	// (HookNewFile, FeatContent).
	NewFileCipherLike() bool

	// DeletedOwnFile reports whether the deleted file was created by the
	// acting process itself (HookDelete, FeatCreator).
	DeletedOwnFile() bool

	// TypesRead and TypesWritten return the sizes of the process's distinct
	// read/written type sets (HookFunnel, FeatTypeSniff).
	TypesRead() int
	TypesWritten() int
	// FunnelingThreshold returns the configured read-over-write type excess.
	FunnelingThreshold() int
}

// Registry is an immutable set of indicator units. Composition (With,
// Without) returns new registries, so a registry can be shared across
// engines; Units always returns the units in canonical ID order, making
// every derived behaviour independent of registration order.
type Registry struct {
	units []Unit
}

// NewRegistry returns a registry holding exactly the given units. Duplicate
// IDs keep the first unit registered under that ID.
func NewRegistry(units ...Unit) *Registry {
	r := &Registry{}
	seen := make(map[ID]bool, len(units))
	for _, u := range units {
		if u == nil || seen[u.Decl().ID] {
			continue
		}
		seen[u.Decl().ID] = true
		r.units = append(r.units, u)
	}
	sort.Slice(r.units, func(i, j int) bool { return r.units[i].Decl().ID < r.units[j].Decl().ID })
	return r
}

// Default returns the paper's indicator set: the three primary and two
// secondary units of CryptoLock §III.
func Default() *Registry {
	return NewRegistry(typeChangeUnit{}, similarityUnit{}, entropyDeltaUnit{}, deletionUnit{}, funnelingUnit{})
}

// With returns a new registry with the given units added (existing IDs are
// replaced).
func (r *Registry) With(units ...Unit) *Registry {
	merged := make([]Unit, 0, len(r.units)+len(units))
	replaced := make(map[ID]bool, len(units))
	for _, u := range units {
		if u != nil {
			replaced[u.Decl().ID] = true
		}
	}
	for _, u := range r.units {
		if !replaced[u.Decl().ID] {
			merged = append(merged, u)
		}
	}
	merged = append(merged, units...)
	return NewRegistry(merged...)
}

// Without returns a new registry with the units of the given IDs removed.
func (r *Registry) Without(ids ...ID) *Registry {
	drop := make(map[ID]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	var kept []Unit
	for _, u := range r.units {
		if !drop[u.Decl().ID] {
			kept = append(kept, u)
		}
	}
	return NewRegistry(kept...)
}

// Units returns the registered units in canonical ID order. The returned
// slice must not be mutated.
func (r *Registry) Units() []Unit {
	if r == nil {
		return nil
	}
	return r.units
}

// Features returns the union of the registered units' feature needs — the
// measurement work the engine must perform for this registry.
func (r *Registry) Features() Feature {
	var f Feature
	for _, u := range r.Units() {
		f |= u.Decl().Features
	}
	return f
}

// IDs returns the registered indicator IDs in canonical order.
func (r *Registry) IDs() []ID {
	units := r.Units()
	ids := make([]ID, 0, len(units))
	for _, u := range units {
		ids = append(ids, u.Decl().ID)
	}
	return ids
}

// Len returns the number of registered units.
func (r *Registry) Len() int { return len(r.Units()) }

// Fingerprint returns a stable hash of the registry's canonical
// declaration set: IDs, names, classes, feature needs, hooks and the
// once-latch of every unit, in canonical order. Two registries score
// identically structured pipelines iff their fingerprints match (point
// values live in the engine config, not the registry), which is what audit
// bundles record to tie a verdict to the unit set that produced it.
func (r *Registry) Fingerprint() string {
	h := fnv.New64a()
	for _, u := range r.Units() {
		d := u.Decl()
		fmt.Fprintf(h, "%d:%s:%d:%d:%v:%t;", d.ID, d.Name, d.Class, d.Features, d.Hooks, d.Once)
	}
	return fmt.Sprintf("reg1-%016x", h.Sum64())
}

// Primaries lists the paper's three primary indicators — the set whose
// union triggers accelerated detection under the default policy. The list
// is intentionally independent of any particular registry: ablating a
// primary out of the registry must leave union unattainable (the paper's
// union is over these three signals), not quietly shrink the requirement.
func Primaries() []ID {
	return []ID{TypeChange, Similarity, EntropyDelta}
}
