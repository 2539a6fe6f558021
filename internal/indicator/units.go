package indicator

// The five paper indicators, each a self-contained unit. The calibrated
// default point values (CryptoLock §IV) live in the declarations below and
// nowhere else: DefaultPoints, ID.String and the telemetry series names are
// all derived from this file.

type typeChangeUnit struct{}

func (typeChangeUnit) Decl() Decl {
	return Decl{
		ID:       TypeChange,
		Name:     "file-type-change",
		Class:    Primary,
		Features: FeatContent,
		Hooks:    []Hook{HookTransform},
		DefaultPoints: func(p *Points) {
			p.TypeChange = 8
		},
	}
}

// Eval awards when a rewrite left the file with a different magic type than
// its previous version (§III-A).
func (typeChangeUnit) Eval(h Hook, ctx Context) (float64, bool) {
	if ctx.TypeChanged() {
		return ctx.Points().TypeChange, true
	}
	return 0, false
}

type similarityUnit struct{}

func (similarityUnit) Decl() Decl {
	return Decl{
		ID:       Similarity,
		Name:     "similarity",
		Class:    Primary,
		Features: FeatContent,
		Hooks:    []Hook{HookTransform},
		DefaultPoints: func(p *Points) {
			p.Similarity = 8
		},
	}
}

// Eval awards when the rewritten content shares nothing with the previous
// version's similarity digest — encryption leaves no common features
// (§III-B). Unreliable digests (tiny files) never fire.
func (similarityUnit) Eval(h Hook, ctx Context) (float64, bool) {
	if ctx.Dissimilar() {
		return ctx.Points().Similarity, true
	}
	return 0, false
}

type entropyDeltaUnit struct{}

func (entropyDeltaUnit) Decl() Decl {
	return Decl{
		ID:       EntropyDelta,
		Name:     "entropy-delta",
		Class:    Primary,
		Features: FeatContent | FeatPayload,
		Hooks:    []Hook{HookWrite, HookNewFile, HookTransform},
		DefaultPoints: func(p *Points) {
			p.EntropyDeltaFile = 4
			p.EntropyDeltaOp = 0.25
			p.NewCipherFile = 3
		},
	}
}

// Eval accumulates the paper's entropy evidence (§III-C) at three points:
// per-write stream deltas while the process writes higher-entropy data than
// it reads, a file-level award when a rewrite raised the file's entropy past
// the configured threshold, and a new-cipher award when a brand-new file
// looks like an encrypted copy. The new-cipher gate normally requires the
// suspicious stream delta as corroboration; when the backend cannot supply
// the payload stream at all (payload-blind watchers, degraded host
// sessions), the gate is waived — the corroborating feature cannot exist.
func (entropyDeltaUnit) Eval(h Hook, ctx Context) (float64, bool) {
	switch h {
	case HookWrite:
		if ctx.StreamDeltaSuspicious() {
			return ctx.Points().EntropyDeltaOp, true
		}
	case HookNewFile:
		if ctx.NewFileCipherLike() && (ctx.StreamDeltaSuspicious() || !ctx.PayloadStreamAvailable()) {
			return ctx.Points().NewCipherFile, true
		}
	case HookTransform:
		if ctx.FileEntropyDelta() >= ctx.EntropyDeltaThreshold() {
			return ctx.Points().EntropyDeltaFile, true
		}
	}
	return 0, false
}

// byteWeightedEntropyDeltaUnit is the entropy-delta unit measured over
// byte-weighted payload means: the ablation of the paper's §III-C
// weighting. It keeps the entropy-delta ID, name and evaluation, so
// composing it in replaces the paper's unit; the extra feature bit changes
// the registry fingerprint, which is what tells the two variants apart.
type byteWeightedEntropyDeltaUnit struct{ entropyDeltaUnit }

// ByteWeightedEntropyDelta returns the entropy-delta unit with plain byte
// weighting of the read/write means. Compose it with
// Default().With(ByteWeightedEntropyDelta()) to show how small low-entropy
// ransom-note writes drag an unweighted write mean down.
func ByteWeightedEntropyDelta() Unit { return byteWeightedEntropyDeltaUnit{} }

func (u byteWeightedEntropyDeltaUnit) Decl() Decl {
	d := u.entropyDeltaUnit.Decl()
	d.Features |= FeatByteWeighting
	return d
}

type deletionUnit struct{}

func (deletionUnit) Decl() Decl {
	return Decl{
		ID:       Deletion,
		Name:     "deletion",
		Class:    Secondary,
		Features: FeatCreator,
		Hooks:    []Hook{HookDelete},
		DefaultPoints: func(p *Points) {
			p.Deletion = 12
			p.DeletionOwn = 0.5
		},
	}
}

// Eval awards for every protected-file deletion (§III-D): heavily when the
// process destroys a file someone else created, nominally when it cleans up
// a file it created itself (temp-file churn).
func (deletionUnit) Eval(h Hook, ctx Context) (float64, bool) {
	if ctx.DeletedOwnFile() {
		return ctx.Points().DeletionOwn, true
	}
	return ctx.Points().Deletion, true
}

type funnelingUnit struct{}

func (funnelingUnit) Decl() Decl {
	return Decl{
		ID:       Funneling,
		Name:     "funneling",
		Class:    Secondary,
		Features: FeatContent | FeatTypeSniff,
		Hooks:    []Hook{HookFunnel},
		Once:     true,
		DefaultPoints: func(p *Points) {
			p.Funneling = 25
		},
	}
}

// Eval awards once when the process has read many distinct file types but
// written few (§III-D): the many-in, few-out shape of ransomware funneling
// documents into ciphertext containers. A process that has written nothing
// yet is not funneling — it is only reading.
func (funnelingUnit) Eval(h Hook, ctx Context) (float64, bool) {
	if ctx.TypesWritten() == 0 {
		return 0, false
	}
	if ctx.TypesRead()-ctx.TypesWritten() >= ctx.FunnelingThreshold() {
		return ctx.Points().Funneling, true
	}
	return 0, false
}

// builtins returns the declarations of every unit shipped in this package —
// the default five plus the opt-in Honeyfile — for deriving names and
// default points.
func builtins() []Decl {
	decls := make([]Decl, 0, 6)
	for _, u := range Default().Units() {
		decls = append(decls, u.Decl())
	}
	decls = append(decls, NewHoneyfile().Decl())
	return decls
}

// Builtins returns the static declarations of every indicator unit shipped
// in this package, in ID order. Tests use it to pin that derived artefacts
// (names, telemetry series, point tables) cannot drift from the source
// declarations.
func Builtins() []Decl { return builtins() }

var builtinNames = func() map[ID]string {
	m := make(map[ID]string, 6)
	for _, d := range builtins() {
		m[d.ID] = d.Name
	}
	return m
}()
