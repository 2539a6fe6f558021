package indicator

import (
	"reflect"
	"testing"
)

// fakeContext is a canned Context for unit-level Eval tests.
type fakeContext struct {
	points     Points
	path       string
	typeChange bool
	dissimilar bool
	fileDelta  float64
	deltaSusp  bool
	payload    bool
	newCipher  bool
	ownDelete  bool
	typesRead  int
	typesWrote int
}

func (f *fakeContext) Points() Points                 { return f.points }
func (f *fakeContext) Path() string                   { return f.path }
func (f *fakeContext) StreamDeltaSuspicious() bool    { return f.deltaSusp }
func (f *fakeContext) PayloadStreamAvailable() bool   { return f.payload }
func (f *fakeContext) TypeChanged() bool              { return f.typeChange }
func (f *fakeContext) Dissimilar() bool               { return f.dissimilar }
func (f *fakeContext) FileEntropyDelta() float64      { return f.fileDelta }
func (f *fakeContext) EntropyDeltaThreshold() float64 { return 0.1 }
func (f *fakeContext) NewFileCipherLike() bool        { return f.newCipher }
func (f *fakeContext) DeletedOwnFile() bool           { return f.ownDelete }
func (f *fakeContext) TypesRead() int                 { return f.typesRead }
func (f *fakeContext) TypesWritten() int              { return f.typesWrote }
func (f *fakeContext) FunnelingThreshold() int        { return 5 }

// TestStringMatchesDecl pins that ID.String always returns the name the
// unit declares — the anti-drift contract: names are written once, in the
// declaration.
func TestStringMatchesDecl(t *testing.T) {
	for _, d := range Builtins() {
		if got := d.ID.String(); got != d.Name {
			t.Errorf("ID %d: String() = %q, declaration says %q", d.ID, got, d.Name)
		}
	}
	if got := ID(99).String(); got != "unknown" {
		t.Errorf("undeclared ID String() = %q, want unknown", got)
	}
}

// TestDefaultPointsDerivedFromDecls pins both directions of the points
// contract: the table is exactly what the declarations produce, and the
// declarations carry the paper's calibrated values.
func TestDefaultPointsDerivedFromDecls(t *testing.T) {
	var fromDecls Points
	for _, d := range Builtins() {
		if d.DefaultPoints != nil {
			d.DefaultPoints(&fromDecls)
		}
	}
	if got := DefaultPoints(); got != fromDecls {
		t.Fatalf("DefaultPoints() = %+v, declarations produce %+v", got, fromDecls)
	}
	want := Points{
		TypeChange: 8, Similarity: 8, EntropyDeltaFile: 4, EntropyDeltaOp: 0.25,
		Deletion: 12, DeletionOwn: 0.5, NewCipherFile: 3, Funneling: 25,
		UnionBonus: 0, Honeyfile: 200,
	}
	if got := DefaultPoints(); got != want {
		t.Fatalf("calibrated defaults drifted: got %+v, want %+v", got, want)
	}
}

// TestRegistryCanonicalOrder pins that registration order never matters:
// any permutation yields the same canonical unit order, and duplicate IDs
// keep the first unit.
func TestRegistryCanonicalOrder(t *testing.T) {
	def := Default().Units()
	perm := []Unit{def[3], def[0], def[4], def[2], def[1]}
	r := NewRegistry(perm...)
	want := []ID{TypeChange, Similarity, EntropyDelta, Deletion, Funneling}
	if got := r.IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("permuted registration IDs = %v, want %v", got, want)
	}

	first := NewHoneyfile("/a")
	second := NewHoneyfile("/b")
	dup := NewRegistry(first, second)
	if dup.Len() != 1 {
		t.Fatalf("duplicate IDs: Len = %d, want 1", dup.Len())
	}
	if dup.Units()[0].(*HoneyfileUnit) != first {
		t.Fatal("duplicate IDs should keep the first unit registered")
	}
}

// TestWithWithoutImmutable pins composition semantics: With replaces by ID,
// Without removes, and neither mutates the receiver.
func TestWithWithoutImmutable(t *testing.T) {
	base := Default()
	honey := NewHoneyfile("/decoy")

	added := base.With(honey)
	if added.Len() != 6 || base.Len() != 5 {
		t.Fatalf("With: added.Len=%d base.Len=%d, want 6 and 5", added.Len(), base.Len())
	}

	replacement := NewHoneyfile("/other")
	replaced := added.With(replacement)
	if replaced.Len() != 6 {
		t.Fatalf("With same ID: Len = %d, want 6", replaced.Len())
	}
	for _, u := range replaced.Units() {
		if h, ok := u.(*HoneyfileUnit); ok && h != replacement {
			t.Fatal("With should replace the unit registered under the same ID")
		}
	}

	trimmed := base.Without(TypeChange, Funneling)
	if got, want := trimmed.IDs(), []ID{Similarity, EntropyDelta, Deletion}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Without IDs = %v, want %v", got, want)
	}
	if base.Len() != 5 {
		t.Fatal("Without mutated its receiver")
	}
}

// TestFeaturesUnion pins the registry's feature aggregation — what the
// measurement layer derives its work from.
func TestFeaturesUnion(t *testing.T) {
	all := FeatContent | FeatPayload | FeatTypeSniff | FeatCreator
	if got := Default().Features(); got != all {
		t.Fatalf("Default().Features() = %b, want %b", got, all)
	}
	delOnly := Default().Without(TypeChange, Similarity, EntropyDelta, Funneling)
	if got := delOnly.Features(); got != FeatCreator {
		t.Fatalf("deletion-only Features() = %b, want FeatCreator", got)
	}
	if got := NewRegistry(NewHoneyfile("/d")).Features(); got != 0 {
		t.Fatalf("honeyfile-only Features() = %b, want 0 (content-free)", got)
	}
}

// TestByteWeightedEntropyDeltaReplacesPaperUnit pins the weighting
// ablation's composition: the variant takes the entropy-delta slot under the
// same ID and name, adds only FeatByteWeighting, and is told apart from the
// paper's registry by the fingerprint.
func TestByteWeightedEntropyDeltaReplacesPaperUnit(t *testing.T) {
	u := ByteWeightedEntropyDelta()
	d, want := u.Decl(), entropyDeltaUnit{}.Decl()
	if d.ID != want.ID || d.Name != want.Name || d.Features != want.Features|FeatByteWeighting {
		t.Fatalf("decl = %+v, want %+v plus FeatByteWeighting", d, want)
	}
	reg := Default().With(u)
	if reg.Len() != 5 || !reg.Features().Has(FeatByteWeighting) || Default().Features().Has(FeatByteWeighting) {
		t.Fatalf("composed registry: len %d, features %b", reg.Len(), reg.Features())
	}
	if reg.Fingerprint() == Default().Fingerprint() {
		t.Fatal("byte-weighted variant shares the paper registry's fingerprint")
	}
}

// TestPrimariesIndependentOfRegistry pins that the union requirement is the
// paper's three primary signals, regardless of registry composition:
// ablating a primary must leave union unattainable, not shrink it.
func TestPrimariesIndependentOfRegistry(t *testing.T) {
	want := []ID{TypeChange, Similarity, EntropyDelta}
	if got := Primaries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Primaries() = %v, want %v", got, want)
	}
	for _, d := range Builtins() {
		primary := false
		for _, id := range Primaries() {
			if d.ID == id {
				primary = true
			}
		}
		if primary != (d.Class == Primary) {
			t.Errorf("%s: class %v inconsistent with Primaries() membership", d.Name, d.Class)
		}
	}
}

// TestHoneyfileEval pins the decoy unit: exact-path matches fire with the
// configured points on every declared hook, other paths never fire.
func TestHoneyfileEval(t *testing.T) {
	u := NewHoneyfile("/docs/!decoy.txt")
	ctx := &fakeContext{points: DefaultPoints(), path: "/docs/!decoy.txt"}
	for _, h := range u.Decl().Hooks {
		pts, fired := u.Eval(h, ctx)
		if !fired || pts != 200 {
			t.Fatalf("hook %d on decoy path: (%v, %v), want (200, true)", h, pts, fired)
		}
	}
	ctx.path = "/docs/report.txt"
	if _, fired := u.Eval(HookWrite, ctx); fired {
		t.Fatal("honeyfile fired on a non-decoy path")
	}
	decl := u.Decl()
	if decl.Features != 0 {
		t.Fatal("honeyfile must declare no feature needs (content-free)")
	}
	hooks := make(map[Hook]bool, len(decl.Hooks))
	for _, h := range decl.Hooks {
		hooks[h] = true
	}
	for _, h := range []Hook{HookWrite, HookClose, HookRename, HookDelete} {
		if !hooks[h] {
			t.Errorf("honeyfile missing hook %d (needed for class coverage)", h)
		}
	}
}
