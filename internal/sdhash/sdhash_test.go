package sdhash

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cryptodrop/internal/corpus"
)

// genText produces deterministic English-like text of n bytes.
func genText(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{
		"invoice", "meeting", "project", "quarterly", "report", "the",
		"analysis", "budget", "customer", "delivery", "estimate", "for",
		"schedule", "review", "contract", "proposal", "and", "with",
	}
	var buf bytes.Buffer
	for buf.Len() < n {
		buf.WriteString(words[rng.Intn(len(words))])
		if rng.Intn(12) == 0 {
			buf.WriteString(".\n")
		} else {
			buf.WriteByte(' ')
		}
	}
	return buf.Bytes()[:n]
}

// genRandom produces deterministic pseudo-random (ciphertext-like) bytes.
func genRandom(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	rng.Read(data)
	return data
}

// xorEncrypt simulates ransomware keystream encryption.
func xorEncrypt(data []byte, seed int64) []byte {
	key := genRandom(seed, len(data))
	out := make([]byte, len(data))
	for i := range data {
		out[i] = data[i] ^ key[i]
	}
	return out
}

func TestComputeTooSmall(t *testing.T) {
	if _, err := Compute(genText(1, MinInputSize-1)); err != ErrTooSmall {
		t.Fatalf("err = %v, want ErrTooSmall", err)
	}
	if _, err := Compute(nil); err != ErrTooSmall {
		t.Fatalf("err(nil) = %v, want ErrTooSmall", err)
	}
}

func TestComputeMinSizeBoundary(t *testing.T) {
	if _, err := Compute(genText(2, MinInputSize)); err != nil {
		t.Fatalf("512-byte text should digest, got %v", err)
	}
}

func TestRandomDataYieldsNoFeatures(t *testing.T) {
	// Uniformly random content has near-maximal window entropy, which the
	// precedence table zeroes out — exactly sdhash's behaviour on
	// ciphertext.
	if _, err := Compute(genRandom(7, 32*1024)); err != ErrNoFeatures {
		t.Fatalf("random data digest err = %v, want ErrNoFeatures", err)
	}
}

func TestConstantDataYieldsNoFeatures(t *testing.T) {
	if _, err := Compute(bytes.Repeat([]byte{0x20}, 8192)); err != ErrNoFeatures {
		t.Fatalf("constant data digest err = %v, want ErrNoFeatures", err)
	}
}

func TestIdenticalInputsScore100(t *testing.T) {
	data := genText(3, 20*1024)
	score, err := Similarity(data, data)
	if err != nil {
		t.Fatal(err)
	}
	if score < 95 {
		t.Fatalf("self-similarity = %d, want ≥ 95", score)
	}
}

func TestCompareSymmetric(t *testing.T) {
	a := genText(4, 16*1024)
	b := append(genText(4, 12*1024), genText(5, 4*1024)...)
	da, err := Compute(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Compute(b)
	if err != nil {
		t.Fatal(err)
	}
	if da.Compare(db) != db.Compare(da) {
		t.Fatalf("Compare not symmetric: %d vs %d", da.Compare(db), db.Compare(da))
	}
}

func TestEditedCopyScoresHigh(t *testing.T) {
	orig := genText(6, 24*1024)
	edited := make([]byte, 0, len(orig)+512)
	edited = append(edited, orig[:8000]...)
	edited = append(edited, []byte("INSERTED PARAGRAPH ABOUT THE NEW BUDGET LINE.\n")...)
	edited = append(edited, orig[8000:]...)
	score, err := Similarity(orig, edited)
	if err != nil {
		t.Fatal(err)
	}
	if score < 50 {
		t.Fatalf("edited-copy similarity = %d, want ≥ 50", score)
	}
}

func TestEncryptedVersionScoresNearZero(t *testing.T) {
	// The paper's key insight: comparing a file with its encrypted version
	// should yield a near-zero score.
	orig := genText(8, 32*1024)
	enc := xorEncrypt(orig, 99)
	do, err := Compute(orig)
	if err != nil {
		t.Fatal(err)
	}
	de, err := Compute(enc)
	if err == nil {
		// If the ciphertext somehow digests, the comparison must be ≈ 0.
		if s := do.Compare(de); s > 5 {
			t.Fatalf("orig-vs-ciphertext = %d, want ≤ 5", s)
		}
		return
	}
	if err != ErrNoFeatures {
		t.Fatalf("ciphertext digest err = %v, want ErrNoFeatures", err)
	}
}

func TestUnrelatedFilesScoreLow(t *testing.T) {
	a := genText(10, 20*1024)
	b := genRandomText(t, 11, 20*1024)
	score, err := Similarity(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Different content drawn from the same vocabulary shares n-grams, so
	// allow a moderate score — but far from homologous.
	if score > 90 {
		t.Fatalf("unrelated similarity = %d, want < 90", score)
	}
}

// genRandomText produces text with a different vocabulary.
func genRandomText(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	for buf.Len() < n {
		word := make([]byte, 3+rng.Intn(8))
		for i := range word {
			word[i] = byte('a' + rng.Intn(26))
		}
		buf.Write(word)
		buf.WriteByte(' ')
	}
	return buf.Bytes()[:n]
}

func TestCompareNilSafe(t *testing.T) {
	data := genText(12, 4096)
	d, err := Compute(data)
	if err != nil {
		t.Fatal(err)
	}
	var nilDigest *Digest
	if got := d.Compare(nil); got != 0 {
		t.Fatalf("Compare(nil) = %d, want 0", got)
	}
	if got := nilDigest.Compare(d); got != 0 {
		t.Fatalf("nil.Compare(d) = %d, want 0", got)
	}
}

func TestDigestAccessors(t *testing.T) {
	data := genText(13, 64*1024)
	d, err := Compute(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.InputSize() != len(data) {
		t.Fatalf("InputSize = %d, want %d", d.InputSize(), len(data))
	}
	if d.FeatureCount() < minFeatures {
		t.Fatalf("FeatureCount = %d, want ≥ %d", d.FeatureCount(), minFeatures)
	}
	if d.FilterCount() < 1 {
		t.Fatal("FilterCount = 0")
	}
	wantFilters := (d.FeatureCount() + featuresPerFilter - 1) / featuresPerFilter
	if d.FilterCount() != wantFilters {
		t.Fatalf("FilterCount = %d, want %d for %d features", d.FilterCount(), wantFilters, d.FeatureCount())
	}
}

// directRank is the selection rank of one window computed from scratch:
// its byte histogram, S = Σ f·log2(f) in float64 and the reference
// precedence. math.Log2 is exact on powers of two, so S is exact for the
// power-of-two partitions that sit on rank boundaries, and elsewhere its
// float error is many orders below the closest boundary approach.
func directRank(w []byte) int {
	var freq [256]int
	for _, b := range w {
		freq[b]++
	}
	var s float64
	for _, f := range freq {
		if f > 1 {
			s += float64(f) * math.Log2(float64(f))
		}
	}
	return precedence(math.Log2(WindowSize) - s/WindowSize)
}

// directRanks is directRank of every window of data.
func directRanks(data []byte) []int {
	out := make([]int, len(data)-WindowSize+1)
	for i := range out {
		out[i] = directRank(data[i : i+WindowSize])
	}
	return out
}

// boundaryWindow is a window on a rank boundary: four byte values eight
// times each plus 32 singletons, so S = 4·8·log2(8) = 96 exactly, entropy
// 4.5 bits and bucket exactly 750, the edge between ranks 79 and 80.
func boundaryWindow() []byte {
	w := make([]byte, 0, WindowSize)
	for v := 0; v < 4; v++ {
		w = append(w, bytes.Repeat([]byte{byte(200 + v)}, 8)...)
	}
	for v := 0; v < 32; v++ {
		w = append(w, byte(100+v))
	}
	return w
}

func TestWindowRanksMatchDirect(t *testing.T) {
	// The rolling integer rank of every window must equal the rank computed
	// from that window's own histogram, including windows that roll onto a
	// rank boundary after a long prefix.
	inputs := [][]byte{
		genText(14, 2048),
		benchInput(8 << 10),
		append(genText(15, 4096), boundaryWindow()...),
		bytes.Repeat([]byte{7}, 600),
	}
	for k, data := range inputs {
		ranks := make([]uint8, len(data)-WindowSize+1)
		windowRanks(data, ranks)
		for i, want := range directRanks(data) {
			if int(ranks[i]) != want {
				t.Fatalf("input %d window %d: rolling rank %d != direct %d", k, i, ranks[i], want)
			}
		}
	}
}

// TestRankExhaustivePartitions checks the fixed-point rank against the
// exact one for every way 64 bytes can split into byte counts (every
// partition of 64): a window's rank depends on nothing else. Partitions
// made of powers of two have integer S and are compared exactly; the 49
// that land exactly on a rank boundary have S ∈ {96, 192, 288}. Every
// other partition's S is irrational and stays more than 1e-6 from any
// boundary, far beyond the fixed-point error of at most 64·2^-33.
func TestRankExhaustivePartitions(t *testing.T) {
	var g [WindowSize + 1]uint64 // g[f] = fixed-point f·log2(f)
	for f := 1; f <= WindowSize; f++ {
		g[f] = g[f-1] + flogStep[f-1]
	}
	// S at each rank boundary: bucket B starts at S = (1000−B)·48/125.
	var bounds []float64
	for b := len(bucketRank) - 1; b > 0; b-- {
		if bucketRank[b] != bucketRank[b-1] {
			bounds = append(bounds, float64(1000-b)*48/125)
		}
	}
	gapTo := func(s float64) float64 { // distance to the nearest boundary
		k := sort.SearchFloat64s(bounds, s)
		gap := math.Inf(1)
		if k < len(bounds) {
			gap = bounds[k] - s
		}
		if k > 0 {
			gap = math.Min(gap, s-bounds[k-1])
		}
		return gap
	}
	partitions, onBoundary := 0, 0
	boundaryS := map[float64]bool{}
	minGap := math.Inf(1)
	var walk func(rem, maxPart int, fixed uint64, s float64, pow2 bool)
	walk = func(rem, maxPart int, fixed uint64, s float64, pow2 bool) {
		if rem == 0 {
			partitions++
			if got, want := int(rankOf(fixed)), precedence(6-s/WindowSize); got != want {
				t.Fatalf("S=%v: fixed-point rank %d, exact rank %d", s, got, want)
			}
			gap := gapTo(s)
			switch {
			case pow2 && gap == 0:
				onBoundary++
				boundaryS[s] = true
			case !pow2:
				minGap = math.Min(minGap, gap)
			}
			return
		}
		for f := min(rem, maxPart); f >= 1; f-- {
			walk(rem-f, f, fixed+g[f], s+float64(f)*math.Log2(float64(f)), pow2 && f&(f-1) == 0)
		}
	}
	walk(WindowSize, WindowSize, 0, 0, true)
	if partitions != 1741630 {
		t.Fatalf("enumerated %d partitions of 64, want 1741630", partitions)
	}
	if onBoundary != 49 || len(boundaryS) != 3 || !boundaryS[96] || !boundaryS[192] || !boundaryS[288] {
		t.Fatalf("%d partitions on a rank boundary at S %v, want 49 at S 96, 192 and 288", onBoundary, boundaryS)
	}
	if minGap < 1e-6 {
		t.Fatalf("a non-power-of-two partition comes within %g of a rank boundary", minGap)
	}
	t.Logf("closest non-power-of-two approach to a rank boundary: %.3g", minGap)
}

// TestBoundaryPartitionDivergence documents the one intended difference
// from the float-chain oracle. After this 100-byte text prefix the chain's
// accumulated rounding error is positive, so at boundaryWindow (exact S =
// 96, bucket exactly 750) it reads a bucket of 749 and rank 79, while the
// integer rank, like the window's own histogram, gives 80. Only windows
// made of power-of-two byte counts can sit on a boundary, so only they can
// diverge; the chain's rank there depended on where the window sat.
func TestBoundaryPartitionDivergence(t *testing.T) {
	const at = 100
	data := append(genText(15, at), boundaryWindow()...)
	ranks := make([]uint8, len(data)-WindowSize+1)
	windowRanks(data, ranks)
	if ranks[at] != 80 || directRank(data[at:]) != 80 {
		t.Fatalf("integer rank %d, direct rank %d, want both 80", ranks[at], directRank(data[at:]))
	}
	if ref := referenceRanks(data)[at]; ref != 79 {
		t.Fatalf("float-chain rank %d, want 79 (the documented divergence)", ref)
	}

	// Quantised PCM audio is made of few, repeated byte values, so such
	// windows occur in real content: this corpus WAV rolls onto two of them
	// with positive drift, and one feature offset moves.
	wav := corpus.Generate("wav", 2, 8<<10)
	offsets, misranked, err := referenceSelection(wav)
	if err != nil {
		t.Fatal(err)
	}
	got := selectFeatures(wav)
	if misranked != 2 || slices.Equal(got, selectFeaturesReference(wav)) || !slices.Equal(got, offsets) {
		t.Fatalf("wav: %d misranked windows, selection equal to oracle %t, to adjudicated oracle %t; want 2, false, true",
			misranked, slices.Equal(got, selectFeaturesReference(wav)), slices.Equal(got, offsets))
	}
}

func TestScoreBoundsProperty(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := genText(seedA, 4096)
		b := genText(seedB, 4096)
		s, err := Similarity(a, b)
		if err != nil {
			return true
		}
		return s >= 0 && s <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministic(t *testing.T) {
	data := genText(15, 8192)
	d1, err := Compute(data)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Compute(data)
	if err != nil {
		t.Fatal(err)
	}
	if d1.FeatureCount() != d2.FeatureCount() || d1.Compare(d2) < 95 {
		t.Fatalf("digest not deterministic: %d vs %d features, score %d",
			d1.FeatureCount(), d2.FeatureCount(), d1.Compare(d2))
	}
}

func TestPrecedenceShape(t *testing.T) {
	// Low entropy → 0; mid entropy → positive; near-max entropy → 0.
	bucket := func(e float64) int { return int(e * 1000 / 6) }
	if bucketRank[bucket(0.1)] != 0 {
		t.Error("entropy 0.1 should rank 0")
	}
	if bucketRank[bucket(3.0)] <= 0 {
		t.Error("entropy 3.0 should rank positive")
	}
	if bucketRank[bucket(5.9)] != 0 {
		t.Error("entropy 5.9 should rank 0 (near-random)")
	}
}

// TestDigestConcurrentCompare pins that a computed digest is immutable:
// Compare must be safe to call from many goroutines against the same
// digests, because the measurement memo cache shares one *Digest across
// every engine that hits the same content. Run under -race in CI.
func TestDigestConcurrentCompare(t *testing.T) {
	doc := genText(1, 64<<10)
	d1, err := Compute(doc)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Compute(genText(2, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	want := d1.Compare(d2)
	self := d1.Compare(d1)

	done := make(chan int, 16)
	for g := 0; g < 16; g++ {
		go func() {
			bad := 0
			for i := 0; i < 200; i++ {
				if d1.Compare(d2) != want || d2.Compare(d1) != want || d1.Compare(d1) != self {
					bad++
				}
			}
			done <- bad
		}()
	}
	for g := 0; g < 16; g++ {
		if bad := <-done; bad != 0 {
			t.Fatalf("concurrent Compare produced %d divergent scores", bad)
		}
	}
}

// TestDigestMemSize pins the cache cost accounting: a digest's estimated
// resident size grows with its filters and is safe on nil.
func TestDigestMemSize(t *testing.T) {
	if got := (*Digest)(nil).MemSize(); got != 0 {
		t.Fatalf("nil digest MemSize = %d, want 0", got)
	}
	small, err := Compute(genText(3, 8<<10))
	if err != nil {
		t.Fatal(err)
	}
	large, err := Compute(genText(3, 512<<10))
	if err != nil {
		t.Fatal(err)
	}
	if small.MemSize() <= 0 {
		t.Fatalf("small digest MemSize = %d, want > 0", small.MemSize())
	}
	if large.MemSize() <= small.MemSize() {
		t.Fatalf("512KB digest MemSize %d not larger than 8KB digest %d",
			large.MemSize(), small.MemSize())
	}
}

// The reference oracle: the float-chain feature selection the integer rank
// pass and the skip-ahead scan replaced. It rolls S = Σ f·log2(f) as a
// float64 sum from the start of the input, maps each window's entropy to a
// rank, and tests every window against its full ±selectionSpan
// neighbourhood. Because the float sum carries rounding error forward, a
// window whose exact S sits on a rank boundary can rank one lower here than
// its exact rank; that is the one place the production selection may differ.

// flogTab[f] = f·log2(f) for the window frequencies f ∈ [0, WindowSize].
var flogTab = func() *[WindowSize + 1]float64 {
	var t [WindowSize + 1]float64
	for f := 2; f <= WindowSize; f++ {
		t[f] = float64(f) * math.Log2(float64(f))
	}
	return &t
}()

// precedence maps a window's entropy in bits to its selection rank.
func precedence(e float64) int { return int(bucketRank[int(e*1000/6)]) }

// referenceRanks is the float-chain rank of every window of data.
func referenceRanks(data []byte) []int {
	n := len(data) - WindowSize + 1
	if n <= 0 {
		return nil
	}
	ranks := make([]int, n)
	var freq [256]int
	var s float64
	for _, b := range data[:WindowSize] {
		freq[b]++
	}
	for _, f := range freq {
		s += flogTab[f]
	}
	logW := math.Log2(WindowSize)
	ranks[0] = precedence(logW - s/WindowSize)
	for i := 1; i < n; i++ {
		outb := data[i-1]
		inb := data[i+WindowSize-1]
		if outb != inb {
			s -= flogTab[freq[outb]]
			freq[outb]--
			s += flogTab[freq[outb]]
			s -= flogTab[freq[inb]]
			freq[inb]++
			s += flogTab[freq[inb]]
		}
		ranks[i] = precedence(logW - s/WindowSize)
	}
	return ranks
}

// selectByScan selects features from per-window ranks by testing every
// window against its whole neighbourhood and the minimum gap.
func selectByScan(ranks []int) []int {
	var selected []int
	last := -minFeatureGap
	for i, r := range ranks {
		if r == 0 || i-last < minFeatureGap {
			continue
		}
		lo := max(i-selectionSpan, 0)
		hi := min(i+selectionSpan, len(ranks)-1)
		isMax := true
		for j := lo; j <= hi; j++ {
			if ranks[j] > r || (ranks[j] == r && j < i) {
				isMax = false
				break
			}
		}
		if isMax {
			selected = append(selected, i)
			last = i
		}
	}
	return selected
}

// selectFeaturesReference is the oracle for selectFeatures.
func selectFeaturesReference(data []byte) []int {
	return selectByScan(referenceRanks(data))
}

// referenceSelection is the oracle's selection, adjudicated wherever its
// rank and the integer rank of a window disagree: the window's own
// histogram decides, and only the oracle may be wrong, only on a window
// made of power-of-two byte counts (TestBoundaryPartitionDivergence). It
// returns the offsets and how many windows the oracle misranked, or an
// error naming the first disagreement that is not that one.
func referenceSelection(data []byte) ([]int, int, error) {
	ref := referenceRanks(data)
	if len(ref) == 0 {
		return nil, 0, nil
	}
	ranks := make([]uint8, len(ref))
	windowRanks(data, ranks)
	misranked := 0
	for i, r := range ref {
		if r == int(ranks[i]) {
			continue
		}
		w := data[i : i+WindowSize]
		exact := directRank(w)
		if exact != int(ranks[i]) || !powerOfTwoCounts(w) {
			return nil, 0, fmt.Errorf("window %d: oracle rank %d, integer rank %d, exact rank %d, power-of-two counts %t",
				i, r, ranks[i], exact, powerOfTwoCounts(w))
		}
		ref[i] = exact
		misranked++
	}
	return selectByScan(ref), misranked, nil
}

// powerOfTwoCounts reports whether every byte count of w is a power of two.
func powerOfTwoCounts(w []byte) bool {
	var freq [256]int
	for _, b := range w {
		freq[b]++
	}
	for _, c := range freq {
		if c&(c-1) != 0 {
			return false
		}
	}
	return true
}
