package sdhash

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestWindowEntropiesMatchDirect(t *testing.T) {
	// The incremental sliding-window entropy must agree with a direct
	// computation.
	data := genText(14, 2048)
	ents := windowEntropies(data)
	for _, i := range []int{0, 1, 100, 777, len(ents) - 1} {
		w := data[i : i+WindowSize]
		var freq [256]int
		for _, b := range w {
			freq[b]++
		}
		var direct float64
		for _, f := range freq {
			if f > 0 {
				p := float64(f) / WindowSize
				direct -= p * math.Log2(p)
			}
		}
		if math.Abs(ents[i]-direct) > 1e-9 {
			t.Fatalf("window %d: incremental %v != direct %v", i, ents[i], direct)
		}
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
	if precedence(0.1) != 0 {
		t.Error("precedence(0.1) should be 0")
	}
	if precedence(3.0) <= 0 {
		t.Error("precedence(3.0) should be positive")
	}
	if precedence(5.9) != 0 {
		t.Error("precedence(5.9) should be 0 (near-random)")
	}
}

func BenchmarkCompare(b *testing.B) {
	d1, err := Compute(genText(21, 32*1024))
	if err != nil {
		b.Fatal(err)
	}
	d2, err := Compute(genText(22, 32*1024))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d1.Compare(d2)
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
