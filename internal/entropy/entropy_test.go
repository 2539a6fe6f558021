package entropy

import (
	"bytes"
	"crypto/rand"
	"math"
	"testing"
	"testing/quick"
)

func TestShannonEmpty(t *testing.T) {
	if got := Shannon(nil); got != 0 {
		t.Fatalf("Shannon(nil) = %v, want 0", got)
	}
	if got := Shannon([]byte{}); got != 0 {
		t.Fatalf("Shannon(empty) = %v, want 0", got)
	}
}

func TestShannonUniformSingleByte(t *testing.T) {
	data := bytes.Repeat([]byte{0x41}, 4096)
	if got := Shannon(data); got != 0 {
		t.Fatalf("Shannon(constant) = %v, want 0", got)
	}
}

func TestShannonPerfectDistribution(t *testing.T) {
	// Every byte value exactly 16 times: entropy must be exactly 8.
	data := make([]byte, 256*16)
	for i := range data {
		data[i] = byte(i % 256)
	}
	if got := Shannon(data); math.Abs(got-8.0) > 1e-9 {
		t.Fatalf("Shannon(uniform) = %v, want 8", got)
	}
}

func TestShannonTwoValues(t *testing.T) {
	// 50/50 split of two byte values: exactly 1 bit.
	data := append(bytes.Repeat([]byte{0}, 512), bytes.Repeat([]byte{255}, 512)...)
	if got := Shannon(data); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Shannon(two values) = %v, want 1", got)
	}
}

func TestShannonRandomIsHigh(t *testing.T) {
	data := make([]byte, 64*1024)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	if got := Shannon(data); got < 7.9 {
		t.Fatalf("Shannon(crypto-random 64KiB) = %v, want > 7.9", got)
	}
}

func TestShannonEnglishTextRange(t *testing.T) {
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 100)
	e := Shannon(text)
	if e < 3.0 || e > 5.0 {
		t.Fatalf("Shannon(english) = %v, want within [3,5]", e)
	}
}

func TestShannonBounds(t *testing.T) {
	f := func(data []byte) bool {
		e := Shannon(data)
		return e >= 0 && e <= MaxEntropy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShannonPermutationInvariant(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		rev := make([]byte, len(data))
		for i, b := range data {
			rev[len(data)-1-i] = b
		}
		return math.Abs(Shannon(data)-Shannon(rev)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeight(t *testing.T) {
	tests := []struct {
		name string
		e    float64
		b    int
		want float64
	}{
		{"zero entropy", 0.0, 1000, 0},
		{"rounds down below half", 0.4, 100, 0},
		{"rounds up at half", 7.6, 100, 0.125 * 8 * 100},
		{"max entropy normalises to b", 8.0, 100, 100},
		{"zero bytes", 8.0, 0, 0},
		{"negative bytes", 8.0, -5, 0},
		{"mid entropy", 4.0, 64, 0.125 * 4 * 64},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Weight(tt.e, tt.b); math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("Weight(%v,%v) = %v, want %v", tt.e, tt.b, got, tt.want)
			}
		})
	}
}

func TestWeightedMeanZeroValue(t *testing.T) {
	var m WeightedMean
	if m.Mean() != 0 {
		t.Fatalf("zero-value Mean() = %v, want 0", m.Mean())
	}
	if m.Ops() != 0 || m.Bytes() != 0 {
		t.Fatalf("zero value not empty: ops=%d bytes=%d", m.Ops(), m.Bytes())
	}
}

func TestWeightedMeanLowEntropyDoesNotDominate(t *testing.T) {
	// The paper's motivation: ransomware writes many small low-entropy
	// ransom notes. The weighted mean must stay close to the entropy of the
	// bulk high-entropy writes.
	var m WeightedMean

	high := make([]byte, 32*1024)
	for i := range high {
		high[i] = byte((i*131 + i/7) % 256) // near-uniform
	}
	m.Add(high)
	bulk := m.Mean()

	// A hundred tiny constant-byte notes: entropy 0 → weight 0 → no effect.
	note := bytes.Repeat([]byte{'A'}, 64)
	for i := 0; i < 100; i++ {
		m.Add(note)
	}
	if math.Abs(m.Mean()-bulk) > 1e-9 {
		t.Fatalf("zero-entropy notes moved the mean: %v -> %v", bulk, m.Mean())
	}

	// Low-but-nonzero entropy notes move it only slightly because their
	// weight is small (0.125 × ⌊e⌉ × 64).
	text := bytes.Repeat([]byte("PAY US! "), 8)
	for i := 0; i < 100; i++ {
		m.Add(text)
	}
	if m.Mean() < bulk*0.5 {
		t.Fatalf("low-entropy notes dominated the weighted mean: %v -> %v", bulk, m.Mean())
	}
}

func TestWeightedMeanSingleOp(t *testing.T) {
	var m WeightedMean
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	e := m.Add(data)
	if math.Abs(e-8.0) > 1e-9 {
		t.Fatalf("Add returned entropy %v, want 8", e)
	}
	if math.Abs(m.Mean()-8.0) > 1e-9 {
		t.Fatalf("Mean() = %v, want 8", m.Mean())
	}
	if m.Ops() != 1 || m.Bytes() != 256 {
		t.Fatalf("ops=%d bytes=%d, want 1/256", m.Ops(), m.Bytes())
	}
}

func TestWeightedMeanReset(t *testing.T) {
	var m WeightedMean
	m.Add([]byte{1, 2, 3, 4})
	m.Reset()
	if m.Mean() != 0 || m.Ops() != 0 || m.Bytes() != 0 {
		t.Fatal("Reset did not clear the mean")
	}
}

func TestWeightedMeanBoundedByInputs(t *testing.T) {
	// Property: the weighted mean always lies within [min, max] of the
	// observed entropies (for operations with nonzero weight).
	f := func(chunks [][]byte) bool {
		var m WeightedMean
		lo, hi := math.Inf(1), math.Inf(-1)
		any := false
		for _, c := range chunks {
			e := m.Add(c)
			if Weight(e, len(c)) > 0 {
				any = true
				if e < lo {
					lo = e
				}
				if e > hi {
					hi = e
				}
			}
		}
		if !any {
			return m.Mean() == 0
		}
		mean := m.Mean()
		return mean >= lo-1e-9 && mean <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaTrackerRequiresBothSides(t *testing.T) {
	var d DeltaTracker
	if _, ok := d.Delta(); ok {
		t.Fatal("Delta valid with no ops")
	}
	d.AddRead([]byte("hello hello hello"))
	if _, ok := d.Delta(); ok {
		t.Fatal("Delta valid with only reads")
	}
	d.AddWrite([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	if _, ok := d.Delta(); !ok {
		t.Fatal("Delta invalid after read+write")
	}
}

func TestDeltaTrackerClampedAtZero(t *testing.T) {
	var d DeltaTracker
	// High-entropy read, low-entropy write: raw delta negative → clamp 0.
	high := make([]byte, 1024)
	for i := range high {
		high[i] = byte(i % 256)
	}
	d.AddRead(high)
	d.AddWrite(bytes.Repeat([]byte("ab"), 512))
	delta, ok := d.Delta()
	if !ok {
		t.Fatal("delta should be valid")
	}
	if delta != 0 {
		t.Fatalf("delta = %v, want clamped 0", delta)
	}
}

func TestDeltaTrackerRansomwareShape(t *testing.T) {
	// Read low-entropy plaintext, write high-entropy ciphertext: the delta
	// must comfortably exceed the paper's 0.1 threshold.
	var d DeltaTracker
	plain := bytes.Repeat([]byte("business plan for Q3, confidential. "), 200)
	cipher := make([]byte, len(plain))
	s := uint32(123456789)
	for i := range cipher {
		s = s*1664525 + 1013904223
		cipher[i] = byte(s >> 24)
	}
	d.AddRead(plain)
	d.AddWrite(cipher)
	delta, ok := d.Delta()
	if !ok || delta < 0.1 {
		t.Fatalf("delta = %v (ok=%v), want ≥ 0.1", delta, ok)
	}
}

func TestDeltaTrackerCompressedFilesSmallButDetectable(t *testing.T) {
	// The paper notes compressed files (docx/pdf) show a small entropy
	// increase when encrypted, which the 0.1 threshold still resolves
	// eventually. Simulate a ~7.6-entropy read vs 8.0-entropy write.
	var d DeltaTracker
	read := make([]byte, 64*1024)
	s := uint32(42)
	for i := range read {
		s = s*1664525 + 1013904223
		read[i] = byte(s>>24) & 0x7F // 128 symbols → entropy ≈ 7
	}
	write := make([]byte, 64*1024)
	for i := range write {
		s = s*1664525 + 1013904223
		write[i] = byte(s >> 24)
	}
	d.AddRead(read)
	d.AddWrite(write)
	delta, ok := d.Delta()
	if !ok {
		t.Fatal("delta invalid")
	}
	if delta < 0.1 {
		t.Fatalf("delta for compressed→encrypted = %v, want ≥ 0.1", delta)
	}
	if delta > 2.0 {
		t.Fatalf("delta unexpectedly large: %v", delta)
	}
}

func BenchmarkWeightedMeanAdd(b *testing.B) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var m WeightedMean
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(data)
	}
}
