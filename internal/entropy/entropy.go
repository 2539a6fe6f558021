// Package entropy implements the Shannon-entropy primitives CryptoDrop uses
// to score filesystem read and write operations.
//
// The paper ("CryptoLock (and Drop It)", ICDCS 2016, §III-C and §IV-C1)
// computes the Shannon entropy of every atomic read/write and folds it into a
// weighted arithmetic mean per process, with weight
//
//	w = 0.125 × ⌊e⌉ × b
//
// where b is the number of bytes in the operation and ⌊e⌉ is the entropy
// rounded to the nearest integer. The 0.125 constant normalises the 0–8
// entropy range to 0–1, so small and low-entropy operations (such as
// ransom-note drops) do not over-influence the mean.
package entropy

import (
	"math"
	"sync"
)

// MaxEntropy is the maximum Shannon entropy of a byte stream, reached when
// all 256 byte values are equally likely.
const MaxEntropy = 8.0

// freqPool recycles byte-frequency histograms across Shannon calls. The
// engine measures entropy on every read and write of every scored process,
// so the histogram is the single hottest allocation site of the detection
// path; reusing tables keeps the hot loop allocation-free no matter how
// the compiler's escape analysis treats a local array.
var freqPool = sync.Pool{New: func() any { return new([256]int) }}

// flogTabSize bounds the precomputed f·log2(f) table. Frequencies at or
// above the bound (only possible for payloads ≥ flogTabSize bytes, and then
// for at most a handful of byte values) fall back to math.Log2.
const flogTabSize = 4096

// flogTab[f] = f·log2(f), the per-frequency term of the entropy sum.
var flogTab = func() *[flogTabSize]float64 {
	var t [flogTabSize]float64
	for f := 2; f < flogTabSize; f++ {
		t[f] = float64(f) * math.Log2(float64(f))
	}
	return &t
}()

// Shannon returns the Shannon entropy of data in bits per byte, a value in
// [0, 8]. An empty slice has zero entropy.
func Shannon(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	freq := freqPool.Get().(*[256]int)
	clear(freq[:])
	for _, b := range data {
		freq[b]++
	}
	e := shannonFromFreq(freq, len(data))
	freqPool.Put(freq)
	return e
}

// shannonFromFreq computes H = log2(n) − (Σ f·log2 f)/n, the frequency
// form of the Shannon sum: it needs one logarithm per distinct byte value
// (table-served for small frequencies) instead of one division and one
// logarithm per probability.
func shannonFromFreq(freq *[256]int, total int) float64 {
	var s float64
	for _, f := range freq {
		if f > 1 {
			if f < flogTabSize {
				s += flogTab[f]
			} else {
				s += float64(f) * math.Log2(float64(f))
			}
		}
	}
	return math.Log2(float64(total)) - s/float64(total)
}

// Weight returns the paper's operation weight w = 0.125 × ⌊e⌉ × b for an
// operation of b bytes whose payload entropy is e. The ⌊e⌉ notation in the
// paper is entropy rounded to the nearest integer.
func Weight(e float64, b int) float64 {
	if b <= 0 {
		return 0
	}
	return 0.125 * math.Round(e) * float64(b)
}

// WeightedMean maintains the weighted arithmetic mean of a stream of entropy
// measurements using the paper's weighting. The zero value is ready to use.
type WeightedMean struct {
	sumWeighted float64 // Σ w_i × e_i
	sumWeights  float64 // Σ w_i
	ops         int
	bytes       int64
	unweighted  bool
}

// SetUnweighted switches the mean to plain byte-weighted averaging (w = b),
// dropping the paper's entropy-rounding factor. This exists for the ablation
// study showing why the weighting matters against ransom-note writes. The
// setting is configuration, not state: State and SetState leave it alone.
func (m *WeightedMean) SetUnweighted(u bool) { m.unweighted = u }

// Add folds one operation's payload into the mean and returns the entropy of
// the payload.
func (m *WeightedMean) Add(data []byte) float64 {
	e := Shannon(data)
	m.AddMeasurement(e, len(data))
	return e
}

// AddMeasurement folds a pre-computed entropy measurement for an operation of
// b bytes into the mean.
func (m *WeightedMean) AddMeasurement(e float64, b int) {
	w := Weight(e, b)
	if m.unweighted && b > 0 {
		w = float64(b)
	}
	m.sumWeighted += w * e
	m.sumWeights += w
	m.ops++
	m.bytes += int64(b)
}

// Mean returns the current weighted mean, or 0 if no weighted operations have
// been observed (all operations so far carried zero weight).
func (m *WeightedMean) Mean() float64 {
	if m.sumWeights == 0 {
		return 0
	}
	return m.sumWeighted / m.sumWeights
}

// Ops returns the number of operations folded into the mean, including
// zero-weight operations.
func (m *WeightedMean) Ops() int { return m.ops }

// Bytes returns the total payload bytes observed.
func (m *WeightedMean) Bytes() int64 { return m.bytes }

// Reset clears the mean back to its zero state.
func (m *WeightedMean) Reset() { *m = WeightedMean{} }

// DeltaTracker tracks the paper's per-process read/write entropy delta
//
//	Δe = P̄write − P̄read, Δe ≥ 0
//
// The delta is meaningful only once the process has performed at least one
// read and one write (§IV-C1). The zero value is ready to use.
type DeltaTracker struct {
	read  WeightedMean
	write WeightedMean
}

// SetUnweighted switches both means to plain byte weighting (ablation).
func (t *DeltaTracker) SetUnweighted(u bool) {
	t.read.SetUnweighted(u)
	t.write.SetUnweighted(u)
}

// AddRead folds a read payload into the read mean and returns its entropy.
func (t *DeltaTracker) AddRead(data []byte) float64 { return t.read.Add(data) }

// AddWrite folds a write payload into the write mean and returns its entropy.
func (t *DeltaTracker) AddWrite(data []byte) float64 { return t.write.Add(data) }

// Delta returns Δe = P̄write − P̄read clamped at zero, and whether the delta
// is valid (at least one read and one write observed).
func (t *DeltaTracker) Delta() (delta float64, ok bool) {
	if t.read.Ops() == 0 || t.write.Ops() == 0 {
		return 0, false
	}
	d := t.write.Mean() - t.read.Mean()
	if d < 0 {
		d = 0
	}
	return d, true
}

// ReadMean returns the current weighted mean of read entropies.
func (t *DeltaTracker) ReadMean() float64 { return t.read.Mean() }

// WriteMean returns the current weighted mean of write entropies.
func (t *DeltaTracker) WriteMean() float64 { return t.write.Mean() }

// Reads returns the number of read operations observed.
func (t *DeltaTracker) Reads() int { return t.read.Ops() }

// Writes returns the number of write operations observed.
func (t *DeltaTracker) Writes() int { return t.write.Ops() }

// MeanState is the complete internal state of a WeightedMean, exposed for
// the snapshot/restore contract. The float fields must travel as exact bit
// patterns: the mean is a quotient of running sums, and restoring rounded
// values would make post-restore scores diverge from an uninterrupted run.
type MeanState struct {
	SumWeighted float64
	SumWeights  float64
	Ops         int
	Bytes       int64
}

// State captures the mean's internal state for serialization.
func (m *WeightedMean) State() MeanState {
	return MeanState{
		SumWeighted: m.sumWeighted,
		SumWeights:  m.sumWeights,
		Ops:         m.ops,
		Bytes:       m.bytes,
	}
}

// SetState overwrites the mean's internal state from a captured snapshot.
func (m *WeightedMean) SetState(s MeanState) {
	m.sumWeighted = s.SumWeighted
	m.sumWeights = s.SumWeights
	m.ops = s.Ops
	m.bytes = s.Bytes
}

// State captures both means for serialization: read first, then write.
func (t *DeltaTracker) State() (read, write MeanState) {
	return t.read.State(), t.write.State()
}

// SetState overwrites both means from a captured snapshot.
func (t *DeltaTracker) SetState(read, write MeanState) {
	t.read.SetState(read)
	t.write.SetState(write)
}
