// Package sdhash implements a similarity-preserving digest in the style of
// Roussev's sdhash ("Data Fingerprinting with Similarity Digests", 2010),
// which the paper uses for its similarity indicator (§III-B).
//
// The digest selects statistically improbable 64-byte features from the
// input — windows whose Shannon entropy falls in a characteristic band and
// that are locally maximal in precedence — and inserts their hashes into a
// sequence of Bloom filters. Window ranks are computed from each window's
// byte counts in exact fixed-point arithmetic, and selection skips every
// window that provably cannot be a local maximum, so a digest costs two
// O(n) passes with about two rank compares per window. Comparing two digests estimates how many
// features they share, yielding a confidence score from 0 to 100:
//
//   - 100 means the inputs are almost certainly homologous;
//   - 0 is "statistically comparable to two blobs of random data" — which is
//     exactly what a file and its ciphertext look like.
//
// Like sdhash, inputs smaller than MinInputSize produce no digest, a
// property the paper's CTB-Locker small-file analysis (§V-C) depends on.
package sdhash

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"sync"
)

const (
	// WindowSize is the feature size in bytes.
	WindowSize = 64
	// MinInputSize is the smallest input that can produce a digest; sdhash
	// cannot generate similarity scores for files below 512 bytes.
	MinInputSize = 512
	// bloomBytes is the size of one Bloom filter (2048 bits).
	bloomBytes = 256
	bloomBits  = bloomBytes * 8
	// featuresPerFilter is the number of features inserted into a filter
	// before a new one is started.
	featuresPerFilter = 128
	// hashesPerFeature is the number of 11-bit Bloom indexes derived from
	// each feature hash.
	hashesPerFeature = 5
	// minFeatures is the minimum number of selected features required to
	// form a digest.
	minFeatures = 4
	// selectionSpan is the one-sided neighbourhood (in windows) within
	// which a feature must have maximal precedence to be selected.
	selectionSpan = 32
	// minFeatureGap is the minimum distance in bytes between the start
	// offsets of two selected features.
	minFeatureGap = 16
)

// Digest errors.
var (
	// ErrTooSmall is returned for inputs below MinInputSize.
	ErrTooSmall = errors.New("sdhash: input below minimum size")
	// ErrNoFeatures is returned when the input yields too few
	// characteristic features (e.g. uniformly random or constant data).
	ErrNoFeatures = errors.New("sdhash: input has too few characteristic features")
)

// Digest is a similarity-preserving digest of a byte stream.
type Digest struct {
	filters  [][]byte // each bloomBytes long
	counts   []int    // features per filter
	features int
	size     int // input length in bytes
}

// FeatureCount returns the number of features folded into the digest.
func (d *Digest) FeatureCount() int { return d.features }

// FilterCount returns the number of Bloom filters in the digest.
func (d *Digest) FilterCount() int { return len(d.filters) }

// InputSize returns the length in bytes of the digested input.
func (d *Digest) InputSize() int { return d.size }

// MemSize estimates the digest's resident size in bytes — the filters plus
// per-filter bookkeeping — for cache byte accounting. A nil digest costs
// nothing.
func (d *Digest) MemSize() int {
	if d == nil {
		return 0
	}
	n := 48
	for _, f := range d.filters {
		n += len(f) + 8
	}
	return n
}

// bucketRank maps an entropy bucket ⌊H·1000/6⌋ (a 64-byte window has at
// most 6 bits of entropy, so buckets run 0..1000, like sdhash's entropy
// scoring) to a selection rank. Both very low entropy (constant runs,
// padding) and near-maximal entropy (compressed or encrypted regions) rank
// at zero, so random-looking data generates few features — the property
// that drives ciphertext scores to zero.
var bucketRank = func() (t [1001]uint8) {
	for b := range t {
		switch {
		case b < 100:
		case b >= 890:
			// Near-random: uniformly sampled 64-byte windows land around
			// bucket 930+ (entropy ≈ 5.6+ of 6), with a tail reaching down
			// toward 890. Zero the whole band so ciphertext and compressed
			// streams generate no features.
		case b >= 850:
			t[b] = uint8(1 + (890-b)/10)
		default:
			// Unimodal ramp peaking in the mid-entropy band where
			// characteristic, low-probability features live.
			t[b] = uint8(5 + b/10)
		}
	}
	return t
}()

// A window's entropy is H = 6 − S/64 with S = Σ f·log2(f) over its byte
// counts f, so its bucket is ⌊1000 − S·125/48⌋. S is kept in fixed point,
// scaled by 2^fixedShift: every term f·log2(f) is rounded once, so a
// window's S depends only on its byte counts, never on where the window
// sits in the input. The rounding error (at most 64·2^-33) is far below
// 2.24e-6, the closest any partition of 64 comes to a rank boundary without
// sitting on it; the 49 that sit on one have power-of-two counts, whose
// terms are exact in fixed point. TestRankExhaustivePartitions checks every
// partition.
const (
	fixedShift = 32
	// fixedBucket is one entropy bucket in fixed-point S units: 48/125.
	fixedBucket = 48 << fixedShift
)

// flogStep[f] is the fixed-point change in S when one byte value's count
// in the window rises from f to f+1: round((f+1)·log2(f+1)·2^32) −
// round(f·log2(f)·2^32). Sized 256 so a uint8 count indexes it unchecked.
var flogStep = func() (t [256]uint64) {
	g := func(f int) uint64 {
		if f < 2 {
			return 0
		}
		return uint64(math.Round(float64(f) * math.Log2(float64(f)) * (1 << fixedShift)))
	}
	for f := 0; f < WindowSize; f++ {
		t[f] = g(f+1) - g(f)
	}
	return t
}()

// rankOf maps a window's fixed-point S to its selection rank. S never
// exceeds 384 (one byte value filling the window), so the numerator is
// non-negative and the division floors exactly.
func rankOf(s uint64) uint8 {
	return bucketRank[(1000*fixedBucket-125*s)/fixedBucket]
}

// windowRanks sets ranks[i] to the selection rank of the window starting at
// data[i], for every window of data; len(ranks) must be len(data) −
// WindowSize + 1 ≥ 1. It rolls the byte histogram and S one byte at a
// time: the outgoing byte's count falls before the incoming byte's rises,
// so a byte that both leaves and enters cancels exactly.
func windowRanks(data []byte, ranks []uint8) {
	var freq [256]uint8
	var s uint64
	for _, b := range data[:WindowSize] {
		s += flogStep[freq[b]]
		freq[b]++
	}
	ranks[0] = rankOf(s)
	rest := ranks[1:]
	outs := data[:len(rest)]
	ins := data[WindowSize : WindowSize+len(rest)]
	for i := range rest {
		out, in := outs[i], ins[i]
		freq[out]--
		s -= flogStep[freq[out]]
		s += flogStep[freq[in]]
		freq[in]++
		rest[i] = rankOf(s)
	}
}

// rankPool recycles per-window rank buffers across Compute calls: a 1 MiB
// input needs a 1 MiB rank buffer, which dominated the digest's allocation
// profile when it was rebuilt per call.
var rankPool = sync.Pool{New: func() any { return new([]uint8) }}

// The strict left test below spaces selected features more than
// selectionSpan windows apart, so the minFeatureGap rule never binds; this
// stops compiling if it ever could.
const _ uint = selectionSpan - minFeatureGap

// selectFeatures returns the start offsets of selected features: windows
// whose rank is positive, strictly greater than every rank up to
// selectionSpan windows to the left and at least every rank up to
// selectionSpan windows to the right, and at least minFeatureGap bytes
// after the previous feature.
//
// The scan skips every window that provably fails that test, so it does
// about two rank compares per window instead of up to 2·selectionSpan+1:
//   - a rank-zero window fails;
//   - if a larger rank lies at j within selectionSpan to the right of i,
//     i fails, and so does every window between them, since j is within
//     each one's right span and outranks it: jump to j;
//   - otherwise every window in (i, i+selectionSpan] has i in its left
//     span with a rank at least its own, so it fails whether or not i is
//     selected: test i's left span once, then jump past them.
func selectFeatures(data []byte) []int {
	n := len(data) - WindowSize + 1
	if n <= 0 {
		return nil
	}
	bufp := rankPool.Get().(*[]uint8)
	ranks := *bufp
	if cap(ranks) < n {
		ranks = make([]uint8, n)
	} else {
		ranks = ranks[:n]
	}
	windowRanks(data, ranks)
	var selected []int
	for i := 0; i < n; {
		r := ranks[i]
		if r == 0 {
			// Ciphertext ranks zero throughout: skip zero runs eight
			// windows at a time.
			for i++; i+8 <= n && binary.LittleEndian.Uint64(ranks[i:]) == 0; i += 8 {
			}
			continue
		}
		hi := min(i+selectionSpan, n-1)
		j := i + 1
		for j <= hi && ranks[j] <= r {
			j++
		}
		if j <= hi {
			i = j
			continue
		}
		k := max(i-selectionSpan, 0)
		for k < i && ranks[k] < r {
			k++
		}
		if k == i {
			selected = append(selected, i)
		}
		i += selectionSpan + 1
	}
	*bufp = ranks
	rankPool.Put(bufp)
	return selected
}

// Compute builds the similarity digest of data.
func Compute(data []byte) (*Digest, error) {
	if len(data) < MinInputSize {
		return nil, ErrTooSmall
	}
	return digestOf(data, selectFeatures(data))
}

// digestOf folds the features of data starting at offsets into a digest.
func digestOf(data []byte, offsets []int) (*Digest, error) {
	if len(offsets) < minFeatures {
		return nil, ErrNoFeatures
	}
	d := &Digest{size: len(data)}
	cur := make([]byte, bloomBytes)
	n := 0
	for _, off := range offsets {
		h := sha1.Sum(data[off : off+WindowSize])
		insertFeature(cur, h)
		n++
		d.features++
		if n == featuresPerFilter {
			d.filters = append(d.filters, cur)
			d.counts = append(d.counts, n)
			cur = make([]byte, bloomBytes)
			n = 0
		}
	}
	if n > 0 {
		d.filters = append(d.filters, cur)
		d.counts = append(d.counts, n)
	}
	return d, nil
}

// insertFeature sets hashesPerFeature 11-bit indexes from the SHA-1 feature
// hash in the Bloom filter.
func insertFeature(filter []byte, h [20]byte) {
	for k := 0; k < hashesPerFeature; k++ {
		// 11 bits per index, consecutive, starting at bit k*11.
		bitoff := k * 11
		idx := (uint32(h[bitoff/8]) | uint32(h[bitoff/8+1])<<8 | uint32(h[bitoff/8+2])<<16) >> (uint(bitoff) % 8)
		idx &= bloomBits - 1
		filter[idx/8] |= 1 << (idx % 8)
	}
}

// Compare scores the similarity of two digests from 0 to 100. A score of
// 100 indicates near-certain homology; 0 is indistinguishable from comparing
// random data. Comparison is symmetric.
func (d *Digest) Compare(other *Digest) int {
	if d == nil || other == nil || len(d.filters) == 0 || len(other.filters) == 0 {
		return 0
	}
	a, b := d, other
	if len(a.filters) > len(b.filters) {
		a, b = b, a
	}
	total := 0
	for i, fa := range a.filters {
		best := 0
		for j, fb := range b.filters {
			s := filterScore(fa, a.counts[i], fb, b.counts[j])
			if s > best {
				best = s
			}
		}
		total += best
	}
	return total / len(a.filters)
}

// filterScore compares two Bloom filters, normalising away the overlap
// expected from chance alone.
func filterScore(fa []byte, ca int, fb []byte, cb int) int {
	var common, na, nb int
	for i := range fa {
		common += bits.OnesCount8(fa[i] & fb[i])
		na += bits.OnesCount8(fa[i])
		nb += bits.OnesCount8(fb[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	expected := float64(na) * float64(nb) / bloomBits
	maxCommon := float64(na)
	if nb < na {
		maxCommon = float64(nb)
	}
	if maxCommon <= expected {
		return 0
	}
	score := 100 * (float64(common) - expected) / (maxCommon - expected)
	// Like sdhash, treat low-feature filters with weak overlap as noise.
	if ca < 8 || cb < 8 {
		score -= 10
	}
	if score < 0 {
		return 0
	}
	if score > 100 {
		return 100
	}
	return int(score)
}

// Similarity is a convenience wrapper digesting both inputs and comparing
// them. It returns an error if either input cannot be digested.
func Similarity(a, b []byte) (int, error) {
	da, err := Compute(a)
	if err != nil {
		return 0, err
	}
	db, err := Compute(b)
	if err != nil {
		return 0, err
	}
	return da.Compare(db), nil
}
