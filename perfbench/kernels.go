package main

import (
	"time"

	"cryptodrop/internal/entropy"
	"cryptodrop/internal/magic"
	"cryptodrop/internal/sdhash"
)

// kernelRounds bounds how long each kernel is timed: whole passes over the
// captured contents until this much time has gone by.
const kernelRounds = 150 * time.Millisecond

// timeKernel runs fn over every content in whole passes for at least
// kernelRounds and returns nanoseconds per KiB processed.
func timeKernel(contents [][]byte, fn func([]byte)) float64 {
	var bytes int64
	start := time.Now()
	for time.Since(start) < kernelRounds {
		for _, c := range contents {
			fn(c)
			bytes += int64(len(c))
		}
	}
	return share(float64(time.Since(start).Nanoseconds()), float64(bytes)/1024)
}

// kernelTimings times the public measurement kernels on the distinct
// contents the run's traced pass saw reach measurement, and reports how
// much of the measured traffic repeated earlier content.
func kernelTimings(l map[string]float64, log *contentLog) {
	l["content.repeat_share"] = log.repeatShare()
	if len(log.distinct) == 0 {
		return
	}
	l["magic.ns_per_kib"] = timeKernel(log.distinct, func(b []byte) { magic.Identify(b) })
	l["entropy.ns_per_kib"] = timeKernel(log.distinct, func(b []byte) { entropy.Shannon(b) })
	var big [][]byte
	for _, c := range log.distinct {
		if len(c) >= sdhash.MinInputSize {
			big = append(big, c)
		}
	}
	if len(big) == 0 {
		return
	}
	var digests []*sdhash.Digest
	l["sdhash.compute_ns_per_kib"] = timeKernel(big, func(b []byte) {
		if d, err := sdhash.Compute(b); err == nil && len(digests) < len(big) {
			digests = append(digests, d)
		}
	})
	if len(digests) < 2 {
		return
	}
	var n int64
	start := time.Now()
	for time.Since(start) < kernelRounds {
		for i := 1; i < len(digests); i++ {
			digests[i-1].Compare(digests[i])
			n++
		}
	}
	l["sdhash.compare_ns"] = share(float64(time.Since(start).Nanoseconds()), float64(n))
}
