package sdhash

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchInput builds document-like content in the mid-entropy band where
// feature selection does real work: words of structured text with
// occasional binary runs, like the corpus generator's documents.
func benchInput(size int) []byte {
	rng := rand.New(rand.NewSource(99))
	words := []string{"the", "similarity", "digest", "selects", "features",
		"from", "entropy", "windows", "bloom", "filter", "ransomware"}
	out := make([]byte, 0, size)
	for len(out) < size {
		out = append(out, words[rng.Intn(len(words))]...)
		out = append(out, ' ')
		if rng.Intn(20) == 0 {
			run := make([]byte, 32)
			rng.Read(run)
			out = append(out, run...)
		}
	}
	return out[:size]
}

func BenchmarkSdhashCompute(b *testing.B) {
	for _, size := range []int{4 << 10, 32 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size=%dKiB", size>>10), func(b *testing.B) {
			data := benchInput(size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSdhashCompare(b *testing.B) {
	da, err := Compute(benchInput(256 << 10))
	if err != nil {
		b.Fatal(err)
	}
	db, err := Compute(benchInput(256 << 10))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		da.Compare(db)
	}
}
