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

// BenchmarkSdhashCompute digests document-like input, where selection
// finds features, and ciphertext, where every window ranks zero and the
// rank pass is the whole cost.
func BenchmarkSdhashCompute(b *testing.B) {
	for _, in := range []struct {
		name string
		gen  func(size int) []byte
	}{
		{"doc", benchInput},
		{"cipher", func(size int) []byte { return genRandom(98, size) }},
	} {
		for _, size := range []int{4 << 10, 32 << 10, 64 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%s/size=%dKiB", in.name, size>>10), func(b *testing.B) {
				data := in.gen(size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Compute(data); err != nil && err != ErrNoFeatures {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSdhashCompare(b *testing.B) {
	for _, in := range []struct {
		name string
		a, b []byte
	}{
		{"text/size=32KiB", genText(21, 32<<10), genText(22, 32<<10)},
		{"doc/size=256KiB", benchInput(256 << 10), benchInput(256 << 10)},
	} {
		b.Run(in.name, func(b *testing.B) {
			da, err := Compute(in.a)
			if err != nil {
				b.Fatal(err)
			}
			db, err := Compute(in.b)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				da.Compare(db)
			}
		})
	}
}
