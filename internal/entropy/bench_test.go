package entropy

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkShannon(b *testing.B) {
	for _, size := range []int{512, 4 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			data := make([]byte, size)
			rand.New(rand.NewSource(7)).Read(data)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Shannon(data)
			}
		})
	}
}

func BenchmarkShannonMixed(b *testing.B) {
	// Document-like content: half text, half binary — exercises the
	// frequency-table path on non-uniform data.
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(8)).Read(data[32<<10:])
	for i := 0; i < 32<<10; i++ {
		data[i] = byte('a' + i%26)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Shannon(data)
	}
}
