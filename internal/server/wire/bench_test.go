package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"cryptodrop/internal/core"
	"cryptodrop/internal/host"
)

// ingestBatch builds n ops shaped like a producer's staged rewrites: each
// op closes a written file and stages size bytes of its new content,
// every other op also staging size bytes of the old content it opened.
func ingestBatch(n, size int) []host.Op {
	state := uint64(0x9e3779b97f4a7c15)
	content := func() []byte {
		b := make([]byte, size)
		for i := range b {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			b[i] = byte(state)
		}
		return b
	}
	ops := make([]host.Op, n)
	for i := range ops {
		id := uint64(100 + i)
		path := fmt.Sprintf("/home/user/docs/report-%03d.docx", i)
		ops[i] = host.Op{
			Event: core.Event{Kind: core.EvClose, PID: 4242, Path: path, FileID: id, Wrote: true},
			Post:  map[uint64][]byte{id: content()},
		}
		if i%2 == 0 {
			pre := core.Event{Kind: core.EvOpen, PID: 4242, Path: path, FileID: id, Flags: core.EvWriteIntent, Size: int64(size)}
			ops[i].PreEvent = &pre
			ops[i].Pre = map[uint64][]byte{id: content()}
		}
	}
	return ops
}

// BenchmarkFrameCodec encodes and decodes one frame of the ingest shape: a
// 16-op batch staging about 10 KB of content per op. Allocations per
// round trip are the decoded ops and their content copies.
func BenchmarkFrameCodec(b *testing.B) {
	ops := ingestBatch(16, 6800)
	buf := AppendFrame(nil, 0, ops)
	var src bytes.Reader
	br := bufio.NewReaderSize(&src, 64<<10)
	frames := NewFrameReader(br)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], int64(i), ops)
		src.Reset(buf)
		br.Reset(&src)
		f, err := frames.Next()
		if err != nil || len(f.Ops) != len(ops) {
			b.Fatalf("decode: %d ops, err %v", len(f.Ops), err)
		}
	}
}
