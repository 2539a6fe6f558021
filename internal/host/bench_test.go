package host

// BenchmarkSessionIngest measures per-op ingest cost through a hosted
// session in both modes: "direct" is the synchronous path the single-session
// cryptodrop.Monitor runs (Submit applies inline), "queued" is the
// multi-session path (a bounded queue drained by the session worker). The
// op mix mirrors the core engine bench: payload reads/writes with a full
// close-time transformation evaluation every tenth op. The queued producer
// outruns the worker, so the steady state measures worker throughput under
// backpressure — the number the ≤3%-overhead budget in BENCH_PR4.json is
// about. Degradation is disabled so sustained saturation cannot switch
// scoring mode mid-benchmark.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cryptodrop/internal/core"
	"cryptodrop/internal/corpus"
)

func BenchmarkSessionIngest(b *testing.B) {
	b.Run("direct", func(b *testing.B) { benchSessionIngest(b, true) })
	b.Run("queued", func(b *testing.B) { benchSessionIngest(b, false) })
	b.Run("direct-op", benchDirectOp)
}

// benchDirectOp submits one content-free in-root open per Submit on a
// direct session: the shape cryptodrop.Monitor's filter submits after most
// filesystem operations (its PreEvent is a zero-Kind event, so only Handle
// runs), and so the cost the session adds to every facade operation.
func benchDirectOp(b *testing.B) {
	const path = "/Users/victim/Documents/a.docx"
	sess, err := New(Config{}).Open("bench", SessionConfig{
		Engine: core.DefaultConfig("/Users/victim/Documents"),
		Direct: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	var handleOnly core.Event
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := Op{
			Event: core.Event{Kind: core.EvOpen, PID: 1, Path: path, FileID: 1,
				Flags: core.EvReadIntent},
			PreEvent: &handleOnly,
		}
		if err := sess.Submit(ctx, op); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSessionIngest(b *testing.B, direct bool) {
	benchSessionIngestHost(b, direct, Config{}, 16)
}

// benchSessionIngestHost is the shared ingest-bench body, parameterised on
// the host configuration (the durability benches pass checkpoint settings)
// and the batch size (1 turns every Submit into a single-op batch — the
// checkpoint-every-op worst case).
func benchSessionIngestHost(b *testing.B, direct bool, hcfg Config, batchSize int) {
	const root = "/Users/victim/Documents"
	const nfiles = 64
	doc := corpus.Generate("docx", 7, 16<<10)
	cipher := make([]byte, 16<<10)
	rand.New(rand.NewSource(42)).Read(cipher)

	// A ring of pre-built op batches cycling the bench op mix over the
	// file set; the loop submits slices of it so op construction stays out
	// of the measurement.
	var ring []Op
	for i := 0; len(ring) < 10*batchSize; i++ {
		id := uint64(i%nfiles + 1)
		p := fmt.Sprintf("%s/bench%03d.docx", root, id)
		switch {
		case i%10 == 9:
			pre := core.Event{Kind: core.EvOpen, PID: 1, Path: p, FileID: id,
				Flags: core.EvWriteIntent, Size: int64(len(doc))}
			// Every file holds the same document, like a corpus of
			// identical documents, staged in the ops that read it.
			ring = append(ring,
				Op{PreEvent: &pre, Pre: map[uint64][]byte{id: doc}},
				Op{Event: core.Event{Kind: core.EvClose, PID: 1, Path: p, FileID: id, Wrote: true},
					Post: map[uint64][]byte{id: doc}})
		case i%2 == 0:
			ring = append(ring, Op{Event: core.Event{Kind: core.EvRead, PID: 1, Path: p,
				FileID: id, Data: doc}})
		default:
			ring = append(ring, Op{Event: core.Event{Kind: core.EvWrite, PID: 1, Path: p,
				FileID: id, Data: cipher, Size: int64(len(cipher))}})
		}
	}
	ring = ring[:10*batchSize]

	h := New(hcfg)
	sess, err := h.Open("bench", SessionConfig{
		Engine:       core.DefaultConfig(root),
		Direct:       direct,
		DegradeAfter: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for n, k := 0, 0; n < b.N; n += batchSize {
		if err := sess.Submit(ctx, ring[k:k+batchSize]...); err != nil {
			b.Fatal(err)
		}
		if k += batchSize; k == len(ring) {
			k = 0
		}
	}
	if err := sess.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if _, err := h.CloseSession(context.Background(), "bench"); err != nil {
		b.Fatal(err)
	}
}
