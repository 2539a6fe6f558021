package core

// Benchmarks for content-hash memoization. BenchmarkMeasureMemoized isolates
// the per-measurement cost (full kernels vs a warm memo hit);
// BenchmarkEngineIngestDedupe drives a dedupe-heavy ingest — many protected
// files sharing identical content, every close re-measuring — through the
// whole engine in each configuration. Results are recorded in
// BENCH_PR6.json via an interleaved A/B run (see EXPERIMENTS.md).

import (
	"fmt"
	"testing"

	"cryptodrop/internal/corpus"
	"cryptodrop/internal/measurecache"
	"cryptodrop/internal/vfs"
)

// BenchmarkMeasureMemoized measures one measurement through
// Engine.measure: mode=plain runs the kernels (magic + entropy + sdhash)
// every time; mode=memoized hashes the content and resolves the state from
// a warm memo cache.
func BenchmarkMeasureMemoized(b *testing.B) {
	const root = "/Users/victim/Documents"
	for _, size := range benchSizes {
		for _, mode := range []string{"plain", "memoized"} {
			b.Run(fmt.Sprintf("size=%dKiB/mode=%s", size>>10, mode), func(b *testing.B) {
				fs := vfs.New()
				if err := fs.MkdirAll(root); err != nil {
					b.Fatal(err)
				}
				p := root + "/bench.docx"
				content := corpus.Generate("docx", 3, size)
				if err := fs.WriteFile(0, p, content); err != nil {
					b.Fatal(err)
				}
				h, err := fs.Open(0, p, vfs.ReadOnly)
				if err != nil {
					b.Fatal(err)
				}
				id := h.FileID()
				h.Close()

				cfg := DefaultConfig(root)
				if mode == "memoized" {
					cfg.MeasureCache = measurecache.New(64 << 20)
				}
				e := New(cfg, testSource{fs})
				// Warm: the first measurement fills the cache (memoized mode)
				// and faults nothing thereafter.
				if st := e.measure(id, false); st == nil {
					b.Fatal("nil state")
				}
				b.SetBytes(int64(len(content)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if st := e.measure(id, false); st == nil {
						b.Fatal("nil state")
					}
				}
			})
		}
	}
}

// BenchmarkEngineIngestDedupe is the dedupe-heavy ingest workload: 64
// protected files all sharing one 64 KiB content, a single benign process
// cycling open(write-intent)/close(wrote) over them so every close
// re-measures the file. mode=plain runs the full kernels per close;
// mode=memo resolves every measurement after the first from the shared
// cache (the content is still read and hashed).
func BenchmarkEngineIngestDedupe(b *testing.B) {
	for _, mode := range []string{"plain", "memo"} {
		b.Run("mode="+mode, func(b *testing.B) {
			const root = "/Users/victim/Documents"
			const nfiles = 64
			const size = 64 << 10
			fs := vfs.New()
			if err := fs.MkdirAll(root); err != nil {
				b.Fatal(err)
			}
			doc := corpus.Generate("docx", 11, size)
			paths := make([]string, nfiles)
			ids := make([]uint64, nfiles)
			for i := range paths {
				paths[i] = fmt.Sprintf("%s/dedupe%03d.docx", root, i)
				if err := fs.WriteFile(0, paths[i], doc); err != nil {
					b.Fatal(err)
				}
				h, err := fs.Open(0, paths[i], vfs.ReadOnly)
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = h.FileID()
				h.Close()
			}

			cfg := DefaultConfig(root)
			if mode == "memo" {
				cfg.MeasureCache = measurecache.New(64 << 20)
			}
			e := New(cfg, testSource{fs})
			const pid = 1
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := i % nfiles
				e.PreEvent(Event{Kind: EvOpen, PID: pid, Path: paths[slot], FileID: ids[slot],
					Flags: EvWriteIntent, Size: size})
				e.Handle(Event{Kind: EvClose, PID: pid, Path: paths[slot], FileID: ids[slot], Wrote: true})
			}
		})
	}
}
