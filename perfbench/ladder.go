package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cryptodrop/internal/core"
	"cryptodrop/internal/host"
	"cryptodrop/internal/server/client"
	"cryptodrop/internal/server/wire"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/trace"
)

// ladderReps is the least number of repetitions of one ladder rung; a rung
// repeats the whole pool at least this often and for at least
// scale.ladderMin, and reports the median repetition.
const ladderReps = 5

// rung times a body over the pool's ops: prepare is untimed set-up
// returning the timed body and an untimed clean-up. It returns the median
// microseconds per op.
func (env *ingestEnv) rung(minTime time.Duration, prepare func() (func() error, func(), error)) (float64, error) {
	ops := 0
	for _, s := range env.pool {
		ops += len(s.ops)
	}
	var perOp []float64
	start := time.Now()
	for len(perOp) < ladderReps || time.Since(start) < minTime {
		body, cleanup, err := prepare()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = body()
		d := time.Since(t0)
		if cleanup != nil {
			cleanup()
		}
		if err != nil {
			return 0, err
		}
		perOp = append(perOp, float64(d.Nanoseconds())/1e3/float64(ops))
	}
	return median(perOp), nil
}

// batches splits ops into Submit-sized batches.
func batches(ops []host.Op, n int) [][]host.Op {
	var out [][]host.Op
	for len(ops) > 0 {
		k := min(n, len(ops))
		out = append(out, ops[:k])
		ops = ops[k:]
	}
	return out
}

// ladder runs the pool's op streams through one layer more per rung, from
// a bare engine to the full loopback client/server path, always from one
// producer and one session at a time, so the differences between rungs
// attribute ingest time to core, host, the queue, server/wire and HTTP.
func (env *ingestEnv) ladder(ctx context.Context, cfg runConfig, l map[string]float64) error {
	sc := cfg.sc
	pool := env.pool

	// 1. EventReplayer.Replay into a bare engine.
	replay, err := env.rung(sc.ladderMin, func() (func() error, func(), error) {
		rps := make([]*trace.EventReplayer, len(pool))
		engs := make([]*core.Engine, len(pool))
		for i := range pool {
			rp, err := env.replayer()
			if err != nil {
				return nil, nil, err
			}
			rps[i], engs[i] = rp, core.New(core.DefaultConfig(serverRoot), rp)
		}
		return func() error {
			for i, s := range pool {
				if _, err := rps[i].Replay(engs[i], s.records); err != nil {
					return err
				}
			}
			return nil
		}, nil, nil
	})
	if err != nil {
		return err
	}

	// hostRung opens one session per stream on a fresh host and times
	// submit over every stream's batches.
	hostRung := func(hcfg host.Config, direct bool, submit func(*host.Session, []host.Op) error, after func(*host.Host)) (float64, error) {
		return env.rung(sc.ladderMin, func() (func() error, func(), error) {
			h := host.New(hcfg)
			sess := make([]*host.Session, len(pool))
			for i := range pool {
				s, err := h.Open(fmt.Sprintf("r%03d", i), host.SessionConfig{Engine: core.DefaultConfig(serverRoot), Direct: direct})
				if err != nil {
					return nil, nil, err
				}
				sess[i] = s
			}
			body := func() error {
				for i, s := range pool {
					for _, b := range batches(s.ops, sc.batch) {
						if err := submit(sess[i], b); err != nil {
							return err
						}
					}
				}
				return nil
			}
			cleanup := func() {
				if after != nil {
					after(h)
				}
				h.Shutdown(ctx)
			}
			return body, cleanup, nil
		})
	}
	// 2. A direct host session's Submit.
	direct, err := hostRung(host.Config{}, true, func(s *host.Session, b []host.Op) error { return s.Submit(ctx, b...) }, nil)
	if err != nil {
		return err
	}
	// 3. A queued session's Submit and Flush, one batch at a time.
	queued, err := hostRung(host.Config{}, false, func(s *host.Session, b []host.Op) error {
		if err := s.Submit(ctx, b...); err != nil {
			return err
		}
		return s.Flush(ctx)
	}, nil)
	if err != nil {
		return err
	}
	// Durability on the direct path: WAL appends for every batch, no
	// checkpoint until close; the WAL files are measured before it.
	walDir := filepath.Join(env.workDir, "ladder-wal")
	var walBytes, walOps int64
	durableUs, err := hostRung(host.Config{CheckpointDir: walDir}, true,
		func(s *host.Session, b []host.Op) error { return s.Submit(ctx, b...) },
		func(*host.Host) {
			matches, _ := filepath.Glob(filepath.Join(walDir, "*.wal"))
			for _, m := range matches {
				if fi, err := os.Stat(m); err == nil {
					walBytes += fi.Size()
				}
			}
			for _, s := range pool {
				walOps += int64(len(s.ops))
			}
		})
	os.RemoveAll(walDir)
	if err != nil {
		return err
	}

	// 4. The wire codec alone, split into encode and decode.
	var encNs, decNs, wireBytes, codecOps int64
	codec, err := env.rung(sc.ladderMin, func() (func() error, func(), error) {
		return func() error {
			var buf []byte
			for _, s := range pool {
				var seq int64
				for _, b := range batches(s.ops, sc.batch) {
					t0 := time.Now()
					buf = wire.AppendFrame(buf[:0], seq, b)
					t1 := time.Now()
					f, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(buf)))
					t2 := time.Now()
					if err != nil {
						return err
					}
					if len(f.Ops) != len(b) {
						return fmt.Errorf("codec round trip: %d ops, want %d", len(f.Ops), len(b))
					}
					encNs += t1.Sub(t0).Nanoseconds()
					decNs += t2.Sub(t1).Nanoseconds()
					wireBytes += int64(len(buf))
					codecOps += int64(len(b))
					seq += int64(len(b))
				}
			}
			return nil
		}, nil, nil
	})
	if err != nil {
		return err
	}

	// 5. The full loopback client/server path, Submit and Flush per batch.
	reg := telemetry.NewRegistry()
	var loopOps int64
	loopback, err := env.rung(sc.ladderMin, func() (func() error, func(), error) {
		h := host.New(host.Config{})
		ls, err := startServer(h, env.tenants, reg)
		if err != nil {
			return nil, nil, err
		}
		c := client.New(ls.base, tenantToken)
		streams := make([]*client.Stream, len(pool))
		for i := range pool {
			if streams[i], err = c.Open(ctx, fmt.Sprintf("l%03d", i)); err != nil {
				ls.drain(ctx)
				return nil, nil, err
			}
		}
		return func() error {
				for i, s := range pool {
					for _, b := range batches(s.ops, sc.batch) {
						if err := streams[i].Submit(ctx, b...); err != nil {
							return err
						}
						if _, err := streams[i].Flush(ctx); err != nil {
							return err
						}
						loopOps += int64(len(b))
					}
				}
				return nil
			}, func() {
				ls.drain(ctx)
			}, nil
	})
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	encUs := share(float64(encNs)/1e3, float64(codecOps))
	frameUs := share(histSum(snap, "server_frame_seconds")*1e6, float64(loopOps))

	l["ladder.replay_us_per_op"] = replay
	l["ladder.direct_us_per_op"] = direct
	l["ladder.queued_us_per_op"] = queued
	l["ladder.codec_us_per_op"] = codec
	l["ladder.loopback_us_per_op"] = loopback
	l["ladder.durable_us_per_op"] = durableUs
	l["host.apply_us_per_op"] = direct
	l["host.queue_extra_us"] = queued - direct
	l["wal.bytes_per_op"] = share(float64(walBytes), float64(walOps))
	l["wire.encode_ns_per_kib"] = share(float64(encNs), float64(wireBytes)/1024)
	l["wire.decode_ns_per_kib"] = share(float64(decNs), float64(wireBytes)/1024)
	l["wire.bytes_per_op"] = share(float64(wireBytes), float64(codecOps))
	// On the loopback rung, the queued rung covers the engine, host and
	// queue, the codec covers client-side encoding, and server_frame_seconds
	// covers frame decoding and admission. HTTP transport, auth, JSON acks
	// and the flush round trip have no instrument of their own.
	l["unattributed_share"] = share(loopback-queued-encUs-frameUs, loopback)
	return nil
}

// tracedQueued replays the pool through queued host sessions whose engines
// carry a span tracer and a telemetry registry — the in-program spans that
// server sessions cannot record, since server.session opens engines with
// core.DefaultConfig and no SpanTracer — and folds them into core metrics.
func (env *ingestEnv) tracedQueued(ctx context.Context, cfg runConfig, rep *report) error {
	l := rep.layers
	tracer := telemetry.NewSpanTracer(cfg.sc.spanCap, 1)
	reg := telemetry.NewRegistry()
	h := host.New(host.Config{Telemetry: reg})
	ops := 0
	for i, s := range env.pool {
		ecfg := core.DefaultConfig(serverRoot)
		ecfg.SpanTracer, ecfg.Telemetry = tracer, reg
		sess, err := h.Open(fmt.Sprintf("t%03d", i), host.SessionConfig{Engine: ecfg})
		if err != nil {
			return err
		}
		for _, b := range batches(s.ops, cfg.sc.batch) {
			if err := sess.Submit(ctx, b...); err != nil {
				return err
			}
		}
		if err := sess.Flush(ctx); err != nil {
			return err
		}
		if !sameDetections(sess.Detections(), s.dets) {
			rep.failed += int64(len(s.ops))
			rep.failures = append(rep.failures, fmt.Sprintf("traced replay of %s: detections differ from the reference", s.name))
		}
		ops += len(s.ops)
	}
	if _, err := h.Shutdown(ctx); err != nil {
		return err
	}
	st := attributeSpans(tracer.Spans())
	perOp := func(ns int64) float64 { return share(float64(ns)/1e3, float64(ops)) }
	l["core.dispatch_us"] = perOp(st.dispatchSelfNs)
	l["core.measure.count"] = float64(st.measures)
	l["core.measure_us"] = perOp(st.measureNs)
	l["core.measure_us.sampled"] = perOp(st.measureSampleNs)
	l["core.measure.memo_hits"] = float64(st.memoHits)
	rep.attempted += int64(ops)
	engineTelemetry(rep, reg.Snapshot(), float64(ops))
	l["trace.spans_dropped"] = float64(tracer.Dropped())
	return writeChromeTrace(cfg, cfg.workload, tracer)
}

// traced adds the ingest workloads' per-layer table: the same epochs with
// the host and server registries attached, the layer ladder, a traced
// replay through queued sessions, and kernel and codec timings on the
// run's own contents.
func (env *ingestEnv) traced(ctx context.Context, cfg runConfig, durable bool, untraced *ingestPass, rep *report) error {
	reg := telemetry.NewRegistry()
	tp, err := env.pass(ctx, cfg, durable, reg, time.Now().Add(cfg.seconds), len(untraced.epochs))
	if err != nil {
		return err
	}
	rep.attempted += tp.attempted
	rep.failed += tp.failed
	rep.failures = append(rep.failures, tp.failures...)
	l := rep.layers
	final := reg.Snapshot()
	l["host.backpressure_waits"] = float64(final.Counters["host_backpressure_waits_total"])
	l["host.degrades"] = float64(final.Counters["host_degrades_total"])
	var sealMs, heapPer, ckpt []float64
	var submitNs, submits int64
	for _, e := range tp.epochs {
		for name, v := range e.snap.Counters {
			if strings.HasPrefix(name, "host_session_shed_bytes_total") {
				l["host.shed_bytes"] += float64(v)
			}
		}
		sealMs = append(sealMs, e.sealMs)
		heapPer = append(heapPer, e.heapPerSes)
		ckpt = append(ckpt, e.ckptBytes)
		submitNs += e.submitNs
		submits += e.submits
	}
	l["host.sessions_open"] = tp.epochs[len(tp.epochs)-1].snap.Gauges["host_sessions_open"]
	l["host.heap_bytes_per_session"] = median(heapPer)
	l["snapshot.seal_ms"] = median(sealMs)
	if durable {
		l["checkpoint.bytes"] = median(ckpt)
		l["restore.per_session_ms"] = median(tp.restoreS) * 1e3 / float64(len(env.assign))
	}
	l["client.submit_us"] = share(float64(submitNs)/1e3, float64(submits))
	l["server.overload_refusals"] = float64(final.Counters["server_overload_refusals_total"])
	l["server.rate_refusals"] = float64(final.Counters["server_rate_refusals_total"])
	l["client.retries"] = l["server.overload_refusals"] + l["server.rate_refusals"]
	l["server.ops_duplicate"] = float64(final.Counters["server_ops_duplicate_total"])
	l["server.frame_us"] = share(histSum(final, "server_frame_seconds")*1e6, histCount(final, "server_frame_seconds"))
	l["trace_overhead_share"] = 1 - share(median(tp.rates), rep.e2e["ops_per_s"])

	if err := env.ladder(ctx, cfg, l); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	if err := env.tracedQueued(ctx, cfg, rep); err != nil {
		return err
	}
	// The contents that reach measurement are the staged pre- and
	// post-operation snapshots, in the order the epoch's sessions carry
	// them; streams repeat across sessions.
	log := newContentLog(cfg.sc.kernelBytes)
	for _, s := range env.assign {
		for i := range s.ops {
			for _, c := range s.ops[i].Pre {
				log.add(c)
			}
			for _, c := range s.ops[i].Post {
				log.add(c)
			}
		}
	}
	l["core.measure.bytes"] = float64(log.total)
	kernelTimings(l, log)
	rep.traceNote = fmt.Sprintf("traced pass: %d epochs, %d ops; ladder over %d streams", len(tp.epochs), tp.ops, len(env.pool))
	return nil
}
