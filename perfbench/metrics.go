package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. The end-to-end table is what an
// untraced run prints; the per-layer table is what a traced run prints.
// BENCHMARK.json at the repository root must name exactly these metrics
// with these units (the package tests check it).
type metricDef struct {
	name  string
	unit  string
	lower bool    // lower is better
	bound float64 // end-to-end only: allowed worsening as a share of the parent's median
	// moves names the end-to-end metric and workload this per-layer metric
	// should move; for an end-to-end metric it states how each workload
	// defines it.
	moves string
}

// endToEnd are the metrics a user of the system sees, defined on every
// workload. Workload-specific figures (time to detect, files lost, batch
// and verdict latency, restore time) are printed as readable lines by every
// run and as e2e.* per-layer metrics by the traced run.
var endToEnd = []metricDef{
	{"setup_s", "s", true, 0.25, "median of repeated set-ups (corpus, trace recording and reference verdicts, server start) plus every per-unit pristine corpus clone"},
	{"ops_per_s", "ops/s", false, 0.25, "facade: monitored vfs ops completed per second of monitor time; ingest: ops acked and applied (every session flushed) per second of streaming"},
	{"op_us_p50", "us", true, 0.25, "facade: one monitored vfs call, bracketed at the outermost filter altitude; ingest: the Submit round trip of the batch carrying the op"},
	{"op_us_p99", "us", true, 0.25, "as op_us_p50, 99th percentile"},
	{"unit_ms_p50", "ms", true, 0.25, "attack: first op to suspension (time to detect); office: percentiles of the thirty applications' median run times; ingest: a session's first Submit to its Flush ack"},
	{"unit_ms_p90", "ms", true, 0.25, "as unit_ms_p50, 90th percentile"},
	{"heap_mb", "MiB", true, 0.25, "live heap the measured work holds, after a forced GC: at the end of a sampled unit (facade) or an epoch (ingest), Monitor or sessions still open, less the heap before that unit or epoch; median per pass or epoch, then over them"},
}

// perLayer are the traced run's metrics. Counts and times are per run
// unless the name says per op; a metric whose layer a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	// vfs
	{name: "vfs.ops.create", unit: "count", moves: "op_us_* on office; unit_ms_* (detect) on attack"},
	{name: "vfs.ops.open", unit: "count", moves: "op_us_* on office; unit_ms_* (detect) on attack"},
	{name: "vfs.ops.read", unit: "count", moves: "op_us_* on office; unit_ms_* (detect) on attack"},
	{name: "vfs.ops.write", unit: "count", moves: "op_us_* on office; unit_ms_* (detect) on attack"},
	{name: "vfs.ops.close", unit: "count", moves: "op_us_* on office; unit_ms_* (detect) on attack"},
	{name: "vfs.ops.delete", unit: "count", moves: "op_us_* on office; unit_ms_* (detect) on attack"},
	{name: "vfs.ops.rename", unit: "count", moves: "op_us_* on office; unit_ms_* (detect) on attack"},
	{name: "vfs.backend_us", unit: "us/op", lower: true, moves: "op_us_* on office; unit_ms_* (detect) on attack"},
	{name: "vfs.bytes_read", unit: "bytes", moves: "op_us_* on office"},
	{name: "vfs.bytes_written", unit: "bytes", moves: "op_us_* on office"},
	{name: "vfs.clone_ms", unit: "ms", lower: true, moves: "setup_s on attack and office"},
	// filter, vfsadapter
	{name: "filter.pre_us", unit: "us/op", lower: true, moves: "op_us_* on office and attack"},
	{name: "filter.post_us", unit: "us/op", lower: true, moves: "op_us_* on office and attack"},
	{name: "filter.vetoes", unit: "count", moves: "unit_ms_* (detect) on attack"},
	// core
	{name: "core.dispatch_us", unit: "us/op", lower: true, moves: "op_us_* on office; unit_ms_* on attack; ops_per_s and unit_ms_* on ingest"},
	{name: "core.measure.count", unit: "count", moves: "op_us_* on office; ops_per_s on ingest"},
	{name: "core.measure.bytes", unit: "bytes", moves: "op_us_* on office; ops_per_s on ingest"},
	{name: "core.measure_us", unit: "us/op", lower: true, moves: "op_us_* on office; unit_ms_* on attack; ops_per_s on ingest"},
	{name: "core.measure_us.sampled", unit: "us/op", lower: true, moves: "op_us_* on office (sampled tier only)"},
	{name: "core.measure.memo_hits", unit: "count", moves: "ops_per_s on ingest (memo cache only)"},
	{name: "core.pool_saturated", unit: "count", moves: "op_us_p99 on office (measure pool only)"},
	{name: "core.lock_wait_us", unit: "us/op", lower: true, moves: "op_us_* on office"},
	{name: "core.read_failures", unit: "count", moves: "correctness on every workload"},
	{name: "core.detections", unit: "count", moves: "unit_ms_* on attack; flat elsewhere"},
	// measurement kernels on the run's own contents
	{name: "magic.ns_per_kib", unit: "ns/KiB", lower: true, moves: "core.measure_us, hence op_us_* on office and ops_per_s on ingest"},
	{name: "entropy.ns_per_kib", unit: "ns/KiB", lower: true, moves: "core.measure_us, hence op_us_* on office and ops_per_s on ingest"},
	{name: "sdhash.compute_ns_per_kib", unit: "ns/KiB", lower: true, moves: "core.measure_us, hence op_us_* on office and ops_per_s on ingest"},
	{name: "sdhash.compare_ns", unit: "ns", lower: true, moves: "core.measure_us, hence op_us_* on office and ops_per_s on ingest"},
	{name: "content.repeat_share", unit: "share", moves: "what a memo cache could save: high on ingest, near zero on attack"},
	// indicator, policy
	{name: "indicator.awards.file-type-change", unit: "count", moves: "e2e.files_lost_median and unit_ms_* on attack; flat elsewhere"},
	{name: "indicator.awards.similarity", unit: "count", moves: "e2e.files_lost_median and unit_ms_* on attack; flat elsewhere"},
	{name: "indicator.awards.entropy-delta", unit: "count", moves: "e2e.files_lost_median and unit_ms_* on attack; flat elsewhere"},
	{name: "indicator.awards.deletion", unit: "count", moves: "e2e.files_lost_median and unit_ms_* on attack; flat elsewhere"},
	{name: "indicator.awards.funneling", unit: "count", moves: "e2e.files_lost_median and unit_ms_* on attack; flat elsewhere"},
	{name: "policy.union_fires", unit: "count", moves: "e2e.files_lost_median and unit_ms_* on attack; flat elsewhere"},
	// vfs/versioned
	{name: "versioned.capture_us", unit: "us/op", lower: true, moves: "op_us_* on office; unit_ms_* on attack"},
	{name: "versioned.captures", unit: "count", moves: "op_us_* on office; unit_ms_* on attack"},
	{name: "versioned.retained_bytes_peak", unit: "bytes", lower: true, moves: "heap_mb on attack"},
	{name: "versioned.evictions", unit: "count", moves: "correctness on attack (0 under an unbounded store)"},
	// recovery
	{name: "recovery.rollback_ms", unit: "ms", lower: true, moves: "e2e.rollback_ms_p50 on attack"},
	{name: "recovery.files_restored", unit: "count", moves: "e2e.rollback_ms_p50 on attack"},
	{name: "recovery.files_recreated", unit: "count", moves: "e2e.rollback_ms_p50 on attack"},
	{name: "recovery.failures", unit: "count", moves: "correctness on attack"},
	{name: "recovery.bytes_restored", unit: "bytes", moves: "e2e.rollback_ms_p50 on attack"},
	// host
	{name: "host.apply_us_per_op", unit: "us/op", lower: true, moves: "ops_per_s and unit_ms_* on ingest"},
	{name: "host.queue_extra_us", unit: "us/op", lower: true, moves: "ops_per_s and unit_ms_* on ingest"},
	{name: "host.backpressure_waits", unit: "count", moves: "op_us_p99 on ingest"},
	{name: "host.degrades", unit: "count", moves: "correctness on ingest"},
	{name: "host.shed_bytes", unit: "bytes", moves: "correctness on ingest"},
	{name: "host.sessions_open", unit: "count", moves: "heap_mb on ingest"},
	{name: "host.heap_bytes_per_session", unit: "bytes", lower: true, moves: "heap_mb on ingest"},
	// host durability, snapshot
	{name: "wal.bytes_per_op", unit: "bytes/op", lower: true, moves: "ops_per_s on ingest-durable; no change on ingest"},
	{name: "checkpoint.bytes", unit: "bytes", lower: true, moves: "ops_per_s and e2e.restore_s on ingest-durable"},
	{name: "snapshot.seal_ms", unit: "ms", lower: true, moves: "ops_per_s and e2e.restore_s on ingest-durable"},
	{name: "restore.per_session_ms", unit: "ms", lower: true, moves: "e2e.restore_s on ingest-durable"},
	// server, server/wire, server/client
	{name: "client.submit_us", unit: "us", lower: true, moves: "op_us_* and ops_per_s on both ingest workloads; no change on attack and office"},
	{name: "client.retries", unit: "count", moves: "op_us_p99 on both ingest workloads"},
	{name: "server.frame_us", unit: "us", lower: true, moves: "op_us_* and ops_per_s on both ingest workloads"},
	{name: "server.overload_refusals", unit: "count", moves: "op_us_p99 on both ingest workloads"},
	{name: "server.rate_refusals", unit: "count", moves: "op_us_p99 on both ingest workloads"},
	{name: "server.ops_duplicate", unit: "count", moves: "ops_per_s on both ingest workloads"},
	{name: "wire.encode_ns_per_kib", unit: "ns/KiB", lower: true, moves: "op_us_* and ops_per_s on both ingest workloads"},
	{name: "wire.decode_ns_per_kib", unit: "ns/KiB", lower: true, moves: "op_us_* and ops_per_s on both ingest workloads"},
	{name: "wire.bytes_per_op", unit: "bytes/op", lower: true, moves: "op_us_* and ops_per_s on both ingest workloads"},
	// the ingest layer ladder: one producer, the same streams, one layer more per rung
	{name: "ladder.replay_us_per_op", unit: "us/op", lower: true, moves: "ops_per_s on ingest (core)"},
	{name: "ladder.direct_us_per_op", unit: "us/op", lower: true, moves: "ops_per_s on ingest (host apply)"},
	{name: "ladder.queued_us_per_op", unit: "us/op", lower: true, moves: "ops_per_s on ingest (host queue)"},
	{name: "ladder.codec_us_per_op", unit: "us/op", lower: true, moves: "ops_per_s on ingest (server/wire)"},
	{name: "ladder.loopback_us_per_op", unit: "us/op", lower: true, moves: "ops_per_s on ingest (HTTP and admission)"},
	{name: "ladder.durable_us_per_op", unit: "us/op", lower: true, moves: "ops_per_s on ingest-durable (WAL)"},
	// workload-specific end-to-end figures, from the traced run's untraced pass
	{name: "e2e.detect_ms_p50", unit: "ms", lower: true, moves: "attack: first op to suspension"},
	{name: "e2e.detect_ms_p90", unit: "ms", lower: true, moves: "attack: first op to suspension"},
	{name: "e2e.files_lost_median", unit: "files", lower: true, moves: "attack: Table I files lost before rollback"},
	{name: "e2e.rollback_ms_p50", unit: "ms", lower: true, moves: "attack: detection callback to the end of the op that ran the rollback"},
	{name: "e2e.batch_ms_p50", unit: "ms", lower: true, moves: "ingest: Stream.Submit round trip"},
	{name: "e2e.batch_ms_p99", unit: "ms", lower: true, moves: "ingest: Stream.Submit round trip"},
	{name: "e2e.verdict_ms_p50", unit: "ms", lower: true, moves: "ingest: a session's last Submit returning to its Flush ack"},
	{name: "e2e.verdict_ms_p90", unit: "ms", lower: true, moves: "ingest: a session's last Submit returning to its Flush ack"},
	{name: "e2e.restore_s", unit: "s", lower: true, moves: "ingest-durable: restart until every session is back with equal detections"},
	// attribution quality
	{name: "unattributed_share", unit: "share", lower: true, moves: "not a target: end-to-end time no layer's self time covers"},
	{name: "trace_overhead_share", unit: "share", lower: true, moves: "not a target: traced vs untraced ops_per_s"},
	{name: "trace.spans_dropped", unit: "count", lower: true, moves: "not a target: must stay 0"},
}

// indicatorNames are the default registry's indicator names, as the
// engine's telemetry labels them.
var indicatorNames = []string{"file-type-change", "similarity", "entropy-delta", "deletion", "funneling"}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of v, which
// it sorts in place. It returns 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(p*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

// median is percentile 0.5 averaged over the two middle values for even
// counts, so a median of whole numbers can read x.5.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// share returns a/b, or 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
