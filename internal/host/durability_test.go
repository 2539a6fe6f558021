package host

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cryptodrop/internal/core"
	"cryptodrop/internal/snapshot"
	"cryptodrop/internal/telemetry"
)

// plainContent is a deterministic low-entropy "document" for file id.
func plainContent(id uint64, n int) []byte {
	line := fmt.Sprintf("file %d: the quick brown fox jumps over the lazy dog.\n", id)
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString(line)
	}
	return b.Bytes()[:n]
}

// cipherContent is a deterministic high-entropy rewrite of file id, produced
// by a seeded xorshift keystream so every run generates identical bytes.
func cipherContent(id uint64, n int) []byte {
	state := id*2654435761 + 0x9e3779b97f4a7c15
	out := make([]byte, n)
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		out[i] = byte(state)
	}
	return out
}

// encryptOp is one in-place encryption of file id as a single host op: the
// pre-version staged for the destructive-open snapshot, the ciphertext staged
// for the close-time measurement.
func encryptOp(pid int, id uint64) Op {
	path := fmt.Sprintf("/docs/f%d.txt", id)
	plain := plainContent(id, 2048)
	return Op{
		PreEvent: &core.Event{
			Kind: core.EvOpen, PID: pid, Path: path, FileID: id,
			Flags: core.EvWriteIntent, Size: int64(len(plain)),
		},
		Pre:   map[uint64][]byte{id: plain},
		Event: core.Event{Kind: core.EvClose, PID: pid, Path: path, FileID: id, Wrote: true},
		Post:  map[uint64][]byte{id: cipherContent(id, 2048)},
	}
}

// encryptionWorkload is a deterministic n-file Class A attack as host ops.
func encryptionWorkload(pid int, n int) []Op {
	ops := make([]Op, 0, n)
	for id := uint64(1); id <= uint64(n); id++ {
		ops = append(ops, encryptOp(pid, id))
	}
	return ops
}

// submitBatched feeds ops to a session in fixed-size batches.
func submitBatched(t *testing.T, sess *Session, ops []Op, batch int) {
	t.Helper()
	ctx := context.Background()
	for len(ops) > 0 {
		n := batch
		if n > len(ops) {
			n = len(ops)
		}
		if err := sess.Submit(ctx, ops[:n]...); err != nil {
			t.Fatal(err)
		}
		ops = ops[n:]
	}
}

// runReference applies the full workload to an uninterrupted non-durable
// session and returns its final report — the bit-identical expectation.
func runReference(t *testing.T, sc SessionConfig, ops []Op, batch int) SessionReport {
	t.Helper()
	h := New(Config{})
	sess, err := h.Open("ref", sc)
	if err != nil {
		t.Fatal(err)
	}
	submitBatched(t, sess, ops, batch)
	rep, err := h.CloseSession(context.Background(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// requireIdentical asserts the recovered report matches the reference bit
// for bit on everything scoring-visible.
func requireIdentical(t *testing.T, got, want SessionReport) {
	t.Helper()
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Fatalf("scoreboards diverge:\ngot  %+v\nwant %+v", got.Reports, want.Reports)
	}
	if !reflect.DeepEqual(got.Detections, want.Detections) {
		t.Fatalf("detections diverge:\ngot  %+v\nwant %+v", got.Detections, want.Detections)
	}
	if got.Ingested != want.Ingested {
		t.Fatalf("ingested %d, want %d", got.Ingested, want.Ingested)
	}
}

// TestWALRoundTrip pins the WAL encoding: every Op field shape survives the
// append/read cycle exactly.
func TestWALRoundTrip(t *testing.T) {
	pre := core.Event{Kind: core.EvOpen, PID: 7, Path: "/docs/a.txt", FileID: 3,
		Flags: core.EvWriteIntent | core.EvReadIntent, Size: 512}
	records := []walRecord{
		{start: 0, ops: []Op{
			{Event: core.Event{Kind: core.EvWrite, PID: 7, Path: "/docs/a.txt",
				FileID: 3, Data: []byte{0, 1, 2, 0xff}, Offset: 64, Size: 4, Wrote: true}},
		}},
		{start: 1, ops: []Op{
			{
				Event:    core.Event{Kind: core.EvClose, PID: 7, Path: "/docs/a.txt", FileID: 3, Wrote: true},
				PreEvent: &pre,
				Pre:      map[uint64][]byte{3: []byte("before")},
				Post:     map[uint64][]byte{3: []byte("after"), 9: {}},
				Evict:    []uint64{3, 9},
			},
			{Event: core.Event{Kind: core.EvRename, PID: -1, Path: "/docs/a.txt",
				NewPath: "/tmp/a.txt", FileID: 3, ReplacedID: 4, Offset: -8}},
			{}, // baseline-only op with a zero event
		}},
	}

	data := append([]byte{}, walHeader...)
	for _, rec := range records {
		data = AppendBatch(data, rec.start, rec.ops)
	}
	path := filepath.Join(t.TempDir(), "s.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, records) {
		t.Fatalf("WAL round trip diverged:\ngot  %+v\nwant %+v", got, records)
	}
}

// TestWALTornTail pins crash consistency: truncating the log at every
// possible byte boundary, or flipping any byte of the final record, must
// never panic and must still yield every record before the damage. A cut
// inside the header (a crash while it was written) reads as an empty log.
func TestWALTornTail(t *testing.T) {
	full := append([]byte{}, walHeader...)
	var lens []int
	const n = 3
	for i := 0; i < n; i++ {
		op := Op{
			Event: core.Event{Kind: core.EvClose, PID: 9,
				Path: fmt.Sprintf("/docs/f%d.txt", i+1), FileID: uint64(i + 1), Wrote: true},
			Post: map[uint64][]byte{uint64(i + 1): cipherContent(uint64(i+1), 24)},
		}
		full = AppendBatch(full, int64(i), []Op{op})
		lens = append(lens, len(full))
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	intactBefore := func(cut int) int {
		k := 0
		for k < n && lens[k] <= cut {
			k++
		}
		return k
	}
	for cut := 0; cut < len(full); cut++ {
		got, err := readWAL(write("trunc.wal", full[:cut]))
		if err != nil {
			t.Fatalf("truncated at %d: %v", cut, err)
		}
		if want := intactBefore(cut); len(got) != want {
			t.Fatalf("truncated at %d: read %d records, want %d", cut, len(got), want)
		}
	}
	// Corruption inside the final record loses only the final record.
	for i := lens[1]; i < len(full); i++ {
		mut := append([]byte{}, full...)
		mut[i] ^= 0x01
		if got, err := readWAL(write("flip.wal", mut)); err != nil || len(got) != 2 {
			t.Fatalf("bitflip at %d: read %d records (err %v), want 2", i, len(got), err)
		}
	}
	if got, err := readWAL(filepath.Join(dir, "missing.wal")); err != nil || got != nil {
		t.Fatalf("missing WAL read %d records (err %v), want none", len(got), err)
	}
}

// TestCheckpointRoundTripAndMismatch pins the checkpoint envelope: lossless
// round trip, identity refusal, and typed corruption errors.
func TestCheckpointRoundTripAndMismatch(t *testing.T) {
	id := snapshot.Header{Version: hostSnapshotVersion, Registry: "reg-a", Config: "cfg-a"}
	want := &sessionCheckpoint{
		degraded:    true,
		ingested:    41,
		shedBytes:   1 << 33,
		saturations: 5,
		detCount:    2,
		overlay:     map[uint64][]byte{1: []byte("one"), 7: {}},
		engine:      []byte("sealed-engine-snapshot"),
	}
	blob := encodeCheckpoint(id, want)
	got, err := decodeCheckpoint(blob, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}

	var me *snapshot.MismatchError
	if _, err := decodeCheckpoint(blob, snapshot.Header{Version: hostSnapshotVersion,
		Registry: "reg-b", Config: "cfg-a"}); !errors.As(err, &me) || me.Field != "registry" {
		t.Fatalf("registry drift: got %v, want registry-field mismatch", err)
	}
	if _, err := decodeCheckpoint(blob, snapshot.Header{Version: hostSnapshotVersion,
		Registry: "reg-a", Config: "cfg-b"}); !errors.As(err, &me) || me.Field != "config" {
		t.Fatalf("config drift: got %v, want config-field mismatch", err)
	}
	mut := append([]byte{}, blob...)
	mut[len(mut)/2] ^= 0x01
	if _, err := decodeCheckpoint(mut, id); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("corruption: got %v, want ErrCorrupt", err)
	}
}

// TestCheckpointPaths pins the filename mangling for unsafe session IDs.
func TestCheckpointPaths(t *testing.T) {
	ckpt, wal := checkpointPaths("/d", "tenant-1.prod")
	if ckpt != "/d/tenant-1.prod.ckpt" || wal != "/d/tenant-1.prod.wal" {
		t.Fatalf("safe ID mangled: %q, %q", ckpt, wal)
	}
	ckpt, _ = checkpointPaths("/d", "a/../b c")
	if strings.ContainsAny(filepath.Base(ckpt), "/ ") || !strings.HasPrefix(filepath.Base(ckpt), "x") {
		t.Fatalf("unsafe ID not mangled: %q", ckpt)
	}
	if c2, _ := checkpointPaths("/d", "a/../b c"); c2 != ckpt {
		t.Fatal("mangling not deterministic")
	}
	if ckpt, _ := checkpointPaths("/d", ""); filepath.Base(ckpt) != "x.ckpt" {
		t.Fatalf("empty ID: %q", ckpt)
	}
}

// killAndRestore drives the end-to-end crash-recovery contract for one
// session mode: ingest part of a deterministic attack durably, abandon the
// host without any shutdown (the crash), reopen with Restore, finish the
// attack, and require the final report bit-identical to an uninterrupted
// non-durable run.
func killAndRestore(t *testing.T, direct bool, every int) {
	const pid, files, batch = 42, 24, 4
	dir := t.TempDir()
	ops := encryptionWorkload(pid, files)
	engCfg := func() core.Config { return core.DefaultConfig("/docs") }
	want := runReference(t, SessionConfig{Engine: engCfg(), Direct: direct}, ops, batch)
	if len(want.Detections) == 0 {
		t.Fatal("workload fired no detections; the recovery test would prove nothing")
	}

	// Phase 1: durable ingest of the first 2/3, then crash (no Close, no
	// Shutdown — the host is simply abandoned mid-flight).
	cut := (files * 2 / 3 / batch) * batch
	h1 := New(Config{CheckpointDir: dir, CheckpointEvery: every})
	s1, err := h1.Open("victim", SessionConfig{Engine: engCfg(), Direct: direct})
	if err != nil {
		t.Fatal(err)
	}
	submitBatched(t, s1, ops[:cut], batch)
	if err := s1.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s1.DurabilityErr(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: recover into a fresh host and finish the attack.
	h2 := New(Config{CheckpointDir: dir, CheckpointEvery: every, Restore: true})
	s2, err := h2.Open("victim", SessionConfig{Engine: engCfg(), Direct: direct})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Engine().OpIndex(); got != int64(cut) {
		t.Fatalf("restored engine at op %d, want %d", got, cut)
	}
	submitBatched(t, s2, ops[cut:], batch)
	rep, err := h2.CloseSession(context.Background(), "victim")
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, rep, want)

	// Phase 3: a clean close leaves a final checkpoint and an empty WAL, so
	// a third restore reproduces the finished state without replaying a thing.
	_, walPath := checkpointPaths(dir, "victim")
	if recs, err := readWAL(walPath); err != nil || len(recs) != 0 {
		t.Fatalf("WAL holds %d records (err %v) after clean close, want 0", len(recs), err)
	}
	h3 := New(Config{CheckpointDir: dir, Restore: true})
	s3, err := h3.Open("victim", SessionConfig{Engine: engCfg(), Direct: direct})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s3.Reports(), want.Reports) {
		t.Fatal("restore after clean close diverged from final state")
	}
	if !reflect.DeepEqual(s3.Detections(), want.Detections) {
		t.Fatal("restore after clean close lost detections")
	}
}

// TestSessionKillAndRestore covers both ingest modes crossed with both
// recovery regimes: interval checkpoints with a short WAL tail, and pure
// WAL replay from an op-zero baseline (no checkpoint ever written before
// the crash).
func TestSessionKillAndRestore(t *testing.T) {
	for _, tc := range []struct {
		name   string
		direct bool
		every  int
	}{
		{"queued-checkpointed", false, 5},
		{"queued-wal-only", false, 0},
		{"direct-checkpointed", true, 5},
		{"direct-wal-only", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) { killAndRestore(t, tc.direct, tc.every) })
	}
}

// TestRestorePartialWALOverlap pins the mid-batch replay slice: a WAL record
// that straddles the checkpoint's ingested count must replay only its
// uncovered op suffix. The straddling record is planted by hand — the
// running session always checkpoints on batch boundaries, but a crash
// between the checkpoint rename and the WAL truncate legitimately leaves
// overlapping records behind.
func TestRestorePartialWALOverlap(t *testing.T) {
	const pid = 43
	dir := t.TempDir()
	ops := encryptionWorkload(pid, 6)
	engCfg := func() core.Config { return core.DefaultConfig("/docs") }
	want := runReference(t, SessionConfig{Engine: engCfg(), Direct: true}, ops, 6)

	// Durable session ingests ops 0..3 and checkpoints (WAL truncates).
	h1 := New(Config{CheckpointDir: dir})
	s1, err := h1.Open("v", SessionConfig{Engine: engCfg(), Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Submit(context.Background(), ops[:4]...); err != nil {
		t.Fatal(err)
	}
	if err := s1.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Plant a record covering ops 2..5: starts before the checkpoint's
	// ingested count of 4, ends after it.
	_, walPath := checkpointPaths(dir, "v")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(AppendBatch(nil, 2, ops[2:6])); err != nil {
		t.Fatal(err)
	}
	f.Close()

	h2 := New(Config{CheckpointDir: dir, Restore: true})
	s2, err := h2.Open("v", SessionConfig{Engine: engCfg(), Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Engine().OpIndex(); got != 6 {
		t.Fatalf("restored engine at op %d, want 6 (replayed suffix only)", got)
	}
	rep, err := h2.CloseSession(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, rep, want)
}

// TestRestoreIdentityMismatch: reopening a checkpoint under a drifted engine
// configuration must refuse the session with the typed mismatch error, and
// a checkpoint whose embedded engine snapshot is in a retired format
// version with the typed version error.
func TestRestoreIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	h1 := New(Config{CheckpointDir: dir})
	s1, err := h1.Open("v", SessionConfig{Engine: core.DefaultConfig("/docs"), Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Submit(context.Background(), encryptionWorkload(1, 3)...); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.CloseSession(context.Background(), "v"); err != nil {
		t.Fatal(err)
	}

	drifted := core.DefaultConfig("/docs")
	drifted.NonUnionThreshold = 150
	h2 := New(Config{CheckpointDir: dir, Restore: true})
	if _, err := h2.Open("v", SessionConfig{Engine: drifted, Direct: true}); !errors.Is(err, core.ErrSnapshotMismatch) {
		t.Fatalf("drifted restore: got %v, want ErrSnapshotMismatch", err)
	}

	// refused writes blob as the checkpoint and requires the restore to be
	// refused as a format version — not as damage, not as configuration
	// drift — with nothing installed: no session registered, the
	// checkpoint left as it was for an operator to inspect.
	ckpt, _ := checkpointPaths(dir, "v")
	refused := func(label string, blob []byte) {
		t.Helper()
		if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		h3 := New(Config{CheckpointDir: dir, Restore: true})
		_, err := h3.Open("v", SessionConfig{Engine: core.DefaultConfig("/docs"), Direct: true})
		if !errors.Is(err, snapshot.ErrVersion) || errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrMismatch) {
			t.Fatalf("%s: got %v, want ErrVersion and neither ErrCorrupt nor ErrMismatch", label, err)
		}
		if ids := h3.Sessions(); len(ids) != 0 {
			t.Fatalf("%s: refused restore registered sessions %v", label, ids)
		}
		if after, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(after, blob) {
			t.Fatalf("%s: refused restore rewrote the checkpoint (err %v)", label, err)
		}
	}

	// Reseal the embedded engine snapshot as each retired engine layout —
	// version 1 still carried the incremental-entropy tracker section,
	// version 2 a weighting flag per entropy mean, version 3 the sampled
	// tier's escalation latch and prefix-entropy fields — inside an
	// otherwise valid checkpoint.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := decodeCheckpoint(data, s1.checkpointIdentity())
	if err != nil {
		t.Fatal(err)
	}
	eh, payload, err := snapshot.Open(c.engine)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{1, 2, 3} {
		eh.Version = v
		c.engine = snapshot.Seal(eh, payload)
		refused(fmt.Sprintf("v%d engine snapshot", v), encodeCheckpoint(s1.checkpointIdentity(), c))
	}

	// A checkpoint as the previous build sealed it: host format 2 around a
	// version-3 engine snapshot, both under that build's "cfg2-" config
	// hash. Its version refuses it, not the config-hash change.
	prev := snapshot.Header{Version: 3, Registry: eh.Registry, Config: "cfg2-0123456789abcdef"}
	c.engine = snapshot.Seal(prev, payload)
	refused("previous-build checkpoint", encodeCheckpoint(prev.Wrap(hostSnapshotVersion), c))

	// A checkpoint sealed the old way: the envelope carried host format
	// version 1 alone, around a version-2 engine snapshot, under the
	// fingerprints of its build (an older config-hash form among them). It
	// is refused as a format version, not as configuration drift.
	eh.Version = 2
	c.engine = snapshot.Seal(eh, payload)
	id := s1.checkpointIdentity()
	for _, cfg := range []string{id.Config, "cfg1-0123456789abcdef"} {
		refused("old-way checkpoint ("+cfg+")", encodeCheckpoint(snapshot.Header{Version: 1, Registry: id.Registry, Config: cfg}, c))
	}
}

// TestFreshOpenTruncatesStale: without Restore, opening over leftover state
// starts from zero and replaces the stale files.
func TestFreshOpenTruncatesStale(t *testing.T) {
	const pid = 44
	dir := t.TempDir()
	engCfg := func() core.Config { return core.DefaultConfig("/docs") }

	h1 := New(Config{CheckpointDir: dir})
	s1, err := h1.Open("v", SessionConfig{Engine: engCfg(), Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Submit(context.Background(), encryptionWorkload(pid, 8)...); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.CloseSession(context.Background(), "v"); err != nil {
		t.Fatal(err)
	}

	// Fresh (non-restore) open: prior state must be invisible...
	second := encryptionWorkload(pid, 2)
	want := runReference(t, SessionConfig{Engine: engCfg(), Direct: true}, second, 2)
	h2 := New(Config{CheckpointDir: dir})
	s2, err := h2.Open("v", SessionConfig{Engine: engCfg(), Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Engine().OpIndex(); got != 0 {
		t.Fatalf("fresh open inherited %d ops of stale state", got)
	}
	if err := s2.Submit(context.Background(), second...); err != nil {
		t.Fatal(err)
	}
	rep, err := h2.CloseSession(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, rep, want)

	// ...and the files on disk now describe only the second run.
	h3 := New(Config{CheckpointDir: dir, Restore: true})
	s3, err := h3.Open("v", SessionConfig{Engine: engCfg(), Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s3.Reports(), want.Reports) {
		t.Fatal("restore after fresh rewrite resurrected stale state")
	}
}

// TestDegradedSessionRestores: the one-way degrade latch, its shed-byte
// ledger and the engine's payload-blind flag all survive a crash, so a
// recovered overloaded session keeps shedding exactly where it stopped.
func TestDegradedSessionRestores(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	h1 := New(Config{CheckpointDir: dir, Telemetry: reg})
	gate := make(chan struct{})
	s1, err := h1.Open("v", SessionConfig{
		Engine:       core.DefaultConfig("/docs"),
		Source:       gateSource{gate: gate},
		QueueDepth:   2,
		DegradeAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Stall the worker on gated content, saturate past the degrade threshold.
	for i := uint64(1); i <= 3; i++ {
		if err := s1.Submit(ctx, closeOp(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s1.TrySubmit(closeOp(1, 99)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("TrySubmit on full queue = %v, want ErrOverloaded", err)
		}
	}
	if !s1.Degraded() {
		t.Fatal("session not degraded")
	}
	close(gate)
	payload := []byte("0123456789abcdef")
	if err := s1.Submit(ctx, writeOp(1, 200, payload)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon h1.

	h2 := New(Config{CheckpointDir: dir, Telemetry: telemetry.NewRegistry(), Restore: true})
	s2, err := h2.Open("v", SessionConfig{Engine: core.DefaultConfig("/docs"), Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Degraded() {
		t.Fatal("degrade latch did not survive the crash")
	}
	if !s2.Engine().PayloadBlind() {
		t.Fatal("engine not payload-blind after degraded restore")
	}
	// Shedding resumes: new payload bytes accumulate on the restored ledger.
	if err := s2.Submit(ctx, writeOp(1, 201, payload)); err != nil {
		t.Fatal(err)
	}
	rep, err := h2.CloseSession(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("final report lost the degraded flag")
	}
	if want := int64(2 * len(payload)); rep.ShedBytes != want {
		t.Fatalf("shed bytes after restore = %d, want %d (restored + new)", rep.ShedBytes, want)
	}
}

// TestCheckpointOnShutdownAndErrors covers the remaining durability edges:
// an unwritable checkpoint dir refuses Open, explicit Checkpoint on a
// non-durable session is a no-op, and closed sessions refuse Checkpoint.
func TestCheckpointOnShutdownAndErrors(t *testing.T) {
	// A file where the checkpoint dir should be → Open fails cleanly.
	base := t.TempDir()
	notDir := filepath.Join(base, "occupied")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	h := New(Config{CheckpointDir: filepath.Join(notDir, "ckpts")})
	if _, err := h.Open("v", SessionConfig{Engine: core.DefaultConfig("/docs")}); err == nil {
		t.Fatal("Open with unusable checkpoint dir succeeded")
	}
	if ids := h.Sessions(); len(ids) != 0 {
		t.Fatalf("failed Open left sessions registered: %v", ids)
	}

	// Non-durable Checkpoint: explicit no-op.
	h2 := New(Config{})
	s, err := h2.Open("v", SessionConfig{Engine: core.DefaultConfig("/docs")})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(context.Background()); err != nil {
		t.Fatalf("non-durable Checkpoint = %v, want nil", err)
	}
	if err := s.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.CloseSession(context.Background(), "v"); err != nil {
		t.Fatal(err)
	}

	// Checkpoint after close → ErrSessionClosed (both modes).
	dir := t.TempDir()
	for _, direct := range []bool{false, true} {
		h3 := New(Config{CheckpointDir: dir})
		id := fmt.Sprintf("m%v", direct)
		s3, err := h3.Open(id, SessionConfig{Engine: core.DefaultConfig("/docs"), Direct: direct})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h3.CloseSession(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		if err := s3.Checkpoint(context.Background()); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("Checkpoint after close (direct=%v) = %v, want ErrSessionClosed", direct, err)
		}
	}

	// A queued Checkpoint blocked behind a stalled worker respects its ctx.
	gate := make(chan struct{})
	defer close(gate)
	h4 := New(Config{CheckpointDir: t.TempDir()})
	s4, err := h4.Open("stuck", SessionConfig{
		Engine: core.DefaultConfig("/docs"),
		Source: gateSource{gate: gate},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s4.Submit(context.Background(), closeOp(1, 1)); err != nil {
		t.Fatal(err)
	}
	shortCtx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s4.Checkpoint(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled Checkpoint = %v, want DeadlineExceeded", err)
	}
}
