package host

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"os"
	"testing"

	"cryptodrop/internal/core"
	"cryptodrop/internal/snapshot"
)

// smallBatch is the fixed op batch the record-format pins encode.
func smallBatch() []Op {
	return []Op{{
		Event: core.Event{Kind: core.EvClose, PID: 5, Path: "/docs/a.txt", FileID: 2, Wrote: true},
		Post:  map[uint64][]byte{2: []byte("ab")},
	}}
}

// TestBatchRecordGolden pins the batch record byte for byte, so any change
// to the WAL and wire record format is a deliberate one.
func TestBatchRecordGolden(t *testing.T) {
	const want = "1f0601050a0b2f646f63732f612e747874000200000000000100000102026162782e5a6b"
	if got := hex.EncodeToString(AppendBatch(nil, 3, smallBatch())); got != want {
		t.Fatalf("batch record changed:\n got %s\nwant %s", got, want)
	}
	if got := hex.EncodeToString(walHeader); got != "4344574c02" {
		t.Fatalf("WAL header changed: %s", got)
	}
}

// TestBatchRecordDamageRefused: every single-bit flip and every truncation
// of a record is refused with ErrCorrupt — CRC-32C over the length prefix
// and payload catches every one-bit error, wherever it lands.
func TestBatchRecordDamageRefused(t *testing.T) {
	rec := AppendBatch(nil, 3, smallBatch())
	if _, _, n, err := ReadBatch(rec); err != nil || n != len(rec) {
		t.Fatalf("intact record: n=%d err=%v", n, err)
	}
	for i := 0; i < len(rec)*8; i++ {
		mut := append([]byte{}, rec...)
		mut[i/8] ^= 1 << (i % 8)
		if _, _, _, err := ReadBatch(mut); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("bit %d flipped: err = %v, want ErrCorrupt", i, err)
		}
	}
	for cut := 0; cut < len(rec); cut++ {
		if _, _, _, err := ReadBatch(rec[:cut]); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("cut at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestAppendBatchDoesNotAllocate pins the write-ahead path's steady state:
// re-encoding into the session's reused buffer allocates nothing.
func TestAppendBatchDoesNotAllocate(t *testing.T) {
	ops := append(smallBatch(), Op{
		Event: core.Event{Kind: core.EvWrite, PID: 5, Path: "/docs/b.txt", FileID: 3, Data: cipherContent(3, 4096), Size: 4096},
		Pre:   map[uint64][]byte{3: plainContent(3, 4096), 4: plainContent(4, 64), 1: nil},
	})
	buf := AppendBatch(nil, 0, ops)
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendBatch(buf[:0], 7, ops) }); allocs != 0 {
		t.Fatalf("AppendBatch into a reused buffer allocated %.1f times per record", allocs)
	}
}

// fnvEraWAL is a one-record write-ahead log as the previous build wrote it:
// no header, an FNV-64a trailer.
const fnvEraWAL = "1c0001060a0b2f646f63732f612e7478740002000000000000000000000b830ee13cc88ddb"

// evictEraWAL is a one-record write-ahead log in format version 1, whose
// ops still carried an eviction list (here [2]).
const evictEraWAL = "4344574c01" + "210601050a0b2f646f63732f612e7478740002000000000001000001020261620102fa298d49"

// TestRestoreRefusesOldWALFormat: a WAL without this build's header — one
// written before headers existed, or one naming an unknown version — fails
// Restore with a typed *WALFormatError wrapping snapshot.ErrVersion, and is
// left on disk untouched, instead of being read as a torn tail and dropped.
func TestRestoreRefusesOldWALFormat(t *testing.T) {
	old, err := hex.DecodeString(fnvEraWAL)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := hex.DecodeString(evictEraWAL)
	if err != nil {
		t.Fatal(err)
	}
	future := append([]byte(walMagic), 9)
	future = AppendBatch(future, 0, smallBatch())
	for name, data := range map[string][]byte{"fnv-era": old, "v1-evict-list": v1, "future-version": future} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			_, walPath := checkpointPaths(dir, "v")
			if err := os.WriteFile(walPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			h := New(Config{CheckpointDir: dir, Restore: true})
			_, err := h.Open("v", SessionConfig{Engine: core.DefaultConfig("/docs"), Direct: true})
			var fe *WALFormatError
			if !errors.As(err, &fe) || !errors.Is(err, snapshot.ErrVersion) {
				t.Fatalf("restore: err = %v, want *WALFormatError wrapping ErrVersion", err)
			}
			if got, _ := os.ReadFile(walPath); !bytes.Equal(got, data) {
				t.Fatal("refused WAL was modified")
			}
		})
	}
}

// TestWALHeaderOnEveryReset: every path that creates or empties the log —
// fresh open, a checkpoint's truncate, restore without a log file — leaves
// exactly the header behind.
func TestWALHeaderOnEveryReset(t *testing.T) {
	dir := t.TempDir()
	_, walPath := checkpointPaths(dir, "v")
	requireHeaderOnly := func(when string) {
		t.Helper()
		if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, walHeader) {
			t.Fatalf("%s: WAL = %x (err %v), want the bare header %x", when, got, err, walHeader)
		}
	}
	cfg := SessionConfig{Engine: core.DefaultConfig("/docs"), Direct: true}
	h1 := New(Config{CheckpointDir: dir})
	s1, err := h1.Open("v", cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireHeaderOnly("fresh open")
	if err := s1.Submit(context.Background(), encryptionWorkload(3, 2)...); err != nil {
		t.Fatal(err)
	}
	if err := s1.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireHeaderOnly("checkpoint")
	if _, err := h1.CloseSession(context.Background(), "v"); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	h2 := New(Config{CheckpointDir: dir, Restore: true})
	if _, err := h2.Open("v", cfg); err != nil {
		t.Fatal(err)
	}
	requireHeaderOnly("restore without a log")
}
