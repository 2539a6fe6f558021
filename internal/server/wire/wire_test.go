package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"

	"cryptodrop/internal/core"
	"cryptodrop/internal/host"
	"cryptodrop/internal/snapshot"
)

func sampleOps() []host.Op {
	pre := core.Event{Kind: core.EvOpen, PID: 41, Path: "docs/a.txt", FileID: 7, Flags: core.EvWriteIntent, Size: 11}
	return []host.Op{
		{
			PreEvent: &pre,
			Pre:      map[uint64][]byte{7: []byte("hello world")},
			Event:    core.Event{Kind: core.EvClose, PID: 41, Path: "docs/a.txt", FileID: 7, Wrote: true},
			Post:     map[uint64][]byte{7: []byte{0x8f, 0x01, 0x22, 0xd9}},
		},
		{
			Event: core.Event{Kind: core.EvRename, PID: 41, Path: "docs/a.txt", NewPath: "docs/a.txt.locked", FileID: 7},
			Post:  nil,
			Pre:   nil,
		},
		{Event: core.Event{Kind: core.EvDelete, PID: 41, Path: "docs/b.txt", FileID: 9}},
	}
}

// A header and a run of frames round-trip bit-exactly through the codec, and
// a clean end of stream surfaces as io.EOF.
func TestStreamRoundTrip(t *testing.T) {
	ops := sampleOps()
	buf := AppendHeader(nil, "tenant-a/session-1")
	buf = AppendFrame(buf, 0, ops[:2])
	buf = AppendFrame(buf, 2, ops[2:])
	buf = AppendFrame(buf, 3, nil) // empty heartbeat frame is legal

	r := bufio.NewReader(bytes.NewReader(buf))
	h, err := ReadHeader(r)
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	if h.Version != Version || h.Session != "tenant-a/session-1" {
		t.Fatalf("header = %+v", h)
	}
	var got []host.Op
	var seqs []int64
	for {
		f, err := ReadFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		seqs = append(seqs, f.Seq)
		got = append(got, f.Ops...)
	}
	if want := []int64{0, 2, 3}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("seqs = %v, want %v", seqs, want)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("ops did not round-trip:\n got %+v\nwant %+v", got, ops)
	}
}

// Every truncation point of a valid stream fails with ErrBadFrame (or clean
// EOF exactly at a frame boundary) — never a panic, never garbage ops.
func TestTornStream(t *testing.T) {
	full := AppendHeader(nil, "s")
	headerLen := len(full)
	full = AppendFrame(full, 0, sampleOps())
	for cut := 0; cut < len(full); cut++ {
		r := bufio.NewReader(bytes.NewReader(full[:cut]))
		h, err := ReadHeader(r)
		if cut < headerLen {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("cut %d: header err = %v, want ErrBadFrame", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: header err = %v", cut, err)
		}
		if h.Session != "s" {
			t.Fatalf("cut %d: session %q", cut, h.Session)
		}
		if _, err := ReadFrame(r); !errors.Is(err, ErrBadFrame) && err != io.EOF {
			t.Fatalf("cut %d: frame err = %v, want ErrBadFrame or EOF", cut, err)
		}
	}
}

// A flipped payload bit fails the checksum.
func TestCorruptFrame(t *testing.T) {
	buf := AppendFrame(nil, 5, sampleOps())
	buf[len(buf)/2] ^= 0x40
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

// A hostile frame length beyond MaxFrameBytes is refused before allocation.
func TestOversizedFrameRefused(t *testing.T) {
	buf := binary.AppendUvarint(nil, MaxFrameBytes+1)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

// Wrong magic and unknown version are refused at the header.
func TestHeaderValidation(t *testing.T) {
	if _, err := ReadHeader(bufio.NewReader(bytes.NewReader([]byte("NOPE\x01\x01s")))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: err = %v", err)
	}
	future := append([]byte(Magic), 0x7f) // version 127
	future = append(future, 0x01, 's')
	if _, err := ReadHeader(bufio.NewReader(bytes.NewReader(future))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("future version: err = %v", err)
	}
	empty := AppendHeader(nil, "")
	if _, err := ReadHeader(bufio.NewReader(bytes.NewReader(empty))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty session: err = %v", err)
	}
}

// A version-1 stream header (the FNV-64a frame format) is refused, never
// decoded as frames whose checksums all fail.
func TestV1HeaderRefused(t *testing.T) {
	v1 := append([]byte(Magic), 0x01, 0x01, 's')
	if _, err := ReadHeader(bufio.NewReader(bytes.NewReader(v1))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("v1 header: err = %v, want ErrBadFrame", err)
	}
}

// A version-2 stream header (ops with a per-op eviction list) is refused,
// never decoded as frames in the current op layout.
func TestV2HeaderRefused(t *testing.T) {
	v2 := append([]byte(Magic), 0x02, 0x01, 's')
	if _, err := ReadHeader(bufio.NewReader(bytes.NewReader(v2))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("v2 header: err = %v, want ErrBadFrame", err)
	}
}

// Trailing garbage inside a checksummed payload is structural corruption.
func TestTrailingBytesRefused(t *testing.T) {
	// Build a frame whose payload has two extra bytes after the ops.
	inner := AppendFrame(nil, 0, nil)
	// Decode the valid frame's payload, extend it, reframe with a fresh sum.
	n, sz := binary.Uvarint(inner)
	payload := append([]byte(nil), inner[sz:sz+int(n)]...)
	payload = append(payload, 0xde, 0xad)
	buf := binary.AppendUvarint(nil, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = snapshot.AppendChecksum(buf, buf)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

// TestFrameGolden pins the frame encoding byte for byte, so any change to
// the wire format is a deliberate one.
func TestFrameGolden(t *testing.T) {
	const want = "83010e0305520a646f63732f612e74787400070000000000010102520a646f63732f612e747874000700000016020001070b68656c6c6f20776f726c640107048f0122d907520a646f63732f612e74787411646f63732f612e7478742e6c6f636b65640700000000000000000006520a646f63732f622e74787400090000000000000000008151229e"
	if got := hex.EncodeToString(AppendFrame(nil, 7, sampleOps())); got != want {
		t.Fatalf("frame encoding changed:\n got %s\nwant %s", got, want)
	}
	if got := hex.EncodeToString(AppendHeader(nil, "s")); got != "43445746030173" {
		t.Fatalf("stream header changed: %s", got)
	}
}

// TestFrameDamageRefused: every single-bit flip and every truncation of a
// frame is refused with ErrBadFrame (a cut at offset zero is a clean EOF).
func TestFrameDamageRefused(t *testing.T) {
	frame := AppendFrame(nil, 7, sampleOps())
	read := func(b []byte) error {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(b)))
		return err
	}
	for i := 0; i < len(frame)*8; i++ {
		mut := append([]byte{}, frame...)
		mut[i/8] ^= 1 << (i % 8)
		if err := read(mut); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("bit %d flipped: err = %v, want ErrBadFrame", i, err)
		}
	}
	if err := read(nil); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	for cut := 1; cut < len(frame); cut++ {
		if err := read(frame[:cut]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("cut at %d: err = %v, want ErrBadFrame", cut, err)
		}
	}
}

// TestFrameCodecAllocs pins framing's allocation budget: encoding into a
// large-enough buffer allocates nothing, and a FrameReader's steady state
// allocates only what decoding the ops themselves needs.
func TestFrameCodecAllocs(t *testing.T) {
	ops := ingestBatch(4, 2048)
	buf := AppendFrame(nil, 0, ops)
	if allocs := testing.AllocsPerRun(50, func() { buf = AppendFrame(buf[:0], 7, ops) }); allocs != 0 {
		t.Fatalf("AppendFrame into a large-enough buffer allocated %.1f times", allocs)
	}
	opsOnly := testing.AllocsPerRun(50, func() {
		if _, _, _, err := host.ReadBatch(buf); err != nil {
			t.Fatal(err)
		}
	})
	var src bytes.Reader
	br := bufio.NewReader(&src)
	frames := NewFrameReader(br)
	framed := testing.AllocsPerRun(50, func() {
		src.Reset(buf)
		br.Reset(&src)
		if _, err := frames.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if framed != opsOnly {
		t.Fatalf("FrameReader allocated %.0f times per frame, decoding its ops alone %.0f", framed, opsOnly)
	}
}

// FuzzReadFrame hammers the frame decoder with arbitrary bytes: it must
// return a frame or an error, never panic, and every valid encode of what it
// decoded must re-decode identically.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, 0, sampleOps()))
	f.Add(AppendFrame(nil, 1<<40, nil))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00})
	f.Add(AppendFrame(nil, 3, ingestBatch(2, 64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		again, err := ReadFrame(bufio.NewReader(bytes.NewReader(AppendFrame(nil, fr.Seq, fr.Ops))))
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if again.Seq != fr.Seq || len(again.Ops) != len(fr.Ops) {
			t.Fatalf("re-encode drifted: %+v vs %+v", again, fr)
		}
	})
}
