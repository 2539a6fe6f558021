package snapshot

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestEncodeDecodeRoundTrip drives every primitive through an
// encode/decode cycle, including the float bit patterns the scoring state
// depends on (negative zero, infinities, NaN payloads, subnormals).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1.5, -200.25, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, 7.999999999,
	}
	e := NewEncoder()
	e.Uvarint(0)
	e.Uvarint(1<<63 + 17)
	e.Varint(-1)
	e.Varint(1 << 40)
	for _, f := range floats {
		e.F64(f)
	}
	e.F64(math.NaN())
	e.Bool(true)
	e.Bool(false)
	e.String("")
	e.String("reg1-deadbeef")
	e.Bytes(nil)
	e.Bytes([]byte{0, 1, 2, 255})

	d := NewDecoder(e.Data())
	if got := d.Uvarint(); got != 0 {
		t.Fatalf("uvarint: got %d", got)
	}
	if got := d.Uvarint(); got != 1<<63+17 {
		t.Fatalf("uvarint: got %d", got)
	}
	if got := d.Varint(); got != -1 {
		t.Fatalf("varint: got %d", got)
	}
	if got := d.Varint(); got != 1<<40 {
		t.Fatalf("varint: got %d", got)
	}
	for i, want := range floats {
		got := d.F64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("float %d: got %x want %x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if got := d.F64(); !math.IsNaN(got) {
		t.Fatalf("NaN did not round-trip: %v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools did not round-trip")
	}
	if got := d.String(); got != "" {
		t.Fatalf("empty string: got %q", got)
	}
	if got := d.String(); got != "reg1-deadbeef" {
		t.Fatalf("string: got %q", got)
	}
	if got := d.Bytes(); len(got) != 0 {
		t.Fatalf("nil bytes: got %v", got)
	}
	if got := d.Bytes(); string(got) != string([]byte{0, 1, 2, 255}) {
		t.Fatalf("bytes: got %v", got)
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left over", d.Len())
	}
}

// TestEncodingDeterministic pins that encoding the same values twice
// yields the same bytes — the property the bit-identical recovery proof
// rests on.
func TestEncodingDeterministic(t *testing.T) {
	build := func() []byte {
		e := NewEncoder()
		e.Varint(42)
		e.F64(199.5)
		e.String("session")
		e.Bytes([]byte("payload"))
		return Seal(Header{Version: 1, Registry: "reg1-1", Config: "cfg1-2"}, e.Data())
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Fatal("two identical encodings differ")
	}
}

// TestSealOpenRoundTrip checks the envelope carries header and payload
// through intact.
func TestSealOpenRoundTrip(t *testing.T) {
	h := Header{Version: 3, Registry: "reg1-0011223344556677", Config: "cfg1-8899aabbccddeeff"}
	payload := []byte("engine state goes here")
	blob := Seal(h, payload)
	got, body, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header: got %+v want %+v", got, h)
	}
	if string(body) != string(payload) {
		t.Fatalf("payload: got %q", body)
	}
}

// TestOpenRejectsCorruption flips, truncates and mangles sealed snapshots
// and requires a typed ErrCorrupt — never a panic, never a silent success.
func TestOpenRejectsCorruption(t *testing.T) {
	blob := Seal(Header{Version: 1, Registry: "reg1-a", Config: "cfg1-b"}, []byte("state"))
	cases := map[string][]byte{
		"empty":      {},
		"short":      blob[:3],
		"bad magic":  append([]byte("XXXX"), blob[4:]...),
		"no payload": blob[:len(magic)+2],
		"truncated":  blob[:len(blob)-3],
		"trailing":   append(append([]byte{}, blob...), 0xFF),
	}
	for i := range blob {
		// Flip one bit at every position; each must fail the checksum (or
		// the magic check for the leading bytes).
		mut := append([]byte{}, blob...)
		mut[i] ^= 0x40
		cases["bitflip"] = mut
		for name, data := range cases {
			if _, _, err := Open(data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s (i=%d): got %v, want ErrCorrupt", name, i, err)
			}
		}
		delete(cases, "bitflip")
	}
}

// TestHeaderCheck covers the three verification outcomes: version skew,
// registry drift, config drift — each with its own typed error.
func TestHeaderCheck(t *testing.T) {
	want := Header{Version: 1, Registry: "reg1-a", Config: "cfg1-b"}
	if err := (Header{Version: 2, Registry: "reg1-a", Config: "cfg1-b"}).Check(want); !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew: got %v", err)
	}
	err := Header{Version: 1, Registry: "reg1-OTHER", Config: "cfg1-b"}.Check(want)
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("registry drift: got %v", err)
	}
	var me *MismatchError
	if !errors.As(err, &me) || me.Field != "registry" {
		t.Fatalf("registry drift: got %#v", err)
	}
	err = Header{Version: 1, Registry: "reg1-a", Config: "cfg1-OTHER"}.Check(want)
	if !errors.As(err, &me) || me.Field != "config" {
		t.Fatalf("config drift: got %v", err)
	}
	if err := want.Check(want); err != nil {
		t.Fatalf("matching header rejected: %v", err)
	}
}

// TestHeaderWrap pins envelope identities: the fingerprints carry over,
// and a change of either the outer or the inner format version is a
// version skew, never a fingerprint mismatch.
func TestHeaderWrap(t *testing.T) {
	inner := Header{Version: 3, Registry: "reg1-a", Config: "cfg2-b"}
	want := inner.Wrap(2)
	if want.Registry != inner.Registry || want.Config != inner.Config {
		t.Fatalf("Wrap changed the fingerprints: %+v", want)
	}
	old := inner
	old.Version = 2
	for _, h := range []Header{inner.Wrap(1), old.Wrap(2), {Version: 2, Registry: "reg1-a", Config: "cfg1-x"}} {
		if err := h.Check(want); !errors.Is(err, ErrVersion) {
			t.Fatalf("%+v against %+v: got %v, want ErrVersion", h, want, err)
		}
	}
}

// TestDecoderStickyAndBounded pins the two hardening properties: errors
// are sticky (reads after a failure return zero values) and hostile length
// fields cannot demand more bytes than the payload holds.
func TestDecoderStickyAndBounded(t *testing.T) {
	// A length prefix claiming 2^60 bytes over a 3-byte payload.
	e := NewEncoder()
	e.Uvarint(1 << 60)
	d := NewDecoder(append(e.Data(), "abc"...))
	if got := d.Bytes(); got != nil {
		t.Fatalf("oversized bytes: got %v", got)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("oversized bytes: err %v", d.Err())
	}
	// Sticky: everything after the failure is a zero value, no panic.
	if d.Uvarint() != 0 || d.Varint() != 0 || d.F64() != 0 || d.Bool() || d.String() != "" {
		t.Fatal("reads after failure returned non-zero values")
	}

	// Count guard: element counts beyond the remaining bytes are rejected.
	e2 := NewEncoder()
	e2.Uvarint(1000)
	d2 := NewDecoder(e2.Data())
	if d2.Count() != 0 || !errors.Is(d2.Err(), ErrCorrupt) {
		t.Fatalf("oversized count accepted: %v", d2.Err())
	}

	// Invalid bool byte.
	d3 := NewDecoder([]byte{7})
	if d3.Bool() || !errors.Is(d3.Err(), ErrCorrupt) {
		t.Fatalf("bool byte 7 accepted: %v", d3.Err())
	}
}

// TestChecksumIsCRC32C pins the trailer function to the standard CRC-32C
// check value and its little-endian trailer layout.
func TestChecksumIsCRC32C(t *testing.T) {
	if got := Checksum([]byte("123456789")); got != 0xe3069283 {
		t.Fatalf("Checksum = %#x, want the CRC-32C check value 0xe3069283", got)
	}
	framed := AppendChecksum([]byte("123456789"), []byte("123456789"))
	if string(framed[9:]) != "\x83\x92\x06\xe3" {
		t.Fatalf("trailer = %x", framed[9:])
	}
	if body, ok := SplitChecksum(framed); !ok || string(body) != "123456789" {
		t.Fatalf("SplitChecksum = %q, %t", body, ok)
	}
	if _, ok := SplitChecksum(framed[:3]); ok {
		t.Fatal("SplitChecksum accepted a blob shorter than its trailer")
	}
}

// TestOpenRefusesOldEnvelope: a snapshot sealed by the previous build
// ("CDSN" magic, FNV-64a trailer) is refused as bad magic, not misreported
// as a failed checksum.
func TestOpenRefusesOldEnvelope(t *testing.T) {
	old := []byte("CDSN\x01\x06reg1-a\x06cfg1-b\x05state\x89\xfc\xf67\xe1\xf6\xa6\xc6")
	_, _, err := Open(old)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("old envelope: err = %v, want ErrCorrupt bad magic", err)
	}
}

// TestEncodedLengths pins the size helpers to what the encoder writes, at
// every varint length boundary.
func TestEncodedLengths(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		for _, u := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			e := NewEncoder()
			e.Uvarint(u)
			if got := UvarintLen(u); got != len(e.Data()) {
				t.Fatalf("UvarintLen(%d) = %d, encoder wrote %d", u, got, len(e.Data()))
			}
			for _, v := range []int64{int64(u), -int64(u)} {
				e := NewEncoder()
				e.Varint(v)
				if got := VarintLen(v); got != len(e.Data()) {
					t.Fatalf("VarintLen(%d) = %d, encoder wrote %d", v, got, len(e.Data()))
				}
			}
		}
	}
	e := NewEncoder()
	e.Bytes(make([]byte, 200))
	if got := BytesLen(200); got != len(e.Data()) {
		t.Fatalf("BytesLen(200) = %d, encoder wrote %d", got, len(e.Data()))
	}
	h := Header{Version: 300, Registry: "reg1-a", Config: "cfg1-b"}
	if blob := Seal(h, make([]byte, 1000)); cap(blob) != len(blob) {
		t.Fatalf("Seal grew its buffer: len %d cap %d", len(blob), cap(blob))
	}
}
