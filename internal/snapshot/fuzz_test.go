package snapshot

import (
	"errors"
	"testing"
)

// FuzzOpen feeds arbitrary bytes to the envelope opener. The contract under
// fuzzing: Open either succeeds on a structurally valid snapshot or returns
// an error wrapping ErrCorrupt — it never panics, and on success the
// re-sealed header+payload must reproduce the input bytes exactly (the
// canonical-encoding property).
func FuzzOpen(f *testing.F) {
	// Valid snapshots of several shapes.
	f.Add(Seal(Header{Version: 1, Registry: "reg1-a", Config: "cfg1-b"}, []byte("payload")))
	f.Add(Seal(Header{Version: 0, Registry: "", Config: ""}, nil))
	f.Add(Seal(Header{Version: 1 << 40, Registry: "reg1-0123456789abcdef", Config: "cfg1-fedcba9876543210"}, make([]byte, 512)))
	// Structural damage.
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte(magic + "xxxxxxxx"))
	f.Add([]byte("XXXXxxxxxxxxxxxx"))
	truncated := Seal(Header{Version: 1, Registry: "reg1-a", Config: "cfg1-b"}, []byte("state"))
	f.Add(truncated[:len(truncated)-4])
	f.Add(append(append([]byte{}, truncated...), 0x00))
	// Version-skewed but structurally valid (Open accepts; Check rejects).
	f.Add(Seal(Header{Version: 99, Registry: "reg1-a", Config: "cfg1-b"}, []byte("future")))
	// An envelope sealed by the previous build ("CDSN", FNV-64a trailer).
	f.Add([]byte("CDSN\x01\x06reg1-a\x06cfg1-b\x05state\x89\xfc\xf67\xe1\xf6\xa6\xc6"))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := Open(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open returned non-typed error %v", err)
			}
			return
		}
		// Round-trip: a valid snapshot re-seals to the identical bytes.
		if got := Seal(h, payload); string(got) != string(data) {
			t.Fatalf("re-seal mismatch: %x vs %x", got, data)
		}
		// Header verification on an accepted snapshot must yield typed
		// errors only, whatever the fuzzer put in the fields.
		want := Header{Version: 1, Registry: "reg1-a", Config: "cfg1-b"}
		if cerr := h.Check(want); cerr != nil {
			if !errors.Is(cerr, ErrVersion) && !errors.Is(cerr, ErrMismatch) {
				t.Fatalf("Check returned non-typed error %v", cerr)
			}
		}
	})
}

// FuzzDecoder feeds arbitrary bytes through every Decoder read method in a
// fixed rotation. The contract: no panic, no allocation proportional to a
// hostile length field, and once Err is non-nil it stays non-nil.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder()
	e.Uvarint(7)
	e.Varint(-42)
	e.F64(3.14)
	e.Bool(true)
	e.String("str")
	e.Bytes([]byte{1, 2, 3})
	f.Add(e.Data())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for i := 0; i < 64 && d.Err() == nil && d.Len() > 0; i++ {
			switch i % 7 {
			case 0:
				d.Uvarint()
			case 1:
				d.Varint()
			case 2:
				d.F64()
			case 3:
				d.Bool()
			case 4:
				_ = d.String()
			case 5:
				d.Bytes()
			case 6:
				d.Count()
			}
		}
		if err := d.Err(); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decoder error is not typed: %v", err)
		}
		// Sticky check: a failed decoder keeps failing.
		if d.Err() != nil {
			d.Uvarint()
			_ = d.String()
			if d.Err() == nil {
				t.Fatal("error was cleared")
			}
		}
	})
}
