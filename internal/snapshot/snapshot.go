// Package snapshot is the serialization seam of the durable-session
// contract: a canonical, deterministic binary encoding plus a sealed
// envelope that carries the identity of the pipeline that produced a
// snapshot (format version, indicator-registry fingerprint, engine-config
// hash) and an integrity checksum over the whole blob. The same checksum,
// Checksum, is the trailer of every other framed byte stream in the system
// (write-ahead log records and wire frames).
//
// Determinism is a hard requirement, not a nicety: the recovery conformance
// suites prove that checkpoint + write-ahead-log replay reproduces
// scoreboards, detections and flight traces bit for bit, and that proof
// only holds if encoding the same state twice yields the same bytes.
// Callers therefore iterate maps in sorted key order and floats travel as
// their exact IEEE-754 bit patterns (math.Float64bits), never through a
// decimal formatter.
//
// The envelope protects restore against the two silent-drift failure
// modes:
//
//   - corruption (truncated file, torn write, flipped bit) is caught by the
//     CRC-32C checksum and surfaces as ErrCorrupt;
//   - a snapshot from a differently-shaped pipeline (other indicator
//     registry, other scoring config, other format version) is caught by
//     the header fingerprints and surfaces as ErrMismatch/ErrVersion
//     before a single byte of state is installed.
//
// Decoding never panics on hostile input: every length is validated
// against the remaining payload before allocation, and all Decoder methods
// are sticky — after the first error every subsequent read returns zero
// values, so a decode loop can run to completion and check Err once.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// The package sentinels. Callers dispatch with errors.Is.
var (
	// ErrCorrupt reports a snapshot that is structurally damaged: bad magic,
	// failed checksum, truncated payload, or an impossible length field.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrVersion reports a snapshot in an unsupported format version.
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrMismatch reports a structurally valid snapshot produced by a
	// differently-configured pipeline (indicator registry or engine config);
	// restoring it would silently change verdicts, so it is refused.
	ErrMismatch = errors.New("snapshot: pipeline mismatch")
)

// MismatchError names exactly which identity field diverged between a
// snapshot and the pipeline asked to restore it. It unwraps to ErrMismatch.
type MismatchError struct {
	// Field is the diverging header field: "registry" or "config".
	Field string
	// Have is the fingerprint embedded in the snapshot.
	Have string
	// Want is the fingerprint of the restoring pipeline.
	Want string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("snapshot: %s fingerprint mismatch: snapshot has %q, engine wants %q",
		e.Field, e.Have, e.Want)
}

// Unwrap makes errors.Is(err, ErrMismatch) true.
func (e *MismatchError) Unwrap() error { return ErrMismatch }

// Header identifies the pipeline a snapshot was captured from. Seal embeds
// it; Open returns it; Check verifies it against the restoring pipeline.
type Header struct {
	// Version is the snapshot format version of the owning layer.
	Version uint64
	// Registry is the indicator-registry fingerprint ("reg1-…"), the same
	// canonical identity the audit bundles carry.
	Registry string
	// Config is the engine-config hash ("cfg3-…") over the scoring-relevant
	// configuration fields.
	Config string
}

// Wrap returns the identity of an outer envelope, in format version outer,
// that embeds a blob sealed under h: h's fingerprints, with the two format
// versions folded into one (outer<<16 | h.Version), so the envelope's
// version changes whenever either format does and a stale envelope is
// refused with ErrVersion before its fingerprints are compared. Inner
// versions must stay below 1<<16.
func (h Header) Wrap(outer uint64) Header {
	h.Version = outer<<16 | h.Version
	return h
}

// Check verifies that a decoded header matches the restoring pipeline's
// expectation: version first (ErrVersion), then the registry and config
// fingerprints (typed MismatchError wrapping ErrMismatch).
func (h Header) Check(want Header) error {
	if h.Version != want.Version {
		return fmt.Errorf("%w: snapshot version %d, engine supports %d", ErrVersion, h.Version, want.Version)
	}
	if h.Registry != want.Registry {
		return &MismatchError{Field: "registry", Have: h.Registry, Want: want.Registry}
	}
	if h.Config != want.Config {
		return &MismatchError{Field: "config", Have: h.Config, Want: want.Config}
	}
	return nil
}

// magic opens every sealed snapshot. It changed from "CDSN" when the
// trailer moved from FNV-64a to CRC-32C, so a snapshot sealed by an older
// build fails Open as "bad magic" rather than as a failed checksum.
const magic = "CDS2"

// ChecksumSize is the length of the checksum trailer AppendChecksum writes.
const ChecksumSize = 4

// castagnoli is the CRC-32C table; hash/crc32 computes it with the CPU's
// CRC32 instructions where they exist (SSE4.2 on amd64, arm64 CRC).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the integrity check of every framed or sealed byte stream:
// sealed snapshots, write-ahead log records and wire frames. It is CRC-32C,
// which detects every single-bit error and every burst of up to 32 bits. It
// guards against accidental corruption only; it is not authentication.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// AppendChecksum appends Checksum(data) to dst as a 4-byte little-endian
// trailer. data is usually the tail of dst that the trailer covers.
func AppendChecksum(dst, data []byte) []byte {
	return binary.LittleEndian.AppendUint32(dst, Checksum(data))
}

// SplitChecksum verifies the trailer AppendChecksum wrote at the end of
// data and returns the bytes it covers. ok is false when data is too short
// to hold a trailer or the checksum does not match.
func SplitChecksum(data []byte) (body []byte, ok bool) {
	if len(data) < ChecksumSize {
		return nil, false
	}
	body, tail := data[:len(data)-ChecksumSize], data[len(data)-ChecksumSize:]
	return body, Checksum(body) == binary.LittleEndian.Uint32(tail)
}

// UvarintLen returns the number of bytes Encoder.Uvarint writes for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarintLen returns the number of bytes Encoder.Varint writes for v.
func VarintLen(v int64) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return UvarintLen(ux)
}

// BytesLen returns the number of bytes Encoder.Bytes or Encoder.String
// writes for a value of n bytes.
func BytesLen(n int) int { return UvarintLen(uint64(n)) + n }

// Seal wraps a payload in the versioned envelope:
//
//	"CDS2" | uvarint version | string registry | string config |
//	bytes payload | u32 CRC-32C(everything before), little-endian
//
// The envelope is sized first, so Seal allocates once.
func Seal(h Header, payload []byte) []byte {
	n := len(magic) + UvarintLen(h.Version) + BytesLen(len(h.Registry)) +
		BytesLen(len(h.Config)) + BytesLen(len(payload)) + ChecksumSize
	e := AppendEncoder(make([]byte, 0, n))
	e.buf = append(e.buf, magic...)
	e.Uvarint(h.Version)
	e.String(h.Registry)
	e.String(h.Config)
	e.Bytes(payload)
	return AppendChecksum(e.buf, e.buf)
}

// Open validates a sealed snapshot's structure and checksum and returns its
// header and payload. It performs no identity verification — callers pass
// the header to Check against their own expectation. All structural
// failures wrap ErrCorrupt.
func Open(data []byte) (Header, []byte, error) {
	if len(data) < len(magic)+ChecksumSize || string(data[:len(magic)]) != magic {
		return Header{}, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, ok := SplitChecksum(data)
	if !ok {
		return Header{}, nil, fmt.Errorf("%w: checksum failed", ErrCorrupt)
	}
	d := NewDecoder(body[len(magic):])
	var h Header
	h.Version = d.Uvarint()
	h.Registry = d.String()
	h.Config = d.Config()
	payload := d.Bytes()
	if d.Err() != nil {
		return Header{}, nil, d.Err()
	}
	if d.Len() != 0 {
		return Header{}, nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrCorrupt, d.Len())
	}
	return h, payload, nil
}

// Encoder builds a canonical binary payload. The zero value is not ready;
// create one with NewEncoder. Methods never fail.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// AppendEncoder returns an encoder that appends to buf. Encoding into a
// buffer with enough spare capacity does not allocate.
func AppendEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Data returns the encoded bytes.
func (e *Encoder) Data() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed (zig-zag) varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// F64 appends a float64 as its exact IEEE-754 bit pattern, 8 bytes
// little-endian — the bit-identity guarantee for restored scores, entropy
// means and thresholds.
func (e *Encoder) F64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	e.buf = append(e.buf, b[:]...)
}

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads a canonical binary payload. All methods are sticky: after
// the first failure every read returns the zero value and Err reports the
// first error (always wrapping ErrCorrupt).
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.data) - d.off }

// fail records the first error.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Fail lets a caller record a domain-specific decode failure (for example a
// malformed embedded digest) as this decoder's sticky error, typed as
// ErrCorrupt like every other decode failure.
func (d *Decoder) Fail(format string, args ...any) { d.fail(format, args...) }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Len() < 8 {
		d.fail("truncated float64 at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}

// Bool reads a boolean byte; any value other than 0 or 1 is corruption.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Len() < 1 {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	b := d.data[d.off]
	d.off++
	if b > 1 {
		d.fail("invalid bool byte %d at offset %d", b, d.off-1)
		return false
	}
	return b == 1
}

// String reads a length-prefixed string, validating the length against the
// remaining payload before allocating.
func (d *Decoder) String() string { return string(d.lengthPrefixed("string")) }

// Config reads a length-prefixed string (alias used by Open for clarity).
func (d *Decoder) Config() string { return d.String() }

// Bytes reads a length-prefixed byte slice. The returned slice is a copy,
// safe to retain.
func (d *Decoder) Bytes() []byte {
	b := d.lengthPrefixed("bytes")
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// lengthPrefixed reads a uvarint length and returns that many raw bytes,
// rejecting lengths beyond the remaining payload — the guard that keeps a
// hostile length field from allocating unbounded memory.
func (d *Decoder) lengthPrefixed(what string) []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Len()) {
		d.fail("%s length %d exceeds %d remaining bytes", what, n, d.Len())
		return nil
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Count reads a uvarint element count for a collection whose elements each
// occupy at least one encoded byte, rejecting counts beyond the remaining
// payload — the same allocation-bomb guard as lengthPrefixed, for
// count-prefixed loops.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Len()) {
		d.fail("element count %d exceeds %d remaining bytes", n, d.Len())
		return 0
	}
	return int(n)
}
