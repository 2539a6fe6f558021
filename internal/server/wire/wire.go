// Package wire is the versioned network encoding of the detection-as-a-
// service ingest protocol: the frames a remote producer streams into
// cdserver's /v1/ingest endpoint and the typed sentinels both ends of the
// connection dispatch on.
//
// A stream is one request body:
//
//	"CDWF" | uvarint version | string sessionID        stream header, once
//	frame…                                             until EOF
//
// and each frame is a write-ahead log record (host.AppendBatch), carrying
// the canonical op codec the durable sessions already use:
//
//	uvarint len(payload) | payload | u32 CRC-32C, little-endian
//	payload = varint seq | count-prefixed ops
//
// where the checksum (snapshot.Checksum) covers the length prefix and the
// payload. Version 1 streams carried an FNV-64a trailer and version 2 ops a
// per-op eviction list; both are refused at the header.
//
// seq is the producer's op position of the frame's first op — the session's
// total ops sent before this frame. It makes ingest idempotent: a server
// that already accepted part of the frame (a retransmit after a 429 or a
// reconnect after a crash) skips the covered prefix, and a frame that would
// leave a gap is refused instead of silently corrupting the stream. The
// client recovers the authoritative position from the server
// (Session.Ingested() on the far side) and resumes from there.
//
// Decoding never panics on hostile input: frame lengths are capped by
// MaxFrameBytes before allocation and every inner length is validated by the
// snapshot decoder's guards. A torn or corrupt frame fails with ErrBadFrame;
// a clean end of stream is io.EOF from ReadFrame. A FrameReader reads a
// stream's frames into one reused buffer and copies decoded content out, so
// its steady state allocates only the decoded ops.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"cryptodrop/internal/host"
	"cryptodrop/internal/snapshot"
)

// Magic opens every ingest stream.
const Magic = "CDWF"

// Version is the wire-format version this build speaks. The stream header
// carries it; a server refuses versions it does not know.
const Version = 3

// MaxFrameBytes caps one frame's payload — the allocation-bomb guard for
// hostile length fields, and the practical upper bound on one batch's staged
// content.
const MaxFrameBytes = 16 << 20

// Typed sentinels of the service protocol, shared by server and client so
// errors.Is dispatches identically on both ends of the connection. (The
// hosting layer's ErrOverloaded, ErrSessionClosed and ErrHostClosed round-
// trip the wire too; see package client.)
var (
	// ErrUnauthorized reports a request whose bearer token matched no
	// configured tenant.
	ErrUnauthorized = errors.New("server: unauthorized")
	// ErrRateLimited reports a request refused by the tenant's token bucket;
	// retry after the interval the response names.
	ErrRateLimited = errors.New("server: rate limited")
	// ErrBadFrame reports a structurally invalid stream: wrong magic, unknown
	// version, oversized/torn/corrupt frame, or a sequence gap.
	ErrBadFrame = errors.New("wire: bad frame")
)

// Error codes carried in ack bodies, so HTTP status codes (which overlap:
// two distinct conditions answer 429) map losslessly back to sentinels.
const (
	CodeUnauthorized = "unauthorized"
	CodeRateLimited  = "rate-limited"
	CodeOverloaded   = "overloaded"
	CodeClosed       = "session-closed"
	CodeDraining     = "draining"
	CodeBadFrame     = "bad-frame"
	CodeGap          = "gap"
)

// Ack is the server's JSON answer to an ingest stream or a position query.
type Ack struct {
	// Session is the tenant-scoped session the ack describes.
	Session string `json:"session"`
	// Accepted is the server's op position: ops admitted to the session's
	// ingest queue so far. The client resumes from here.
	Accepted int64 `json:"accepted"`
	// Ingested is the durable op position: ops the engine has applied.
	Ingested int64 `json:"ingested"`
	// Degraded reports payload-blind scoring; Detections counts the
	// session's detections so far.
	Degraded   bool  `json:"degraded"`
	Detections int64 `json:"detections"`
	// Code and Error carry the protocol error that ended the stream, empty
	// on success. Code is one of the Code* constants.
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
	// RetryAfterMs is the throttle wait in milliseconds on a 429, finer
	// grained than the whole-second Retry-After header.
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// Header is the decoded stream header.
type Header struct {
	// Version is the announced wire version.
	Version uint64
	// Session is the producer's session name (scoped per tenant server-side).
	Session string
}

// AppendHeader appends the stream header for session to buf.
func AppendHeader(buf []byte, session string) []byte {
	buf = append(buf, Magic...)
	buf = binary.AppendUvarint(buf, Version)
	buf = binary.AppendUvarint(buf, uint64(len(session)))
	return append(buf, session...)
}

// ReadHeader reads and validates the stream header.
func ReadHeader(r *bufio.Reader) (Header, error) {
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Header{}, fmt.Errorf("%w: short header: %v", ErrBadFrame, err)
	}
	if string(magic[:]) != Magic {
		return Header{}, fmt.Errorf("%w: bad magic %q", ErrBadFrame, magic[:])
	}
	var h Header
	var err error
	if h.Version, err = binary.ReadUvarint(r); err != nil {
		return Header{}, fmt.Errorf("%w: truncated version", ErrBadFrame)
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("%w: unsupported wire version %d (have %d)", ErrBadFrame, h.Version, Version)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil || n > MaxFrameBytes {
		return Header{}, fmt.Errorf("%w: bad session-ID length", ErrBadFrame)
	}
	id := make([]byte, n)
	if _, err := io.ReadFull(r, id); err != nil {
		return Header{}, fmt.Errorf("%w: truncated session ID", ErrBadFrame)
	}
	h.Session = string(id)
	if h.Session == "" {
		return Header{}, fmt.Errorf("%w: empty session ID", ErrBadFrame)
	}
	return h, nil
}

// Frame is one decoded op batch.
type Frame struct {
	// Seq is the op position of the first op — the producer's count of ops
	// sent on this session before the frame.
	Seq int64
	// Ops is the batch, in submission order.
	Ops []host.Op
}

// AppendFrame appends one framed, checksummed op batch to buf, growing it
// at most once; into a buffer with enough spare capacity it does not
// allocate.
func AppendFrame(buf []byte, seq int64, ops []host.Op) []byte {
	return host.AppendBatch(buf, seq, ops)
}

// ReadFrame reads the next frame into a buffer of its own. A clean end of
// stream — EOF exactly at a frame boundary — returns io.EOF; anything torn,
// oversized or corrupt wraps ErrBadFrame. A stream of several frames reads
// them through one FrameReader instead, which reuses its buffer.
func ReadFrame(r *bufio.Reader) (Frame, error) { return NewFrameReader(r).Next() }

// FrameReader reads the frames of one stream, reusing one frame buffer for
// all of them. Decoded content is copied out of the buffer, so frames stay
// valid after the next read.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewFrameReader returns a FrameReader over the frames that follow the
// stream header in r.
func NewFrameReader(r *bufio.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads the next frame, with ReadFrame's results.
func (fr *FrameReader) Next() (Frame, error) {
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: torn frame length", ErrBadFrame)
	}
	if n > MaxFrameBytes {
		return Frame{}, fmt.Errorf("%w: frame of %d bytes exceeds cap %d", ErrBadFrame, n, MaxFrameBytes)
	}
	// Rebuild the record the checksum covers: length prefix, then payload
	// and trailer read straight from the stream.
	rec := binary.AppendUvarint(fr.buf[:0], n)
	head := len(rec)
	rec = slices.Grow(rec, int(n)+snapshot.ChecksumSize)[:head+int(n)+snapshot.ChecksumSize]
	fr.buf = rec
	if _, err := io.ReadFull(fr.r, rec[head:]); err != nil {
		return Frame{}, fmt.Errorf("%w: torn frame", ErrBadFrame)
	}
	seq, ops, _, err := host.ReadBatch(rec)
	if err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if seq < 0 {
		return Frame{}, fmt.Errorf("%w: negative sequence %d", ErrBadFrame, seq)
	}
	return Frame{Seq: seq, Ops: ops}, nil
}
