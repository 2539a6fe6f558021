package host

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"

	"cryptodrop/internal/core"
	"cryptodrop/internal/snapshot"
)

// The write-ahead log records every ingested Op batch before it is applied
// to the engine, so a crash between checkpoints loses nothing: recovery
// restores the last checkpoint and replays the WAL tail, reproducing the
// scoreboard bit for bit.
//
// On-disk format — a header, then a sequence of batch records (AppendBatch,
// the record format the wire protocol also frames its batches in):
//
//	"CDWL" | uvarint(walVersion)                       once, at offset 0
//	uvarint(len(payload)) | payload | u32 CRC-32C      per record
//
// where the checksum covers the length prefix and the payload, and payload
// is
//
//	varint(start) | uvarint(nops) | op…
//
// and start is the session's ingested-op count when the batch was appended.
// The start counter is what lets replay skip records a later checkpoint
// already covers, including the partial-overlap case where a checkpoint
// landed mid-batch (only the uncovered op suffix replays).
//
// Crash consistency: a torn tail — a record cut short by the crash, or with
// a failed checksum — terminates the read silently. Everything before it is
// intact (records are framed and individually checksummed), and the torn
// record's batch was by definition never durably applied anywhere else, so
// dropping it is the correct recovery, not data loss: the op stream resumes
// from the producer.
//
// The header is what keeps that rule from hiding a format change: a log
// from a build with another record format would fail every checksum and
// read as one long torn tail. A non-empty log whose header is missing or
// names another version is therefore refused with a WALFormatError instead.

// walMagic opens every write-ahead log; walVersion is its record format.
// Version 1 records carried a per-op eviction list.
const (
	walMagic   = "CDWL"
	walVersion = 2
)

// walHeader is the header every WAL file starts with, written whenever the
// file is created or truncated.
var walHeader = binary.AppendUvarint([]byte(walMagic), walVersion)

// WALFormatError reports a non-empty write-ahead log whose header is missing
// or names a format this build does not read — in practice a log written by
// an older build. Restore refuses the session rather than drop the ops the
// log holds. It unwraps to snapshot.ErrVersion.
type WALFormatError struct {
	// Path is the log file.
	Path string
	// Reason says what is wrong with the header.
	Reason string
}

func (e *WALFormatError) Error() string {
	return fmt.Sprintf("host: write-ahead log %s: %s", e.Path, e.Reason)
}

// Unwrap makes errors.Is(err, snapshot.ErrVersion) true.
func (e *WALFormatError) Unwrap() error { return snapshot.ErrVersion }

// walRecord is one decoded WAL entry.
type walRecord struct {
	// start is the session's ingested-op count when this batch was appended.
	start int64
	// ops is the batch, in submission order.
	ops []Op
}

// AppendBatch appends one self-checking op-batch record to dst — the record
// format the write-ahead log and the network wire protocol share, so a WAL
// record and a wire frame describe ops identically:
//
//	uvarint(len(payload)) | payload | u32 CRC-32C, little-endian
//	payload = varint(pos) | uvarint(nops) | op…
//
// The checksum covers the length prefix and the payload. The record is sized
// before it is encoded, so dst grows at most once, and appending to a buffer
// with enough spare capacity does not allocate.
func AppendBatch(dst []byte, pos int64, ops []Op) []byte {
	n := snapshot.VarintLen(pos) + opsSize(ops)
	start := len(dst)
	dst = slices.Grow(dst, snapshot.UvarintLen(uint64(n))+n+snapshot.ChecksumSize)
	dst = binary.AppendUvarint(dst, uint64(n))
	enc := snapshot.AppendEncoder(dst)
	enc.Varint(pos)
	encodeOps(enc, ops)
	if got := len(enc.Data()) - len(dst); got != n {
		panic(fmt.Sprintf("host: batch encoded %d bytes, sized %d", got, n))
	}
	dst = enc.Data()
	return snapshot.AppendChecksum(dst, dst[start:])
}

// ReadBatch decodes the record AppendBatch wrote at the start of rec and
// returns its position, its ops and the record's encoded length. A record
// that is torn, fails its checksum or does not decode exactly is an error
// wrapping snapshot.ErrCorrupt. Decoded content is copied out of rec.
func ReadBatch(rec []byte) (pos int64, ops []Op, n int, err error) {
	plen, sz := binary.Uvarint(rec)
	if sz <= 0 || plen > uint64(len(rec)-sz) || len(rec)-sz-int(plen) < snapshot.ChecksumSize {
		return 0, nil, 0, fmt.Errorf("%w: torn batch record", snapshot.ErrCorrupt)
	}
	n = sz + int(plen) + snapshot.ChecksumSize
	body, ok := snapshot.SplitChecksum(rec[:n])
	if !ok {
		return 0, nil, 0, fmt.Errorf("%w: batch checksum failed", snapshot.ErrCorrupt)
	}
	d := snapshot.NewDecoder(body[sz:])
	pos = d.Varint()
	ops = decodeOps(d)
	if d.Err() != nil {
		return 0, nil, 0, d.Err()
	}
	if d.Len() != 0 {
		return 0, nil, 0, fmt.Errorf("%w: %d trailing bytes in batch record", snapshot.ErrCorrupt, d.Len())
	}
	return pos, ops, n, nil
}

// encodeOps appends a count-prefixed op sequence in the canonical op codec
// that AppendBatch frames.
func encodeOps(enc *snapshot.Encoder, ops []Op) {
	enc.Uvarint(uint64(len(ops)))
	for i := range ops {
		encodeOp(enc, &ops[i])
	}
}

// decodeOps reads a count-prefixed op sequence written by encodeOps. Errors
// stick to the decoder; check d.Err after the surrounding structure.
func decodeOps(d *snapshot.Decoder) []Op {
	n := d.Count()
	if n == 0 {
		return nil
	}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, decodeOp(d))
	}
	return ops
}

// encodeOp writes one Op.
func encodeOp(enc *snapshot.Encoder, op *Op) {
	encodeEvent(enc, &op.Event)
	enc.Bool(op.PreEvent != nil)
	if op.PreEvent != nil {
		encodeEvent(enc, op.PreEvent)
	}
	encodeContentMap(enc, op.Pre)
	encodeContentMap(enc, op.Post)
}

func decodeOp(d *snapshot.Decoder) Op {
	var op Op
	decodeEvent(d, &op.Event)
	if d.Bool() {
		var pre core.Event
		decodeEvent(d, &pre)
		op.PreEvent = &pre
	}
	op.Pre = decodeContentMap(d)
	op.Post = decodeContentMap(d)
	return op
}

// encodeEvent writes one engine event.
func encodeEvent(enc *snapshot.Encoder, ev *core.Event) {
	enc.Uvarint(uint64(ev.Kind))
	enc.Varint(int64(ev.PID))
	enc.String(ev.Path)
	enc.String(ev.NewPath)
	enc.Uvarint(ev.FileID)
	enc.Uvarint(ev.ReplacedID)
	enc.Bytes(ev.Data)
	enc.Varint(ev.Offset)
	enc.Varint(ev.Size)
	enc.Uvarint(uint64(ev.Flags))
	enc.Bool(ev.Wrote)
}

func decodeEvent(d *snapshot.Decoder, ev *core.Event) {
	ev.Kind = core.EventKind(d.Uvarint())
	ev.PID = int(d.Varint())
	ev.Path = d.String()
	ev.NewPath = d.String()
	ev.FileID = d.Uvarint()
	ev.ReplacedID = d.Uvarint()
	if b := d.Bytes(); len(b) > 0 {
		ev.Data = b
	}
	ev.Offset = d.Varint()
	ev.Size = d.Varint()
	ev.Flags = core.EventFlag(d.Uvarint())
	ev.Wrote = d.Bool()
}

// encodeContentMap writes a file-ID → content map in sorted ID order. The
// IDs are sorted in a stack array, so ordinary maps encode without
// allocating.
func encodeContentMap(enc *snapshot.Encoder, m map[uint64][]byte) {
	var stack [16]uint64
	ids := stack[:0]
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	enc.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		enc.Uvarint(id)
		enc.Bytes(m[id])
	}
}

func decodeContentMap(d *snapshot.Decoder) map[uint64][]byte {
	n := d.Count()
	if n == 0 {
		return nil
	}
	m := make(map[uint64][]byte, n)
	for i := 0; i < n; i++ {
		id := d.Uvarint()
		m[id] = d.Bytes()
	}
	return m
}

// opsSize returns the number of bytes encodeOps writes for ops.
func opsSize(ops []Op) int {
	n := snapshot.UvarintLen(uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		n += eventSize(&op.Event) + 1
		if op.PreEvent != nil {
			n += eventSize(op.PreEvent)
		}
		n += contentMapSize(op.Pre) + contentMapSize(op.Post)
	}
	return n
}

// eventSize returns the number of bytes encodeEvent writes for ev.
func eventSize(ev *core.Event) int {
	return snapshot.UvarintLen(uint64(ev.Kind)) + snapshot.VarintLen(int64(ev.PID)) +
		snapshot.BytesLen(len(ev.Path)) + snapshot.BytesLen(len(ev.NewPath)) +
		snapshot.UvarintLen(ev.FileID) + snapshot.UvarintLen(ev.ReplacedID) +
		snapshot.BytesLen(len(ev.Data)) + snapshot.VarintLen(ev.Offset) +
		snapshot.VarintLen(ev.Size) + snapshot.UvarintLen(uint64(ev.Flags)) + 1
}

// contentMapSize returns the number of bytes encodeContentMap writes for m.
func contentMapSize(m map[uint64][]byte) int {
	n := snapshot.UvarintLen(uint64(len(m)))
	for id, b := range m {
		n += snapshot.UvarintLen(id) + snapshot.BytesLen(len(b))
	}
	return n
}

// readWAL parses every intact record from a WAL file. A torn or corrupt
// tail terminates the read silently (see the crash-consistency note above);
// a missing or empty file is an empty log, and so is a file holding only a
// prefix of the header (a crash during the header write). Any other file
// without this build's header is a *WALFormatError.
func readWAL(path string) ([]walRecord, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	switch {
	case bytes.HasPrefix(data, walHeader):
		data = data[len(walHeader):]
	case bytes.HasPrefix(walHeader, data):
		return nil, nil
	case bytes.HasPrefix(data, []byte(walMagic)):
		v, _ := binary.Uvarint(data[len(walMagic):])
		return nil, &WALFormatError{Path: path,
			Reason: fmt.Sprintf("format version %d, this build reads %d", v, walVersion)}
	default:
		return nil, &WALFormatError{Path: path,
			Reason: fmt.Sprintf("no %q header (written by an older build?)", walMagic)}
	}
	var out []walRecord
	for len(data) > 0 {
		start, ops, n, err := ReadBatch(data)
		if err != nil {
			break // torn or corrupt tail
		}
		out = append(out, walRecord{start: start, ops: ops})
		data = data[n:]
	}
	return out, nil
}
