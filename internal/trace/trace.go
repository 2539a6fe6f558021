// Package trace records and replays filesystem operation streams. A
// Recorder sits in the filter chain and serialises every operation —
// including payload bytes — to a JSON-lines stream; an EventReplayer feeds
// a recorded stream straight into a fresh CryptoDrop engine, or translates
// it into host ops for a detector session.
//
// This supports the forensic workflow behind the paper's evaluation
// (§IV-C: the research prototype logs measurements for later inspection)
// and makes detections reproducible offline: capture a suspicious process's
// trace once, then re-score it under different engine configurations
// without re-running the malware.
package trace

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"cryptodrop/internal/vfs"
)

// Record is the serialised form of one filesystem operation.
type Record struct {
	// Seq is the 1-based sequence number within the trace.
	Seq int64 `json:"seq"`
	// Op is the operation kind name ("create", "read", ...).
	Op string `json:"op"`
	// PID is the acting process.
	PID int `json:"pid"`
	// Path is the primary path.
	Path string `json:"path"`
	// NewPath is the rename destination, when applicable.
	NewPath string `json:"newPath,omitempty"`
	// FileID is the stable file identity at record time.
	FileID uint64 `json:"fileId"`
	// ReplacedID is the replaced file's identity for renames, when set.
	ReplacedID uint64 `json:"replacedId,omitempty"`
	// Offset is the IO offset for reads and writes.
	Offset int64 `json:"offset,omitempty"`
	// Size is the file size after the operation.
	Size int64 `json:"size,omitempty"`
	// Flags are the open flags for open/create records.
	Flags int `json:"flags,omitempty"`
	// Wrote marks close records of handles that wrote.
	Wrote bool `json:"wrote,omitempty"`
	// DataB64 is the base64 payload of reads and writes.
	DataB64 string `json:"data,omitempty"`
}

// opName maps vfs op kinds to stable record names.
var opNames = map[vfs.OpKind]string{
	vfs.OpCreate: "create",
	vfs.OpOpen:   "open",
	vfs.OpRead:   "read",
	vfs.OpWrite:  "write",
	vfs.OpClose:  "close",
	vfs.OpDelete: "delete",
	vfs.OpRename: "rename",
}

// kindByName is the inverse of opNames.
var kindByName = func() map[string]vfs.OpKind {
	m := make(map[string]vfs.OpKind, len(opNames))
	for k, v := range opNames {
		m[v] = k
	}
	return m
}()

// Recorder is a minifilter that serialises completed operations. Attach it
// to a filter.Chain at any altitude.
type Recorder struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	seq int64
	err error
}

// NewRecorder writes JSON-lines records to w. Call Flush when done.
func NewRecorder(w io.Writer) *Recorder {
	bw := bufio.NewWriter(w)
	return &Recorder{w: bw, enc: json.NewEncoder(bw)}
}

// Name identifies the filter.
func (r *Recorder) Name() string { return "trace-recorder" }

// PreOp never vetoes.
func (r *Recorder) PreOp(op *vfs.Op) error { return nil }

// PostOp serialises the completed operation.
func (r *Recorder) PostOp(op *vfs.Op) {
	rec := Record{
		Op:         opNames[op.Kind],
		PID:        op.PID,
		Path:       op.Path,
		NewPath:    op.NewPath,
		FileID:     op.FileID,
		ReplacedID: op.ReplacedID,
		Offset:     op.Offset,
		Size:       op.Size,
		Flags:      int(op.Flags),
		Wrote:      op.Wrote,
	}
	if len(op.Data) > 0 {
		rec.DataB64 = base64.StdEncoding.EncodeToString(op.Data)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	r.seq++
	rec.Seq = r.seq
	if err := r.enc.Encode(&rec); err != nil {
		r.err = err
	}
}

// Flush drains buffered records and returns the first write error, if any.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// Records returns how many operations were recorded.
func (r *Recorder) Records() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Read parses a JSON-lines trace.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if _, ok := kindByName[rec.Op]; !ok {
			return nil, fmt.Errorf("trace: line %d: unknown op %q", line, rec.Op)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	return out, nil
}

// ReplayResult summarises a replay.
type ReplayResult struct {
	// Applied counts records emitted.
	Applied int
	// Skipped counts records that could not be applied: opens of files
	// outside the seeded corpus without create intent (content outside the
	// trace) and undecodable payloads.
	Skipped int
}
