package host

import (
	"fmt"
	"os"
	"path/filepath"

	"cryptodrop/internal/snapshot"
)

// A session checkpoint is one sealed file: the host-level session state
// (degrade latch, ingest counters) wrapping the engine's own sealed
// snapshot. The outer envelope carries the same identity
// fingerprints as the engine snapshot — registry fingerprint and scoring-
// config hash — so a checkpoint from a differently-configured pipeline is
// refused at Open time, before a byte of engine state is decoded.
//
// Write protocol: serialize to a temporary file in the same directory,
// fsync, rename over the final path, then truncate the WAL. The rename is
// the commit point — a crash at any moment leaves either the old
// checkpoint + full WAL (recoverable) or the new checkpoint + full WAL
// (recoverable; replay skips the now-covered records via their start
// counters). The WAL truncate is pure garbage collection.

// hostSnapshotVersion is the session checkpoint format version. Sealed
// checkpoints carry it folded with the embedded engine snapshot's version
// (snapshot.Header.Wrap); version 1 envelopes carried it alone, and
// version 2 payloads a content-overlay section.
const hostSnapshotVersion = 3

// sessionCheckpoint is the decoded host-level state of a checkpoint file.
type sessionCheckpoint struct {
	degraded    bool
	ingested    int64
	shedBytes   int64
	saturations int64
	detCount    int64
	engine      []byte // the engine's own sealed snapshot
}

// checkpointPaths returns the checkpoint and WAL file paths for a session.
// Session IDs that are not filesystem-safe are hex-mangled, losslessly and
// deterministically.
func checkpointPaths(dir, id string) (ckpt, wal string) {
	safe := true
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.') {
			safe = false
			break
		}
	}
	base := id
	if !safe || id == "" {
		base = fmt.Sprintf("x%x", id)
	}
	return filepath.Join(dir, base+".ckpt"), filepath.Join(dir, base+".wal")
}

// encodeCheckpoint seals a session checkpoint under the engine's identity.
func encodeCheckpoint(identity snapshot.Header, c *sessionCheckpoint) []byte {
	enc := snapshot.NewEncoder()
	enc.Bool(c.degraded)
	enc.Varint(c.ingested)
	enc.Varint(c.shedBytes)
	enc.Varint(c.saturations)
	enc.Varint(c.detCount)
	enc.Bytes(c.engine)
	return snapshot.Seal(identity, enc.Data())
}

// decodeCheckpoint opens a checkpoint file's bytes and verifies its identity
// against want (the restoring session's engine identity).
func decodeCheckpoint(data []byte, want snapshot.Header) (*sessionCheckpoint, error) {
	h, payload, err := snapshot.Open(data)
	if err != nil {
		return nil, err
	}
	if err := h.Check(want); err != nil {
		return nil, err
	}
	d := snapshot.NewDecoder(payload)
	c := &sessionCheckpoint{
		degraded:    d.Bool(),
		ingested:    d.Varint(),
		shedBytes:   d.Varint(),
		saturations: d.Varint(),
		detCount:    d.Varint(),
		engine:      d.Bytes(),
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in checkpoint", snapshot.ErrCorrupt, d.Len())
	}
	return c, nil
}

// writeCheckpointFile commits blob to path atomically: temp file in the same
// directory, fsync, rename.
func writeCheckpointFile(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
