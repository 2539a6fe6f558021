package livewatch

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cryptodrop/internal/core"
	"cryptodrop/internal/host"
)

// actorPID is the single scoring group every change is attributed to: a
// userspace watcher has no process attribution, so the whole tree is scored
// as one unknown actor.
const actorPID = 1

// Submitter accepts batches of host ops — satisfied by *host.Session. The
// Feeder depends on the interface so tests can capture the op stream.
type Submitter interface {
	Submit(ctx context.Context, ops ...host.Op) error
}

// Feeder adapts directory change events to the CryptoDrop engine: it is the
// live-watch backend of the backend-neutral event model. It owns no scoring
// of its own — every indicator, the union rule and the thresholds live in
// the session's core.Engine. The feeder assigns stable file IDs to paths and
// translates each scanner Event into host.Op batches with the file content
// staged inside (Pre for previous versions, Post for completed rewrites), so
// the session scores them from its op overlay without ever touching the
// changing filesystem. One Feeder feeds one session; each root a host
// multiplexes gets its own.
//
// Everything is attributed to the tree's single unknown actor, and scoring
// is payload-blind — open the session with FeederSessionConfig.
type Feeder struct {
	mu     sync.Mutex
	target Submitter

	paths  map[string]uint64
	nextID uint64
}

// FeederSessionConfig returns the host session configuration matching the
// Feeder's backend semantics. ecfg is used as-is (points, thresholds,
// registry, callbacks; zero values mean zero), except for the two settings
// the backend dictates: NewCipherWithoutDelta is set, because a watcher
// never sees the read/write payload stream and so the paper's Δe gate could
// never open; and Workers is pinned to 0, because content is staged per op
// and measured synchronously. A nil ecfg means core.DefaultConfig.
func FeederSessionConfig(ecfg *core.Config) host.SessionConfig {
	cfg := core.DefaultConfig("")
	if ecfg != nil {
		cfg = *ecfg
	}
	cfg.NewCipherWithoutDelta = true
	cfg.Workers = 0
	return host.SessionConfig{Engine: cfg}
}

// NewFeeder returns a feeder submitting to target. Batches for one feeder
// must not be submitted concurrently from multiple goroutines (the engine's
// per-group ordering contract); the feeder's own methods serialise.
func NewFeeder(target Submitter) *Feeder {
	return &Feeder{target: target, paths: make(map[string]uint64)}
}

// id returns (assigning if needed) the stable file ID for path; f.mu held.
func (f *Feeder) id(path string) uint64 {
	if id, ok := f.paths[path]; ok {
		return id
	}
	f.nextID++
	f.paths[path] = f.nextID
	return f.nextID
}

// Prime submits a baseline-only op snapshotting content as path's previous
// version without scoring anything, exactly as the engine snapshots a file
// about to be opened for writing.
func (f *Feeder) Prime(ctx context.Context, path string, content []byte) error {
	f.mu.Lock()
	op := primeOp(path, f.id(path), content)
	f.mu.Unlock()
	return f.target.Submit(ctx, op)
}

// primeOp builds the baseline-only op for path under id.
func primeOp(path string, id uint64, content []byte) host.Op {
	return host.Op{
		PreEvent: &core.Event{
			Kind: core.EvOpen, PID: actorPID, Path: path, FileID: id,
			Flags: core.EvWriteIntent, Size: int64(len(content)),
		},
		Pre:   map[uint64][]byte{id: content},
		Evict: []uint64{id},
	}
}

// PrimeTree baselines every readable file under root.
func (f *Feeder) PrimeTree(ctx context.Context, root string) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil //nolint:nilerr // priming is best-effort
		}
		content, err := os.ReadFile(p)
		if err != nil {
			return nil //nolint:nilerr // priming is best-effort
		}
		return f.Prime(ctx, p, content)
	})
}

// Apply translates one scan's events and submits them as a single batch.
// Files are read from the real filesystem at translation time; unreadable
// files are skipped.
func (f *Feeder) Apply(ctx context.Context, events []Event) error {
	f.mu.Lock()
	var ops []host.Op
	for _, ev := range events {
		switch ev.Kind {
		case EventDeleted:
			ops = append(ops, f.deleteOp(ev.Path))
		case EventCreated, EventModified:
			content, err := os.ReadFile(ev.Path)
			if err != nil {
				continue
			}
			ops = append(ops, f.changeOps(ev.Path, content, ev.Kind)...)
		}
	}
	f.mu.Unlock()
	return f.target.Submit(ctx, ops...)
}

// Watch drains src every interval and submits each scan's changes until ctx
// is done or a submit fails (the session closed). A failed scan is retried
// on the next tick. Baseline src and prime the tree before calling it.
func (f *Feeder) Watch(ctx context.Context, src Source, interval time.Duration) error {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			events, err := src.Scan()
			if err != nil {
				continue
			}
			if err := f.Apply(ctx, events); err != nil {
				return err
			}
		}
	}
}

// Change submits the ops scoring one created/modified file given its new
// content (exposed separately so tests and alternative event sources can
// feed content directly).
func (f *Feeder) Change(ctx context.Context, path string, content []byte, kind EventKind) error {
	f.mu.Lock()
	ops := f.changeOps(path, content, kind)
	f.mu.Unlock()
	return f.target.Submit(ctx, ops...)
}

// changeOps builds the ops for one change: it reaches the engine as the
// completed write it is — an optional create, then a written-handle close
// evaluated against the file's previous version; f.mu held.
func (f *Feeder) changeOps(path string, content []byte, kind EventKind) []host.Op {
	_, known := f.paths[path]
	id := f.id(path)
	var ops []host.Op
	if !known && kind == EventCreated {
		// A file born under the watch: the actor is its creator (its later
		// deletion is temp-file churn, not destruction of user data).
		ops = append(ops, host.Op{Event: core.Event{
			Kind: core.EvCreate, PID: actorPID, Path: path, FileID: id,
			Flags: core.EvWriteIntent | core.EvCreateIntent,
		}})
	}
	if !known && kind == EventModified {
		// First sight of a pre-existing file mid-change: baseline it from
		// the post-change content so state is tracked from here on. The
		// close below then compares identical content and scores nothing —
		// mirroring the engine seeing only the tail of a write.
		ops = append(ops, primeOp(path, id, content))
	}
	return append(ops, host.Op{
		Event: core.Event{
			Kind: core.EvClose, PID: actorPID, Path: path, FileID: id,
			Size: int64(len(content)), Wrote: true,
		},
		Post:  map[uint64][]byte{id: content},
		Evict: []uint64{id},
	})
}

// Delete submits the op scoring a removal.
func (f *Feeder) Delete(ctx context.Context, path string) error {
	f.mu.Lock()
	op := f.deleteOp(path)
	f.mu.Unlock()
	return f.target.Submit(ctx, op)
}

// deleteOp builds the op scoring a removal and forgets path; f.mu held.
func (f *Feeder) deleteOp(path string) host.Op {
	id := f.id(path)
	delete(f.paths, path)
	return host.Op{Event: core.Event{
		Kind: core.EvDelete, PID: actorPID, Path: path, FileID: id,
	}}
}
