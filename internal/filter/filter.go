// Package filter implements a filesystem minifilter chain, substituting for
// the Windows filter-manager stack the paper's kernel driver attaches to
// (Fig. 2). Filters are ordered by altitude like Windows minifilters, but —
// as the paper notes — CryptoDrop's behaviour does not depend on its position
// relative to other filters (e.g. anti-virus), which the tests verify.
//
// The detection engine is not itself a Filter: internal/vfsadapter submits
// each vfs.Op callback to the engine's host session as a core.Event. The
// chain only ever sees that thin adapter.
package filter

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

// Filter is one minifilter in the chain.
type Filter interface {
	// Name identifies the filter (e.g. "cryptodrop", "antivirus").
	Name() string
	// PreOp is called before the operation executes, in descending
	// altitude order. Returning a non-nil error vetoes the operation.
	PreOp(op *vfs.Op) error
	// PostOp is called after the operation completes, in ascending
	// altitude order.
	PostOp(op *vfs.Op)
}

// Chain is an ordered stack of filters that implements vfs.Interceptor.
// The zero value is an empty, usable chain.
//
// The entry list is copy-on-write: Attach and Detach build a fresh slice
// under a mutex and publish it with one atomic store, while PreOp/PostOp
// dispatch reads the current slice with one atomic load. Concurrent
// operations therefore never serialise on a chain-wide lock, and a filter
// callback may attach or detach filters reentrantly.
type Chain struct {
	// mu serialises mutations (Attach/Detach/SetTelemetry) only; dispatch
	// never takes it.
	mu      sync.Mutex
	entries atomic.Pointer[[]entry]
	tel     *telemetry.Registry
}

type entry struct {
	altitude int
	filter   Filter
	// preLat/postLat/vetoes are per-filter telemetry handles; nil when
	// telemetry is off, in which case dispatch skips all timing.
	preLat  *telemetry.Histogram
	postLat *telemetry.Histogram
	vetoes  *telemetry.Counter
}

var _ vfs.Interceptor = (*Chain)(nil)

// load returns the published entry slice (nil for an empty chain).
func (c *Chain) load() []entry {
	if p := c.entries.Load(); p != nil {
		return *p
	}
	return nil
}

// instrument fills an entry's telemetry handles; c.mu held.
func (c *Chain) instrument(e *entry) {
	if c.tel == nil {
		return
	}
	label := `{filter="` + e.filter.Name() + `"}`
	e.preLat = c.tel.Histogram("filter_pre_seconds"+label, telemetry.DefaultLatencyBuckets())
	e.postLat = c.tel.Histogram("filter_post_seconds"+label, telemetry.DefaultLatencyBuckets())
	e.vetoes = c.tel.Counter("filter_vetoes_total" + label)
}

// SetTelemetry attaches a registry recording per-filter PreOp/PostOp
// latency histograms and veto counts for every current and future filter.
// Passing nil detaches it. Dispatch with telemetry off costs one nil-check
// per filter.
func (c *Chain) SetTelemetry(reg *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tel = reg
	old := c.load()
	next := make([]entry, len(old))
	copy(next, old)
	for i := range next {
		next[i].preLat, next[i].postLat, next[i].vetoes = nil, nil, nil
		c.instrument(&next[i])
	}
	c.entries.Store(&next)
}

// Attach inserts a filter at the given altitude. Higher altitudes see
// operations first on the way down (PreOp) and last on the way up (PostOp).
// Attaching two filters at the same altitude is an error.
func (c *Chain) Attach(altitude int, f Filter) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.load()
	for _, e := range old {
		if e.altitude == altitude {
			return fmt.Errorf("filter: altitude %d already occupied by %q", altitude, e.filter.Name())
		}
	}
	next := make([]entry, len(old), len(old)+1)
	copy(next, old)
	en := entry{altitude: altitude, filter: f}
	c.instrument(&en)
	next = append(next, en)
	sort.Slice(next, func(i, j int) bool { return next[i].altitude > next[j].altitude })
	c.entries.Store(&next)
	return nil
}

// Detach removes the filter with the given name. It reports whether a
// filter was removed.
func (c *Chain) Detach(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.load()
	for i, e := range old {
		if e.filter.Name() == name {
			next := make([]entry, 0, len(old)-1)
			next = append(next, old[:i]...)
			next = append(next, old[i+1:]...)
			c.entries.Store(&next)
			return true
		}
	}
	return false
}

// Filters returns the attached filter names in descending altitude order.
func (c *Chain) Filters() []string {
	entries := c.load()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.filter.Name()
	}
	return names
}

// PreOp runs every filter's PreOp in descending altitude order, stopping at
// the first veto. Dispatch is lock-free: it reads the entry list published
// by the most recent Attach/Detach, so a concurrent mutation affects only
// operations that start after it.
func (c *Chain) PreOp(op *vfs.Op) error {
	entries := c.load()
	for i := range entries {
		e := &entries[i]
		var err error
		if e.preLat != nil {
			t0 := time.Now()
			err = e.filter.PreOp(op)
			e.preLat.ObserveDuration(time.Since(t0))
		} else {
			err = e.filter.PreOp(op)
		}
		if err != nil {
			e.vetoes.Inc()
			return fmt.Errorf("filter %q: %w", e.filter.Name(), err)
		}
	}
	return nil
}

// PostOp runs every filter's PostOp in ascending altitude order.
func (c *Chain) PostOp(op *vfs.Op) {
	entries := c.load()
	for i := len(entries) - 1; i >= 0; i-- {
		e := &entries[i]
		if e.postLat != nil {
			t0 := time.Now()
			e.filter.PostOp(op)
			e.postLat.ObserveDuration(time.Since(t0))
		} else {
			e.filter.PostOp(op)
		}
	}
}

// Func adapts plain functions into a Filter, for tests and simple hooks.
type Func struct {
	// FilterName is returned by Name.
	FilterName string
	// Pre, if non-nil, handles PreOp.
	Pre func(op *vfs.Op) error
	// Post, if non-nil, handles PostOp.
	Post func(op *vfs.Op)
}

var _ Filter = (*Func)(nil)

// Name returns the filter name.
func (f *Func) Name() string { return f.FilterName }

// PreOp invokes Pre when set.
func (f *Func) PreOp(op *vfs.Op) error {
	if f.Pre == nil {
		return nil
	}
	return f.Pre(op)
}

// PostOp invokes Post when set.
func (f *Func) PostOp(op *vfs.Op) {
	if f.Post == nil {
		return
	}
	f.Post(op)
}
