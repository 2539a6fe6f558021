// Package audit defines detection audit bundles: self-contained,
// machine-readable records answering "why was this process flagged?" — the
// per-indicator score provenance, the files it touched and lost, the
// engine configuration and indicator-registry fingerprint that produced
// the verdict, and the measurement-tier and cache statistics behind it.
//
// The engine assembles a Bundle for every detection and hands it to a
// pluggable Sink outside all engine locks. The shipped JSONLSink appends
// one JSON object per line, the append-only format operators tail and
// retain; MemorySink collects bundles in memory for tests and
// introspection. The package depends only on the standard library and
// internal/telemetry (the embedded firing trace), so any layer may import
// it.
package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"cryptodrop/internal/telemetry"
)

// Contribution is one indicator's share of a detection score, with the
// firing extent recovered from the flight recorder when one was attached.
type Contribution struct {
	// Indicator is the indicator's declared name ("type-change", ...), or
	// the policy's acceleration label ("union-bonus") for the policy-level
	// entry.
	Indicator string `json:"indicator"`
	// ID is the registry indicator ID; 0 for policy-level entries.
	ID int `json:"id,omitempty"`
	// Points is the indicator's total score contribution at detection time.
	Points float64 `json:"points"`
	// Fires counts the indicator's firings before the detection (0 when no
	// flight recorder was attached or its ring wrapped past them).
	Fires int `json:"fires,omitempty"`
	// FirstOpIndex / LastOpIndex bound the firings' operation indices.
	FirstOpIndex int64 `json:"firstOpIndex,omitempty"`
	LastOpIndex  int64 `json:"lastOpIndex,omitempty"`
	// FirstAt / LastAt are the firings' capture times in Unix nanoseconds,
	// present only when the flight recorder had timestamps enabled.
	FirstAt int64 `json:"firstAtNs,omitempty"`
	LastAt  int64 `json:"lastAtNs,omitempty"`
}

// EngineConfig summarises the engine configuration that produced a
// verdict — the knobs an auditor needs to reproduce or tune it.
type EngineConfig struct {
	ProtectedRoot         string  `json:"protectedRoot"`
	NonUnionThreshold     float64 `json:"nonUnionThreshold"`
	UnionThreshold        float64 `json:"unionThreshold"`
	EntropyDeltaThreshold float64 `json:"entropyDeltaThreshold"`
	SimilarityMatchMax    int     `json:"similarityMatchMax"`
	FunnelingThreshold    int     `json:"funnelingThreshold"`
	Tier                  string  `json:"tier"`
	SampleBytes           int     `json:"sampleBytes,omitempty"`
	NewCipherWithoutDelta bool    `json:"newCipherWithoutDelta,omitempty"`
	PayloadBlind          bool    `json:"payloadBlind,omitempty"`
}

// RegistryInfo identifies the indicator registry and policy behind a
// verdict.
type RegistryInfo struct {
	// Fingerprint is the registry's canonical declaration fingerprint
	// (indicator.Registry.Fingerprint): equal fingerprints mean equal
	// scoring units.
	Fingerprint string `json:"fingerprint"`
	// Units lists the registered units as "id:name" in canonical order.
	Units []string `json:"units"`
	// Policy is the detection policy's Go type.
	Policy string `json:"policy"`
}

// CacheStats is the measurement memo cache's state at detection time.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions,omitempty"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// Measurement is the measurement-side context of a verdict.
type Measurement struct {
	// Tier is the session's measurement ladder tier ("full" or "sampled").
	Tier string `json:"tier"`
	// Escalated reports whether the flagged process had been promoted to
	// full measurement under the sampled tier.
	Escalated bool `json:"escalated,omitempty"`
	// Cache is the shared memo cache's statistics; nil when no cache was
	// configured.
	Cache *CacheStats `json:"cache,omitempty"`
	// ContentReadFailures is the engine's read-failure counter value (only
	// populated when the engine has a metrics registry).
	ContentReadFailures int64 `json:"contentReadFailures,omitempty"`
}

// Bundle is one detection's complete audit record. Every field is
// self-contained: a bundle read back from a JSONL stream explains the
// verdict without access to the engine that produced it.
type Bundle struct {
	// Version is the bundle schema version.
	Version int `json:"v"`
	// SessionID is the owning session's ID ("" for a bare engine).
	SessionID string `json:"session,omitempty"`
	// PID is the flagged scoring group (the process-family root under
	// family scoring).
	PID int `json:"pid"`
	// Score, Threshold, Union and OpIndex mirror the Detection.
	Score     float64 `json:"score"`
	Threshold float64 `json:"threshold"`
	Union     bool    `json:"union"`
	OpIndex   int64   `json:"opIndex"`
	// OpsToDetection is the operation distance from the first recorded
	// indicator firing to the detection (0 when no flight recorder).
	OpsToDetection int64 `json:"opsToDetection,omitempty"`
	// TimeToDetectionNs is the wall-clock distance from the first recorded
	// firing to the last pre-detection firing; present only when the
	// flight recorder had timestamps enabled.
	TimeToDetectionNs int64 `json:"timeToDetectionNs,omitempty"`
	// Contributions are the per-indicator score shares, sorted by ID with
	// policy-level entries last. Their Points sum to Score exactly.
	Contributions []Contribution `json:"contributions"`
	// FilesTouched lists the distinct protected paths attributed to the
	// pre-detection firings, in first-touch order.
	FilesTouched []string `json:"filesTouched,omitempty"`
	// FilesLost is the flagged group's completed protected-file rewrites
	// at detection time — the files-lost figure of the paper's Table I.
	FilesLost int `json:"filesLost"`
	// Deletes is the group's protected-file removals at detection time.
	Deletes int `json:"deletes,omitempty"`
	// Engine, Registry and Measurement capture the configuration behind
	// the verdict.
	Engine      EngineConfig `json:"engine"`
	Registry    RegistryInfo `json:"registry"`
	Measurement Measurement  `json:"measurement"`
	// Trace is the group's pre-detection firing history from the flight
	// recorder (empty Events when none was attached). Trace.Dropped warns
	// when the ring wrapped and the history is incomplete.
	Trace telemetry.Trace `json:"trace"`
	// Recovery is the rollback outcome for this detection when the session
	// ran with detect-then-recover armed; nil otherwise (the host stamps it
	// after the engine assembles the bundle).
	Recovery *RecoveryRecord `json:"recovery,omitempty"`
}

// RecoveryRecord is the audit image of one detection-triggered rollback:
// what the recovery coordinator restored from the convicted group's
// retained pre-images.
type RecoveryRecord struct {
	// Group is the convicted scoring group.
	Group int `json:"group"`
	// FilesRestored counts pre-images written back over a surviving file ID.
	FilesRestored int `json:"filesRestored"`
	// FilesRecreated counts pre-images recreated at their captured path
	// because the original file ID was gone.
	FilesRecreated int `json:"filesRecreated"`
	// Failures counts pre-images that could not be written back.
	Failures int `json:"failures,omitempty"`
	// BytesRestored is the total content written back.
	BytesRestored int64 `json:"bytesRestored"`
}

// Sink receives completed audit bundles. Emit is called outside all engine
// locks, once per detection, from the goroutine whose operation crossed
// the threshold; implementations must be safe for concurrent use.
type Sink interface {
	Emit(*Bundle)
}

// JSONLSink writes one JSON object per bundle, newline-terminated — the
// append-only JSONL format. Safe for concurrent use.
type JSONLSink struct {
	mu      sync.Mutex
	w       io.Writer
	err     error
	emitted int64
}

// NewJSONLSink returns a sink appending to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(b *Bundle) {
	data, err := json.Marshal(b)
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return
	}
	data = append(data, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(data); err != nil {
		s.err = err
		return
	}
	s.emitted++
}

// Emitted returns how many bundles were written.
func (s *JSONLSink) Emitted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.emitted
}

// Err returns the first write or marshal error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadBundles parses a JSONL stream written by JSONLSink.
func ReadBundles(r io.Reader) ([]Bundle, error) {
	var out []Bundle
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var b Bundle
		if err := json.Unmarshal(line, &b); err != nil {
			return out, fmt.Errorf("audit: bundle %d: %w", len(out)+1, err)
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("audit: read: %w", err)
	}
	return out, nil
}

// MemorySink collects bundles in memory — for tests and for serving "last
// detection" introspection. Safe for concurrent use.
type MemorySink struct {
	mu      sync.Mutex
	bundles []*Bundle
}

// Emit implements Sink.
func (s *MemorySink) Emit(b *Bundle) {
	s.mu.Lock()
	s.bundles = append(s.bundles, b)
	s.mu.Unlock()
}

// Bundles returns the collected bundles in emission order.
func (s *MemorySink) Bundles() []*Bundle {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Bundle, len(s.bundles))
	copy(out, s.bundles)
	return out
}
