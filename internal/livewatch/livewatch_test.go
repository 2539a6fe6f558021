package livewatch

import (
	"context"
	"crypto/rand"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cryptodrop/internal/core"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/host"
	"cryptodrop/internal/telemetry"
)

// newFeeder opens a Direct host session with FeederSessionConfig(ecfg) — so
// every Submit is scored before it returns — and binds a feeder to it.
func newFeeder(t *testing.T, ecfg *core.Config) (*Feeder, *host.Session) {
	t.Helper()
	sc := FeederSessionConfig(ecfg)
	sc.Direct = true
	h := host.New(host.Config{})
	sess, err := h.Open("live", sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _, _ = h.Shutdown(context.Background()) })
	return NewFeeder(sess), sess
}

// report returns the session's scoreboard for the tree's single actor.
func report(sess *host.Session) core.ProcessReport {
	rep, _ := sess.Report(actorPID)
	return rep
}

// primeFiles baselines each file from its current on-disk content.
func primeFiles(t *testing.T, f *Feeder, files []string) {
	t.Helper()
	for _, p := range files {
		content, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Prime(context.Background(), p, content); err != nil {
			t.Fatal(err)
		}
	}
}

// deleteN scores n deletions of files the actor did not create.
func deleteN(t *testing.T, f *Feeder, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := f.Delete(context.Background(), "/x/"+string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
}

// change feeds one created/modified file's new content.
func change(t *testing.T, f *Feeder, path string, content []byte, kind EventKind) {
	t.Helper()
	if err := f.Change(context.Background(), path, content, kind); err != nil {
		t.Fatal(err)
	}
}

// writeTree materialises a small corpus into a real temp directory.
func writeTree(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	exts := []string{"txt", "pdf", "docx", "csv", "md", "html"}
	for i := 0; i < n; i++ {
		sub := dir
		if i%3 == 0 {
			sub = filepath.Join(dir, "sub")
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		ext := exts[i%len(exts)]
		p := filepath.Join(sub, "file"+string(rune('a'+i%26))+string(rune('0'+i/26))+"."+ext)
		if err := os.WriteFile(p, corpus.Generate(ext, int64(i), 8192), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// encryptFile overwrites a real file with keystream bytes.
func encryptFile(t *testing.T, p string) {
	t.Helper()
	info, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	enc := make([]byte, info.Size())
	if _, err := rand.Read(enc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, enc, 0o644); err != nil {
		t.Fatal(err)
	}
}

func listFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScannerDetectsChanges(t *testing.T) {
	dir := writeTree(t, 10)
	s := NewScanner(dir)
	events, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("baseline scan produced %d events", len(events))
	}

	files := listFiles(t, dir)
	// Modify one (mtime granularity can be coarse; change size too).
	if err := os.WriteFile(files[0], []byte("changed content longer than before to alter size"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Create one.
	created := filepath.Join(dir, "new.bin")
	if err := os.WriteFile(created, []byte("fresh"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Delete one.
	if err := os.Remove(files[1]); err != nil {
		t.Fatal(err)
	}

	events, err = s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[EventKind]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds[EventCreated] != 1 || kinds[EventModified] != 1 || kinds[EventDeleted] != 1 {
		t.Fatalf("events = %v", events)
	}
	// No further changes → no events.
	events, err = s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("idle scan produced %v", events)
	}
}

// TestFeederAlertsOnBulkEncryption also pins that the feeder stages every
// byte the engine measures: the session never falls back to reading content
// it was not given, so the engine records no content-read failures.
func TestFeederAlertsOnBulkEncryption(t *testing.T) {
	dir := writeTree(t, 40)
	files := listFiles(t, dir)

	alerted := false
	reg := telemetry.NewRegistry()
	ecfg := core.DefaultConfig("")
	ecfg.Telemetry = reg
	ecfg.OnDetection = func(core.Detection) { alerted = true }
	f, sess := newFeeder(t, &ecfg)
	primeFiles(t, f, files)
	s := NewScanner(dir)
	if _, err := s.Scan(); err != nil {
		t.Fatal(err)
	}
	// Encrypt everything, then scan.
	for _, p := range files {
		encryptFile(t, p)
	}
	events, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events after encryption")
	}
	if err := f.Apply(context.Background(), events); err != nil {
		t.Fatal(err)
	}
	rep := report(sess)
	if len(sess.Detections()) == 0 || !alerted {
		t.Fatalf("no alert after bulk encryption (score %.1f)", rep.Score)
	}
	if !rep.Union {
		t.Fatalf("union indication missing (score %.1f)", rep.Score)
	}
	const series = "engine_content_read_failures_total"
	if got := reg.Counter(series).Value(); got != 0 {
		t.Fatalf("%s = %d: the engine read content the feeder did not stage", series, got)
	}
}

func TestFeederQuietOnBenignEdits(t *testing.T) {
	dir := writeTree(t, 30)
	files := listFiles(t, dir)
	f, sess := newFeeder(t, nil)
	primeFiles(t, f, files)
	// Benign edits: append same-type content to a few files.
	for i, p := range files {
		if i >= 5 {
			break
		}
		content, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		content = append(content, []byte(" appended note about the meeting")...)
		change(t, f, p, content, EventModified)
	}
	score := report(sess).Score
	if len(sess.Detections()) != 0 {
		t.Fatalf("alert on benign edits (score %.1f)", score)
	}
	if score > 50 {
		t.Fatalf("benign edit score %.1f too high", score)
	}
}

func TestFeederDeletionsScore(t *testing.T) {
	f, sess := newFeeder(t, nil)
	deleteN(t, f, 10)
	// Deleting pre-existing user data scores the engine's Deletion points
	// per file — no second points table.
	want := 10 * core.DefaultPoints().Deletion
	if got := report(sess).Score; got != want {
		t.Fatalf("deletion score = %.1f, want %.1f", got, want)
	}
}

// TestFeederOwnFileDeletionScoresLow pins a behaviour unified with the
// engine: deleting a file the watched actor itself created (temp churn) is
// ordinary behaviour and scores far lower than destroying pre-existing data.
func TestFeederOwnFileDeletionScoresLow(t *testing.T) {
	f, sess := newFeeder(t, nil)
	change(t, f, "/x/tmp.swp", []byte("scratch scratch scratch"), EventCreated)
	base := report(sess).Score
	if err := f.Delete(context.Background(), "/x/tmp.swp"); err != nil {
		t.Fatal(err)
	}
	got := report(sess).Score - base
	if want := core.DefaultPoints().DeletionOwn; got != want {
		t.Fatalf("own-file deletion scored %.1f, want %.1f", got, want)
	}
}

// TestFeederSessionConfigMatchesEngine is the anti-drift pin: the live
// session runs the engine's own defaults, derived from core.DefaultConfig
// rather than a second table that can drift, changed only in the two
// settings the payload-blind backend dictates — whatever the caller asked.
func TestFeederSessionConfigMatchesEngine(t *testing.T) {
	want := core.DefaultConfig("")
	want.NewCipherWithoutDelta = true
	want.Workers = 0
	if got := FeederSessionConfig(nil); !reflect.DeepEqual(got, host.SessionConfig{Engine: want}) {
		t.Fatalf("feeder session config diverges from core.DefaultConfig:\n got: %+v\nwant: %+v", got.Engine, want)
	}
	in := core.DefaultConfig("")
	in.Workers = 4
	got := FeederSessionConfig(&in).Engine
	if !got.NewCipherWithoutDelta {
		t.Fatal("payload-blind backend must set NewCipherWithoutDelta")
	}
	if got.Workers != 0 {
		t.Fatal("feeder sessions must pin Workers to 0: content is staged per op")
	}
}

// TestFeederEngineConfigZeroMeansZero pins that the caller's engine config
// is used as-is: an indicator set to 0 points really is disabled, not
// replaced by its default.
func TestFeederEngineConfigZeroMeansZero(t *testing.T) {
	ecfg := core.DefaultConfig("")
	ecfg.Points.Deletion = 0
	ecfg.Points.DeletionOwn = 0
	f, sess := newFeeder(t, &ecfg)
	deleteN(t, f, 10)
	if got := report(sess).Score; got != 0 {
		t.Fatalf("deletions scored %.1f with Deletion points explicitly 0", got)
	}
	if got := sess.Engine().Config().Points.Deletion; got != 0 {
		t.Fatalf("explicit zero replaced by default %g", got)
	}
}

func TestFeederNewCipherFiles(t *testing.T) {
	f, sess := newFeeder(t, nil)
	enc := make([]byte, 8192)
	if _, err := rand.Read(enc); err != nil {
		t.Fatal(err)
	}
	change(t, f, "/docs/a.txt.locked", enc, EventCreated)
	if got := report(sess).Score; got != 3 {
		t.Fatalf("new-cipher score = %.1f, want 3", got)
	}
	// A typed new file (plain text) scores nothing.
	f2, sess2 := newFeeder(t, nil)
	change(t, f2, "/docs/notes.txt", []byte("hello hello hello hello"), EventCreated)
	if got := report(sess2).Score; got != 0 {
		t.Fatalf("typed new file scored %.1f", got)
	}
}

// TestFeederWatchEndToEnd runs the poll loop over a real directory while
// the tree is encrypted underneath it.
func TestFeederWatchEndToEnd(t *testing.T) {
	dir := writeTree(t, 40)
	alerts := make(chan core.Detection, 1)
	ecfg := core.DefaultConfig("")
	ecfg.OnDetection = func(d core.Detection) {
		select {
		case alerts <- d:
		default:
		}
	}
	f, sess := newFeeder(t, &ecfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := NewScanner(dir)
	if _, err := src.Scan(); err != nil {
		t.Fatal(err)
	}
	if err := f.PrimeTree(ctx, dir); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Watch(ctx, src, 20*time.Millisecond) }()
	// Simulate the attack while the feeder polls.
	for _, p := range listFiles(t, dir) {
		encryptFile(t, p)
	}
	select {
	case d := <-alerts:
		if d.Score < 140 {
			t.Fatalf("alert score %.1f too low", d.Score)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no alert within deadline (score %.1f)", report(sess).Score)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Watch returned %v after cancel, want context.Canceled", err)
	}
}

// TestFeederWatchStops pins both ways a poll loop ends: cancelling its
// context, and its session closing underneath it.
func TestFeederWatchStops(t *testing.T) {
	dir := writeTree(t, 5)
	h := host.New(host.Config{})
	sess, err := h.Open("live", FeederSessionConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFeeder(sess)
	src := NewScanner(dir)
	if _, err := src.Scan(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Watch(ctx, src, 10*time.Millisecond) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Watch returned %v after cancel, want context.Canceled", err)
	}

	go func() { done <- f.Watch(context.Background(), src, 10*time.Millisecond) }()
	if _, err := h.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "late.txt"), []byte("late"), 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, host.ErrSessionClosed) {
			t.Fatalf("Watch returned %v after its session closed, want ErrSessionClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Watch kept running after its session closed")
	}
}
