//go:build linux

package livewatch

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// waitEvents polls the scanner until at least n events arrive or the
// deadline passes.
func waitEvents(t *testing.T, s *InotifyScanner, n int, deadline time.Duration) []Event {
	t.Helper()
	var all []Event
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		events, err := s.Scan()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, events...)
		if len(all) >= n {
			return all
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("only %d of %d events before deadline: %v", len(all), n, all)
	return nil
}

func TestInotifyScannerBasicEvents(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := NewInotifyScanner(dir)
	if err != nil {
		t.Skipf("inotify unavailable: %v", err)
	}
	defer s.Close()

	p := filepath.Join(dir, "sub", "f.txt")
	if err := os.WriteFile(p, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	events := waitEvents(t, s, 2, 3*time.Second) // create + close-write
	kinds := map[EventKind]bool{}
	for _, ev := range events {
		if ev.Path != p {
			t.Fatalf("event path %s, want %s", ev.Path, p)
		}
		kinds[ev.Kind] = true
	}
	if !kinds[EventCreated] || !kinds[EventModified] {
		t.Fatalf("kinds = %v", events)
	}

	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}
	events = waitEvents(t, s, 1, 3*time.Second)
	if events[len(events)-1].Kind != EventDeleted {
		t.Fatalf("events after remove: %v", events)
	}
}

func TestInotifyScannerFollowsNewDirectories(t *testing.T) {
	dir := t.TempDir()
	s, err := NewInotifyScanner(dir)
	if err != nil {
		t.Skipf("inotify unavailable: %v", err)
	}
	defer s.Close()

	sub := filepath.Join(dir, "newdir")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	// Give the read loop a beat to add the watch for the new directory.
	time.Sleep(50 * time.Millisecond)
	p := filepath.Join(sub, "inside.txt")
	if err := os.WriteFile(p, []byte("content"), 0o644); err != nil {
		t.Fatal(err)
	}
	events := waitEvents(t, s, 1, 3*time.Second)
	found := false
	for _, ev := range events {
		if ev.Path == p {
			found = true
		}
	}
	if !found {
		t.Fatalf("no event for file in new directory: %v", events)
	}
}

func TestInotifyWithFeederDetectsAttack(t *testing.T) {
	dir := writeTree(t, 40)
	s, err := NewInotifyScanner(dir)
	if err != nil {
		t.Skipf("inotify unavailable: %v", err)
	}
	defer s.Close()

	f, sess := newFeeder(t, nil)
	primeFiles(t, f, listFiles(t, dir))
	for _, p := range listFiles(t, dir) {
		encryptFile(t, p)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(sess.Detections()) == 0 {
		events, err := s.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Apply(context.Background(), events); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(sess.Detections()) == 0 {
		t.Fatalf("no alert via inotify (score %.1f)", report(sess).Score)
	}
}

func TestInotifyCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := NewInotifyScanner(dir)
	if err != nil {
		t.Skipf("inotify unavailable: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
