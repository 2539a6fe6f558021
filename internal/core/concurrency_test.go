package core

// Concurrency regression tests for the engine lock. Production engines have
// one writer, but every method stays safe for concurrent use. Run with
// -race: these tests exist to catch lock-window regressions (a delete
// racing the content read of a completed rewrite) and unguarded state, not
// to assert timing.

import (
	"fmt"
	"sync"
	"testing"

	"cryptodrop/internal/corpus"
	"cryptodrop/internal/vfs"
)

// TestConcurrentDeleteCloseSameFile is the regression test for the old
// readRaw unlock/relock window: PostOp used to release the engine-wide lock
// to read the rewritten file's content and then re-acquire it, so a
// concurrent delete of the same file ID could mutate the file cache inside
// a window the close handler believed was covered by its lock. The engine
// now reads content before taking the engine lock; a delete racing the
// read must leave the engine consistent — the close either sees the content
// (and scores the transformation) or sees a read error (and scores
// nothing), never a torn state.
func TestConcurrentDeleteCloseSameFile(t *testing.T) {
	fs, eng := setup(t, DefaultConfig(testRoot))
	p := testRoot + "/contended.docx"
	content := corpus.Generate("docx", 99, 8192)

	const rounds = 300
	var wg sync.WaitGroup
	wg.Add(2)
	start := make(chan struct{})

	// Writer: rewrite and close the file as pid 1.
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			h, err := fs.Open(1, p, vfs.WriteOnly|vfs.Create)
			if err != nil {
				continue // deleted out from under us; recreated next round
			}
			h.Write(keystream(int64(i), 4096))
			h.Close()
		}
	}()
	// Deleter: remove and recreate the same path as pid 2, churning the
	// file ID the writer is closing against.
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			fs.Delete(2, p)
			fs.WriteFile(2, p, content)
		}
	}()
	close(start)
	wg.Wait()

	// The engine must still be consistent and serviceable.
	for _, pid := range []int{1, 2} {
		if _, ok := eng.Report(pid); !ok {
			t.Fatalf("no report for pid %d after contended run", pid)
		}
	}
}

// TestConcurrentPostOpDistinctProcesses drives the full detection hot path
// from many goroutines, each acting as its own process on its own file: the
// scoreboard must keep every process's bookkeeping isolated, and every
// transformation must land exactly once.
func TestConcurrentPostOpDistinctProcesses(t *testing.T) {
	cfg := DefaultConfig(testRoot)
	fs, eng := setup(t, cfg)

	const procs = 16
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		pid := 100 + g
		p := fmt.Sprintf("%s/worker%02d.docx", testRoot, g)
		if err := fs.WriteFile(0, p, corpus.Generate("docx", int64(g), 8192)); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := tryEncryptInPlace(fs, pid, p); err != nil {
					t.Errorf("pid %d: %v", pid, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	for g := 0; g < procs; g++ {
		rep, ok := eng.Report(100 + g)
		if !ok {
			t.Fatalf("no report for pid %d", 100+g)
		}
		if rep.FilesTransformed != 5 {
			t.Errorf("pid %d: FilesTransformed = %d, want 5", 100+g, rep.FilesTransformed)
		}
		if rep.Score <= 0 {
			t.Errorf("pid %d: score = %v, want > 0 after repeated encryption", 100+g, rep.Score)
		}
	}
}
