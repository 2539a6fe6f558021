package versioned_test

import (
	"bytes"
	"fmt"
	"testing"

	"cryptodrop/internal/vfs"
	"cryptodrop/internal/vfs/versioned"
)

// benchFS builds a filesystem with n pre-populated 16 KiB files and arms it
// with a fresh versioned store.
func benchFS(b *testing.B, n int) (*vfs.FS, *versioned.Store, []string) {
	b.Helper()
	fs := vfs.New()
	if err := fs.MkdirAll("/d"); err != nil {
		b.Fatal(err)
	}
	data := bytes.Repeat([]byte("x"), 16*1024)
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d/f%04d", i)
		if err := fs.WriteFile(1, paths[i], data); err != nil {
			b.Fatal(err)
		}
	}
	store := versioned.NewStore(0)
	fs.WrapMounts(func(_ string, bk vfs.Backend) vfs.Backend {
		return versioned.Wrap(bk, store)
	})
	return fs, store, paths
}

// BenchmarkVersionedWriteExempt measures the wrapper's pure delegation cost:
// the writing group is exempt, so every write skips capture. Compare against
// internal/vfs BenchmarkWriteFileUnfiltered for the wrap overhead.
func BenchmarkVersionedWriteExempt(b *testing.B) {
	fs, store, paths := benchFS(b, 1)
	store.Exempt(2)
	data := bytes.Repeat([]byte("y"), 16*1024)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteFile(2, paths[0], data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVersionedWriteRetained measures the steady-state cost for an
// unclear (retained) group whose pre-image for the file is already held:
// every write after the first hits the first-capture-wins map and skips the
// copy.
func BenchmarkVersionedWriteRetained(b *testing.B) {
	fs, _, paths := benchFS(b, 1)
	data := bytes.Repeat([]byte("y"), 16*1024)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteFile(2, paths[0], data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVersionedWriteFirstCapture measures the full pre-image capture cost per
// write: the group is released every iteration so each write re-captures the
// 16 KiB pre-image (read + copy + store insert + drop).
func BenchmarkVersionedWriteFirstCapture(b *testing.B) {
	fs, store, paths := benchFS(b, 1)
	data := bytes.Repeat([]byte("y"), 16*1024)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteFile(2, paths[0], data); err != nil {
			b.Fatal(err)
		}
		store.Release(2)
	}
}

// BenchmarkRecoveryRollback measures end-to-end rollback throughput: restore
// 256 retained 16 KiB pre-images into the filesystem by stable ID.
func BenchmarkRecoveryRollback(b *testing.B) {
	const files = 256
	enc := bytes.Repeat([]byte("e"), 16*1024)
	b.SetBytes(files * 16 * 1024)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs, store, paths := benchFS(b, files)
		for _, p := range paths {
			if err := fs.WriteFile(2, p, enc); err != nil {
				b.Fatal(err)
			}
		}
		imgs := store.Take(2)
		if len(imgs) != files {
			b.Fatalf("retained %d, want %d", len(imgs), files)
		}
		b.StartTimer()
		for _, img := range imgs {
			if err := fs.RestoreFileRawByID(img.ID, img.Data); err != nil {
				b.Fatal(err)
			}
		}
	}
}
