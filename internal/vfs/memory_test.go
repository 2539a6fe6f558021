package vfs_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"cryptodrop/internal/vfs"
	"cryptodrop/internal/vfs/versioned"
)

// backends are the two mounts a write reaches Memory through: a plain
// Memory mount, and the versioned wrap that every recovering Monitor
// installs over it.
var backends = []struct {
	name  string
	newFS func() *vfs.FS
}{
	{"plain", vfs.New},
	{"versioned", func() *vfs.FS {
		fs := vfs.New()
		store := versioned.NewStore(0)
		fs.WrapMounts(func(_ string, b vfs.Backend) vfs.Backend { return versioned.Wrap(b, store) })
		return fs
	}},
}

// appendChunked creates p and appends total bytes of fill to it, chunk
// bytes per write.
func appendChunked(tb testing.TB, fs *vfs.FS, p string, fill byte, total, chunk int) {
	tb.Helper()
	h, err := fs.Create(1, p)
	if err != nil {
		tb.Fatal(err)
	}
	buf := bytes.Repeat([]byte{fill}, chunk)
	for n := 0; n < total; n += chunk {
		if _, err := h.Write(buf); err != nil {
			tb.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		tb.Fatal(err)
	}
}

// writeAt opens p for writing and writes data at off.
func writeAt(t *testing.T, fs *vfs.FS, p string, off int64, data []byte) {
	t.Helper()
	h, err := fs.Open(1, p, vfs.WriteOnly)
	if err != nil {
		t.Fatal(err)
	}
	h.SeekTo(off)
	if _, err := h.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// wantContent checks p's content through a filtered read.
func wantContent(t *testing.T, fs *vfs.FS, p string, want []byte) {
	t.Helper()
	got, err := fs.ReadFile(1, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s holds %d bytes %q..., want %d bytes %q...", p, len(got), head(got), len(want), head(want))
	}
}

func head(b []byte) []byte { return b[:min(len(b), 16)] }

// concat joins byte slices into a new one.
func concat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// wantSpare fails the test unless the file at p has at least n bytes of
// spare capacity, so that the case under test has something to protect.
func wantSpare(t *testing.T, fs *vfs.FS, p string, n int) {
	t.Helper()
	if got := vfs.SpareBytes(fs, p); got < n {
		t.Fatalf("%s has %d spare bytes, want at least %d", p, got, n)
	}
}

// TestAppendChunkedAllocatesLinearly appends 4 MiB in 8 KiB chunks through
// both write routes. Growing by append's rule allocates a geometric series
// whose 1.25x tail sums to about five times the final size; copying the
// whole file on every append allocates about total/(2*chunk) = 256 times
// it.
func TestAppendChunkedAllocatesLinearly(t *testing.T) {
	const total, chunk, maxRatio = 4 << 20, 8 << 10, 6
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			fs := bk.newFS()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			appendChunked(t, fs, "/f", 'a', total, chunk)
			runtime.ReadMemStats(&after)
			if info, err := fs.Stat("/f"); err != nil || info.Size != total {
				t.Fatalf("Stat = %+v, %v; want size %d", info, err, total)
			}
			if ratio := float64(after.TotalAlloc-before.TotalAlloc) / total; ratio > maxRatio {
				t.Errorf("appending %d bytes allocated %.1fx the final size, want at most %dx", total, ratio, maxRatio)
			}
		})
	}
}

// readTap keeps the Data of the last read it sees.
type readTap struct{ data []byte }

func (r *readTap) PreOp(*vfs.Op) error { return nil }

func (r *readTap) PostOp(op *vfs.Op) {
	if op.Kind == vfs.OpRead {
		r.data = op.Data
	}
}

// TestReadAliasesCannotReachSpareCapacity appends to the aliasing slices
// Memory.Read and Handle.Read hand out, then extends the file over the
// spare capacity behind them: the extension must read as zeros, not as the
// caller's appended bytes.
func TestReadAliasesCannotReachSpareCapacity(t *testing.T) {
	body := bytes.Repeat([]byte{'o'}, 3000)
	want := concat(body, []byte{0, 'y'})

	t.Run("Memory.Read", func(t *testing.T) {
		m := vfs.NewMemory()
		if err := m.Open(1, "/f", true, false); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(body); off += 1000 {
			if _, err := m.Write(1, int64(off), body[off:off+1000]); err != nil {
				t.Fatal(err)
			}
		}
		if got := vfs.MemorySpareBytes(m, 1); got < 2 {
			t.Fatalf("%d spare bytes, want at least 2", got)
		}
		got, size, err := m.Read(1, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		_ = append(got, 'X')
		if _, err := m.Write(1, size+1, []byte{'y'}); err != nil {
			t.Fatal(err)
		}
		if got, _, _ := m.Read(1, 0, -1); !bytes.Equal(got, want) {
			t.Errorf("after a caller's append and a sparse write the file ends %q, want %q", got[len(body):], want[len(body):])
		}
	})
	for _, bk := range backends {
		t.Run("Handle.Read/"+bk.name, func(t *testing.T) {
			fs := bk.newFS()
			appendChunked(t, fs, "/f", 'o', len(body), 1000)
			wantSpare(t, fs, "/f", 2)
			tap := &readTap{}
			fs.SetInterceptor(tap)
			h, err := fs.Open(1, "/f", vfs.ReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := h.Read(make([]byte, 2*len(body))); err != nil || n != len(body) {
				t.Fatalf("Read = %d, %v; want %d", n, err, len(body))
			}
			_ = append(tap.data, 'X')
			h.SeekTo(int64(len(body)) + 1)
			if _, err := h.Write([]byte{'y'}); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			fs.SetInterceptor(nil)
			wantContent(t, fs, "/f", want)
		})
	}
}

// TestCloneAppendsStayIndependent appends past the old length on both
// sides of an FS.Clone, within the spare capacity they share: each side
// must see only its own bytes.
func TestCloneAppendsStayIndependent(t *testing.T) {
	body := bytes.Repeat([]byte{'o'}, 3000)
	a, b := bytes.Repeat([]byte{'A'}, 100), bytes.Repeat([]byte{'B'}, 100)
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			fs := bk.newFS()
			appendChunked(t, fs, "/f", 'o', len(body), 1000)
			wantSpare(t, fs, "/f", len(a))
			clone := fs.Clone()
			writeAt(t, fs, "/f", int64(len(body)), a)
			writeAt(t, clone, "/f", int64(len(body)), b)
			wantContent(t, fs, "/f", concat(body, a))
			wantContent(t, clone, "/f", concat(body, b))
		})
	}
}

// TestSparseWriteAfterGrowthReadsZeros writes past the end of a grown file,
// first within its spare capacity and then beyond it: both gaps read as
// zeros.
func TestSparseWriteAfterGrowthReadsZeros(t *testing.T) {
	body := bytes.Repeat([]byte{'o'}, 3000)
	gap := make([]byte, 10)
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			fs := bk.newFS()
			appendChunked(t, fs, "/f", 'o', len(body), 1000)
			wantSpare(t, fs, "/f", len(gap)+1)
			writeAt(t, fs, "/f", int64(len(body)+len(gap)), []byte{'y'})
			want := concat(body, gap, []byte{'y'})
			wantContent(t, fs, "/f", want)

			far := make([]byte, vfs.SpareBytes(fs, "/f")+100)
			writeAt(t, fs, "/f", int64(len(want)+len(far)), []byte{'z'})
			wantContent(t, fs, "/f", concat(want, far, []byte{'z'}))
		})
	}
}

// TestTruncateThenShorterRewriteExposesNoOldBytes rewrites a grown file
// shorter through a truncating open, then writes past the new end: neither
// the rewrite nor the gap may show the old content.
func TestTruncateThenShorterRewriteExposesNoOldBytes(t *testing.T) {
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			fs := bk.newFS()
			appendChunked(t, fs, "/f", 'o', 3000, 1000)
			if err := fs.WriteFile(1, "/f", []byte("new")); err != nil {
				t.Fatal(err)
			}
			wantContent(t, fs, "/f", []byte("new"))
			writeAt(t, fs, "/f", 20, []byte{'y'})
			wantContent(t, fs, "/f", concat([]byte("new"), make([]byte, 17), []byte{'y'}))
		})
	}
}

// TestWritesMatchModel drives random overwrites, extending writes, appends,
// sparse writes, truncations and clones through both write routes and
// checks every state, and every clone at the end, against a byte-slice
// model.
func TestWritesMatchModel(t *testing.T) {
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			fs := bk.newFS()
			if err := fs.WriteFile(1, "/f", nil); err != nil {
				t.Fatal(err)
			}
			var model []byte
			type snapshot struct {
				fs   *vfs.FS
				want []byte
			}
			var snaps []snapshot
			for i := 0; i < 400; i++ {
				switch r := rng.Intn(20); {
				case r == 0:
					snaps = append(snaps, snapshot{fs.Clone(), bytes.Clone(model)})
				case r == 1:
					if err := fs.WriteFile(1, "/f", nil); err != nil {
						t.Fatal(err)
					}
					model = nil
				default:
					off := int64(len(model))
					if r > 5 {
						off = rng.Int63n(off + 64)
					}
					data := make([]byte, rng.Intn(2048))
					rng.Read(data)
					writeAt(t, fs, "/f", off, data)
					if need := int(off) + len(data); need > len(model) {
						model = append(model, make([]byte, need-len(model))...)
					}
					copy(model[off:], data)
				}
				wantContent(t, fs, "/f", model)
			}
			for _, s := range snaps {
				wantContent(t, s.fs, "/f", s.want)
			}
		})
	}
}

// BenchmarkMemoryAppendChunked appends 1 MiB in 8 KiB chunks to a file
// that a truncating create empties each iteration, through both write
// routes.
func BenchmarkMemoryAppendChunked(b *testing.B) {
	const total, chunk = 1 << 20, 8 << 10
	for _, bk := range backends {
		b.Run(bk.name, func(b *testing.B) {
			fs := bk.newFS()
			b.ReportAllocs()
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				appendChunked(b, fs, "/f", 'a', total, chunk)
			}
		})
	}
}
