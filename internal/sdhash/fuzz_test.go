package sdhash

import (
	"slices"
	"testing"
)

func FuzzComputeCompare(f *testing.F) {
	f.Add([]byte("hello world"), []byte("hello mars"))
	f.Add(make([]byte, 600), make([]byte, 600))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		da, errA := Compute(a)
		db, errB := Compute(b)
		if errA != nil || errB != nil {
			return
		}
		s1 := da.Compare(db)
		s2 := db.Compare(da)
		if s1 != s2 {
			t.Fatalf("asymmetric: %d vs %d", s1, s2)
		}
		if s1 < 0 || s1 > 100 {
			t.Fatalf("score out of range: %d", s1)
		}
	})
}

func FuzzUnmarshalText(f *testing.F) {
	d, err := Compute(genText(1, 4096))
	if err == nil {
		if text, err := d.MarshalText(); err == nil {
			f.Add(string(text))
		}
	}
	f.Add("cdsd:1:0:0:0")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, s string) {
		var d Digest
		_ = d.UnmarshalText([]byte(s)) // must never panic
	})
}

// FuzzSelectFeaturesMatchReference requires the integer-rank skip-ahead
// selection to pick the float-chain oracle's offsets, allowing only the
// boundary-partition divergence that referenceSelection adjudicates.
func FuzzSelectFeaturesMatchReference(f *testing.F) {
	f.Add(genText(1, 4096))
	f.Add(benchInput(8 << 10))
	f.Add(genRandom(2, 2048))
	f.Add(append(genText(15, 100), boundaryWindow()...))
	f.Add(append(append(genText(3, 700), genRandom(4, 700)...), make([]byte, 300)...))
	f.Add([]byte("short"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, _, err := referenceSelection(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := selectFeatures(data); !slices.Equal(got, want) {
			t.Fatalf("selected %v, oracle %v", got, want)
		}
	})
}
