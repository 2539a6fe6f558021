package sdhash_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"cryptodrop/internal/corpus"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/sdhash"
	"cryptodrop/internal/vfs"
)

// corpusFormats is every extension corpus.Generate has a generator for.
var corpusFormats = []string{
	"txt", "md", "log", "csv", "html", "xml", "json", "rtf", "pdf",
	"docx", "xlsx", "pptx", "odt", "doc", "xls", "ppt",
	"jpg", "png", "gif", "mp3", "wav", "zip",
}

// matchReference fails t unless data's selected offsets and its digest
// (or digest error) equal the float-chain oracle's, as adjudicated on
// boundary-partition windows. It returns how many windows the oracle
// misranked.
func matchReference(t *testing.T, name string, data []byte) int {
	t.Helper()
	want, misranked, err := sdhash.ReferenceSelection(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := sdhash.SelectFeatures(data); !slices.Equal(got, want) {
		t.Fatalf("%s (%d B): selected %d offsets, oracle %d; first difference at %d",
			name, len(data), len(got), len(want), firstDiff(got, want))
	}
	d, err := sdhash.Compute(data)
	rd, rerr := sdhash.ComputeReference(data)
	if err != rerr {
		t.Fatalf("%s: Compute error %v, oracle %v", name, err, rerr)
	}
	if err == nil {
		text, _ := d.MarshalText()
		rtext, _ := rd.MarshalText()
		if !bytes.Equal(text, rtext) {
			t.Fatalf("%s: digest bytes differ from the oracle's", name)
		}
	}
	return misranked
}

func firstDiff(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestSelectFeaturesMatchReference requires byte-equal digests from the
// integer-rank skip-ahead selection and the float-chain oracle on every
// corpus format, on random, text and document-like input up to 1 MiB, and
// on what every Table I family leaves behind.
func TestSelectFeaturesMatchReference(t *testing.T) {
	inputs, windows, misranked := 0, 0, 0
	check := func(name string, data []byte) {
		inputs++
		windows += max(len(data)-sdhash.WindowSize+1, 0)
		misranked += matchReference(t, name, data)
	}
	defer func() {
		t.Logf("%d inputs, %d windows; the oracle misranked %d boundary-partition windows", inputs, windows, misranked)
	}()
	for _, ext := range corpusFormats {
		for i, size := range []int{600, 8 << 10, 96 << 10} {
			check(fmt.Sprintf("corpus %s #%d", ext, i), corpus.Generate(ext, int64(i+1), size))
		}
	}
	for i, size := range []int{512, 4 << 10, 64 << 10, 1 << 20} {
		seed := int64(i + 40)
		check(fmt.Sprintf("random %d", size), sdhash.GenRandom(seed, size))
		check(fmt.Sprintf("text %d", size), sdhash.GenText(seed, size))
		check(fmt.Sprintf("bench %d", size), sdhash.BenchInput(size))
	}

	// One sample of each family and class, each run over its own small
	// corpus; every file left afterwards (ciphertext, moved or new copies,
	// ransom notes, untouched originals) is checked.
	seen := map[string]bool{}
	for _, s := range ransomware.Roster(7) {
		key := s.Profile.Family + "/" + s.Profile.Class.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		fs := vfs.New()
		m, err := corpus.Build(fs, corpus.Spec{Seed: 5, Files: 24, Dirs: 4, SizeScale: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(fs, 100, m.Root, nil); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		files := 0
		err = fs.Walk("/", func(info vfs.FileInfo) error {
			if info.IsDir {
				return nil
			}
			data, err := fs.ReadFileRaw(info.Path)
			if err != nil {
				return err
			}
			check(key+" "+info.Path, data)
			files++
			return nil
		})
		if err != nil || files == 0 {
			t.Fatalf("%s: walked %d files: %v", key, files, err)
		}
	}
	if families := len(ransomware.FamilyNames()); len(seen) < families {
		t.Fatalf("covered %d family/class pairs, want at least the %d families", len(seen), families)
	}
}
