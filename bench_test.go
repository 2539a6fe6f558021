package cryptodrop_test

// Benchmarks regenerating each table and figure of the paper's evaluation
// (§V). Each benchmark runs the corresponding experiment on a reduced
// configuration and reports the headline result as a custom metric, so
// `go test -bench` doubles as a quick reproduction check; `cmd/cdbench`
// runs the same experiments at full paper scale.

import (
	"io"
	"math"
	"testing"

	"cryptodrop"
	"cryptodrop/internal/benign"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/experiments"
	"cryptodrop/internal/proc"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/vfs"
)

// benchSpec is the reduced corpus used by the table/figure benchmarks.
var benchSpec = corpus.Spec{Seed: 2016, Files: 600, Dirs: 60, SizeScale: 0.3}

// benchRoster returns one specimen per family/class combination.
func benchRoster() []ransomware.Sample {
	seen := make(map[string]bool)
	var out []ransomware.Sample
	for _, s := range ransomware.Roster(2016) {
		key := s.Profile.Family + s.Profile.Class.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	return out
}

// runBenchRoster executes the reduced roster once.
func runBenchRoster(b *testing.B) []experiments.SampleOutcome {
	b.Helper()
	r, err := experiments.NewRunner(benchSpec)
	if err != nil {
		b.Fatal(err)
	}
	outcomes, err := r.RunRoster(benchRoster(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return outcomes
}

// BenchmarkTable1FamilyDetection regenerates Table I: the per-family
// detection run. Reported metric: overall median files lost.
func BenchmarkTable1FamilyDetection(b *testing.B) {
	var medianFL float64
	for i := 0; i < b.N; i++ {
		outcomes := runBenchRoster(b)
		tbl := experiments.BuildTable1(outcomes)
		if tbl.DetectionRate != 1.0 {
			b.Fatalf("detection rate %.2f", tbl.DetectionRate)
		}
		medianFL = tbl.OverallMedianFilesLost
	}
	b.ReportMetric(medianFL, "median-files-lost")
}

// BenchmarkFig3DataLossCDF regenerates the Figure 3 cumulative
// distribution. Reported metric: maximum files lost.
func BenchmarkFig3DataLossCDF(b *testing.B) {
	var maxFL float64
	for i := 0; i < b.N; i++ {
		f := experiments.BuildFig3(runBenchRoster(b))
		if err := f.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		maxFL = float64(f.Max)
	}
	b.ReportMetric(maxFL, "max-files-lost")
}

// BenchmarkFig4TraversalTrees regenerates the Figure 4 directory-access
// trees for the three traversal exemplars.
func BenchmarkFig4TraversalTrees(b *testing.B) {
	r, err := experiments.NewRunner(benchSpec)
	if err != nil {
		b.Fatal(err)
	}
	var picks []ransomware.Sample
	for _, s := range ransomware.Roster(2016) {
		switch {
		case s.Profile.Family == "TeslaCrypt" && s.Profile.Class == ransomware.ClassA,
			s.Profile.Family == "CTB-Locker" && s.Profile.Class == ransomware.ClassB,
			s.Profile.Family == "GPcode" && s.Profile.Class == ransomware.ClassC:
			if len(picks) < 3 {
				picks = append(picks, s)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range picks {
			out, err := r.RunSample(s)
			if err != nil {
				b.Fatal(err)
			}
			tree, err := experiments.BuildFig4Tree(r.CloneFS(), r.Manifest().Root, out)
			if err != nil {
				b.Fatal(err)
			}
			if err := tree.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5ExtensionFrequency regenerates the Figure 5 extension
// attack-frequency chart.
func BenchmarkFig5ExtensionFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.BuildFig5(runBenchRoster(b))
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		if err := experiments.RenderFig5(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6FalsePositives regenerates the Figure 6 benign threshold
// sweep. Reported metric: false positives at the 200-point threshold.
func BenchmarkFig6FalsePositives(b *testing.B) {
	r, err := experiments.NewRunner(benchSpec)
	if err != nil {
		b.Fatal(err)
	}
	var fpAt200 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var apps []experiments.BenignOutcome
		for _, w := range benign.Detailed() {
			out, err := r.RunBenign(w)
			if err != nil {
				b.Fatal(err)
			}
			apps = append(apps, out)
		}
		f := experiments.BuildFig6(apps, []float64{0, 50, 100, 150, 200, 250})
		fpAt200 = float64(f.FalsePositives[4])
	}
	b.ReportMetric(fpAt200, "fp-at-200")
}

// BenchmarkUnionIndicatorAnalysis regenerates the §V-B2 union-effectiveness
// analysis. Reported metric: fraction of samples achieving union.
func BenchmarkUnionIndicatorAnalysis(b *testing.B) {
	var unionRate float64
	for i := 0; i < b.N; i++ {
		s := experiments.BuildUnionStats(runBenchRoster(b))
		unionRate = float64(s.WithUnion) / float64(s.Total)
	}
	b.ReportMetric(unionRate, "union-rate")
}

// BenchmarkSmallFileRerun regenerates the §V-C CTB-Locker small-file
// comparison. Reported metric: files lost saved by removing small files.
func BenchmarkSmallFileRerun(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSmallFileExperiment(benchSpec, 2016)
		if err != nil {
			b.Fatal(err)
		}
		saved = float64(res.LostWithSmall - res.LostWithoutSmall)
	}
	b.ReportMetric(saved, "files-saved")
}

// --- §V-H per-operation latency overhead -------------------------------
//
// The paper reports the added latency of CryptoDrop per filesystem
// operation: <1ms for open/read, 1.58ms close, 9ms write, 16ms rename.
// The pairs below measure the same overheads in this implementation:
// compare the Monitored and Unmonitored variants of each op.

// opBench sets up a corpus-loaded FS; monitored selects whether CryptoDrop
// is attached.
func opBench(b *testing.B, monitored bool) (*vfs.FS, int, string) {
	b.Helper()
	fs := vfs.New()
	m, err := corpus.Build(fs, corpus.Spec{Seed: 50, Files: 200, Dirs: 20, SizeScale: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	pid := 1
	if monitored {
		procs := proc.NewTable()
		if _, err := cryptodrop.NewMonitor(fs, procs, cryptodrop.WithRoot(m.Root), cryptodrop.WithoutEnforcement()); err != nil {
			b.Fatal(err)
		}
		pid = procs.Spawn("bench")
	}
	return fs, pid, m.Entries[len(m.Entries)/2].Path
}

func benchOpen(b *testing.B, monitored bool) {
	fs, pid, target := opBench(b, monitored)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := fs.Open(pid, target, vfs.ReadOnly)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpLatencyOpenUnmonitored(b *testing.B) { benchOpen(b, false) }
func BenchmarkOpLatencyOpenMonitored(b *testing.B)   { benchOpen(b, true) }

func benchRead(b *testing.B, monitored bool) {
	fs, pid, target := opBench(b, monitored)
	buf := make([]byte, 64<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := fs.Open(pid, target, vfs.ReadOnly)
		if err != nil {
			b.Fatal(err)
		}
		for {
			n, err := h.Read(buf)
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpLatencyReadUnmonitored(b *testing.B) { benchRead(b, false) }
func BenchmarkOpLatencyReadMonitored(b *testing.B)   { benchRead(b, true) }

func benchWrite(b *testing.B, monitored bool) {
	fs, pid, target := opBench(b, monitored)
	payload := corpus.Generate("docx", 9, 32<<10)
	_ = target
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := fs.Open(pid, "/Users/victim/Documents/bench_scratch.docx", vfs.WriteOnly|vfs.Create|vfs.Truncate)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Write(payload); err != nil {
			b.Fatal(err)
		}
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpLatencyWriteUnmonitored(b *testing.B) { benchWrite(b, false) }
func BenchmarkOpLatencyWriteMonitored(b *testing.B)   { benchWrite(b, true) }

func benchRename(b *testing.B, monitored bool) {
	fs, pid, target := opBench(b, monitored)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.Rename(pid, target, target+".tmp"); err != nil {
			b.Fatal(err)
		}
		if err := fs.Rename(pid, target+".tmp", target); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpLatencyRenameUnmonitored(b *testing.B) { benchRename(b, false) }
func BenchmarkOpLatencyRenameMonitored(b *testing.B)   { benchRename(b, true) }

// BenchmarkAblationUnionOnOff compares detection speed with and without
// union indication (ablation 1 of DESIGN.md). Reported metric: extra median
// files lost without union.
func BenchmarkAblationUnionOnOff(b *testing.B) {
	roster := benchRoster()[:8]
	var extra float64
	for i := 0; i < b.N; i++ {
		run := func(opts ...cryptodrop.Option) float64 {
			r, err := experiments.NewRunner(benchSpec, opts...)
			if err != nil {
				b.Fatal(err)
			}
			outcomes, err := r.RunRoster(roster, nil)
			if err != nil {
				b.Fatal(err)
			}
			return experiments.BuildTable1(outcomes).OverallMedianFilesLost
		}
		with := run()
		without := run(cryptodrop.WithPolicy(&cryptodrop.MajorityPolicy{Quorum: math.MaxInt}))
		extra = without - with
	}
	b.ReportMetric(extra, "extra-files-lost-without-union")
}

// BenchmarkEndToEndDetection measures the wall-clock cost of one complete
// detect-and-suspend cycle (corpus clone, monitor attach, sample run).
func BenchmarkEndToEndDetection(b *testing.B) {
	r, err := experiments.NewRunner(benchSpec)
	if err != nil {
		b.Fatal(err)
	}
	sample := benchRoster()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := r.RunSample(sample)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Detected {
			b.Fatal("not detected")
		}
	}
}
