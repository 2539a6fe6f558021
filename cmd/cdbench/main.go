// Command cdbench regenerates every table and figure of the paper's
// evaluation (§V) against the synthetic corpus and simulated sample roster:
//
//	cdbench -exp table1     Table I   — 492 samples by family/class, median files lost
//	cdbench -exp fig3       Figure 3  — cumulative % of samples detected vs files lost
//	cdbench -exp fig4       Figure 4  — directory traversal patterns (TeslaCrypt/CTB-Locker/GPcode)
//	cdbench -exp fig5       Figure 5  — file-extension attack frequency
//	cdbench -exp fig6       Figure 6  — benign false positives vs threshold
//	cdbench -exp union      §V-B2    — union-indicator effectiveness
//	cdbench -exp smallfile  §V-C     — CTB-Locker rerun without sub-512B files
//	cdbench -exp perf       §V-H     — per-operation latency overhead
//	cdbench -exp ablation   DESIGN.md — engine design-choice ablations
//	cdbench -exp evasion    §III-F   — indicator-evasion strategies
//	cdbench -exp curves     §V-F     — reputation-score trajectories
//	cdbench -exp multiproc  §IV-A    — multi-process score dilution vs family scoring
//	cdbench -exp recovery   §VII      — files lost before vs after versioned-backend rollback
//	cdbench -exp paper      one roster run feeding Table I/Fig 3/Fig 5/union + the rest
//	cdbench -exp all        everything above
//
// By default the full paper scale is used (5,099 files, 511 directories,
// 492 samples); -quick runs a reduced configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"cryptodrop"
	"cryptodrop/internal/benign"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/experiments"
	"cryptodrop/internal/ransomware"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cdbench:", err)
		os.Exit(1)
	}
}

type config struct {
	exp     string
	seed    int64
	files   int
	dirs    int
	scale   float64
	samples int
	verbose bool
	dotOut  string
	quick   bool
	workers int
	jsonOut string
	// cacheMB sizes one measurement memo cache shared by the
	// roster-driven experiments (DESIGN.md "Measurement and memoization").
	cacheMB int
}

// monitorOpts translates -measure-cache-mb into monitor options for the
// experiment runners. A positive value builds one cache shared by every
// monitor in the run (the fleet-dedup configuration; the cache is safe for
// concurrent engines); otherwise each monitor memoizes in its own.
func (cfg config) monitorOpts() []cryptodrop.Option {
	if cfg.cacheMB <= 0 {
		return nil
	}
	return []cryptodrop.Option{cryptodrop.WithMeasureCache(cryptodrop.NewMeasureCache(int64(cfg.cacheMB) << 20))}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cdbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.exp, "exp", "all", "experiment: table1|fig3|fig4|fig5|fig6|union|smallfile|perf|ablation|evasion|recovery|paper|all")
	fs.Int64Var(&cfg.seed, "seed", 2016, "master seed for corpus and roster")
	fs.IntVar(&cfg.files, "files", corpus.DefaultFiles, "corpus file count")
	fs.IntVar(&cfg.dirs, "dirs", corpus.DefaultDirs, "corpus directory count")
	fs.Float64Var(&cfg.scale, "scale", 1.0, "corpus file-size scale")
	fs.IntVar(&cfg.samples, "samples", 0, "cap roster size (0 = full 492)")
	fs.BoolVar(&cfg.verbose, "v", false, "progress output")
	fs.StringVar(&cfg.dotOut, "dot", "", "also write Fig. 4 Graphviz files to this directory")
	fs.BoolVar(&cfg.quick, "quick", false, "reduced scale (800 files, 80 dirs, 1 sample per family/class)")
	fs.IntVar(&cfg.workers, "workers", runtime.NumCPU(), "parallel sample workers")
	fs.StringVar(&cfg.jsonOut, "json", "", "also export roster outcomes as JSON to this file")
	fs.IntVar(&cfg.cacheMB, "measure-cache-mb", 0, "measurement memo cache shared across the run's monitors, in MiB (0 = each monitor keeps its own memo)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.quick {
		cfg.files, cfg.dirs, cfg.scale = 800, 80, 0.3
	}
	spec := corpus.Spec{Seed: cfg.seed, Files: cfg.files, Dirs: cfg.dirs, SizeScale: cfg.scale}
	roster := buildRoster(cfg)

	experimentsByName := map[string]func(config, corpus.Spec, []ransomware.Sample) error{
		"table1":    expTable1,
		"fig3":      expFig3,
		"fig4":      expFig4,
		"fig5":      expFig5,
		"fig6":      expFig6,
		"union":     expUnion,
		"smallfile": expSmallFile,
		"perf":      expPerf,
		"ablation":  expAblation,
		"evasion":   expEvasion,
		"multiproc": expMultiProc,
		"curves":    expCurves,
		"recovery":  expRecovery,
		"paper":     expPaper,
	}
	if cfg.exp == "all" {
		for _, name := range []string{"table1", "fig3", "fig4", "fig5", "fig6", "union", "smallfile", "perf", "ablation", "evasion", "curves", "multiproc", "recovery"} {
			fmt.Printf("\n════════ %s ════════\n", name)
			if err := experimentsByName[name](cfg, spec, roster); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	fn, ok := experimentsByName[cfg.exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", cfg.exp)
	}
	return fn(cfg, spec, roster)
}

// buildRoster returns the evaluation roster per config.
func buildRoster(cfg config) []ransomware.Sample {
	roster := ransomware.Roster(cfg.seed)
	if cfg.quick && cfg.samples == 0 {
		seen := make(map[string]bool)
		var out []ransomware.Sample
		for _, s := range roster {
			key := s.Profile.Family + s.Profile.Class.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, s)
			}
		}
		return out
	}
	if cfg.samples > 0 && cfg.samples < len(roster) {
		return roster[:cfg.samples]
	}
	return roster
}

// runRoster executes the roster with optional progress output.
func runRoster(cfg config, spec corpus.Spec, roster []ransomware.Sample) ([]experiments.SampleOutcome, error) {
	r, err := experiments.NewRunner(spec, cfg.monitorOpts()...)
	if err != nil {
		return nil, err
	}
	var progress func(int, experiments.SampleOutcome)
	if cfg.verbose {
		progress = func(i int, out experiments.SampleOutcome) {
			fmt.Fprintf(os.Stderr, "[%4d/%d] %-32s lost=%-4d union=%-5v score=%.1f\n",
				i+1, len(roster), out.Sample.ID, out.FilesLost, out.Union, out.Score)
		}
	}
	outcomes, err := r.RunRosterParallel(roster, cfg.workers, progress)
	if err != nil {
		return nil, err
	}
	if cfg.jsonOut != "" {
		f, err := os.Create(cfg.jsonOut)
		if err != nil {
			return nil, err
		}
		err = experiments.WriteOutcomesJSON(f, outcomes)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "outcomes exported to %s\n", cfg.jsonOut)
	}
	return outcomes, nil
}

// expPaper runs the roster once and renders every roster-derived artefact
// (Table I, Fig. 3, Fig. 5, union analysis) from the same outcomes, then
// the remaining experiments — the cheapest way to a full reproduction.
func expPaper(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	outcomes, err := runRoster(cfg, spec, roster)
	if err != nil {
		return err
	}
	fmt.Println("\n════════ Table I ════════")
	if err := experiments.BuildTable1(outcomes).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\n════════ Figure 3 ════════")
	if err := experiments.BuildFig3(outcomes).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\n════════ Figure 5 ════════")
	if err := experiments.RenderFig5(os.Stdout, experiments.BuildFig5(outcomes)); err != nil {
		return err
	}
	fmt.Println("\n════════ Union indication (§V-B2) ════════")
	if err := experiments.BuildUnionStats(outcomes).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\n════════ Figure 4 ════════")
	if err := expFig4(cfg, spec, roster); err != nil {
		return err
	}
	fmt.Println("\n════════ Figure 6 ════════")
	if err := expFig6(cfg, spec, roster); err != nil {
		return err
	}
	fmt.Println("\n════════ Small-file rerun (§V-C) ════════")
	if err := expSmallFile(cfg, spec, roster); err != nil {
		return err
	}
	fmt.Println("\n════════ Performance (§V-H) ════════")
	return expPerf(cfg, spec, roster)
}

// expRecovery runs the detect-then-recover comparison: the roster twice,
// detection-only vs versioned-backend rollback, rendering median files lost
// before and after recovery per family and behavioural class.
func expRecovery(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	tbl, err := experiments.RunRecoveryExperiment(spec, roster, cfg.monitorOpts()...)
	if err != nil {
		return err
	}
	return tbl.Render(os.Stdout)
}

func expTable1(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	outcomes, err := runRoster(cfg, spec, roster)
	if err != nil {
		return err
	}
	return experiments.BuildTable1(outcomes).Render(os.Stdout)
}

func expFig3(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	outcomes, err := runRoster(cfg, spec, roster)
	if err != nil {
		return err
	}
	return experiments.BuildFig3(outcomes).Render(os.Stdout)
}

func expFig4(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	r, err := experiments.NewRunner(spec, cfg.monitorOpts()...)
	if err != nil {
		return err
	}
	picks := []struct {
		family string
		class  ransomware.Class
	}{
		{"TeslaCrypt", ransomware.ClassA},
		{"CTB-Locker", ransomware.ClassB},
		{"GPcode", ransomware.ClassC},
	}
	for _, p := range picks {
		var sample *ransomware.Sample
		for i := range roster {
			if roster[i].Profile.Family == p.family && roster[i].Profile.Class == p.class {
				sample = &roster[i]
				break
			}
		}
		if sample == nil {
			// Fall back to the full roster (quick mode may lack the combo).
			full := ransomware.Roster(cfg.seed)
			for i := range full {
				if full[i].Profile.Family == p.family && full[i].Profile.Class == p.class {
					sample = &full[i]
					break
				}
			}
		}
		if sample == nil {
			return fmt.Errorf("no %s class %v sample", p.family, p.class)
		}
		out, err := r.RunSample(*sample)
		if err != nil {
			return err
		}
		tree, err := experiments.BuildFig4Tree(r.CloneFS(), r.Manifest().Root, out)
		if err != nil {
			return err
		}
		if err := tree.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if cfg.dotOut != "" {
			if err := writeDOT(cfg.dotOut, p.family, tree); err != nil {
				return err
			}
		}
	}
	return nil
}

func expFig5(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	outcomes, err := runRoster(cfg, spec, roster)
	if err != nil {
		return err
	}
	return experiments.RenderFig5(os.Stdout, experiments.BuildFig5(outcomes))
}

func expFig6(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	r, err := experiments.NewRunner(spec, cfg.monitorOpts()...)
	if err != nil {
		return err
	}
	var apps []experiments.BenignOutcome
	for _, w := range benign.Detailed() {
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "running %s...\n", w.Name)
		}
		out, err := r.RunBenign(w)
		if err != nil {
			return err
		}
		apps = append(apps, out)
	}
	thresholds := []float64{0, 25, 50, 75, 100, 125, 150, 175, 200, 225, 250}
	return experiments.BuildFig6(apps, thresholds).Render(os.Stdout)
}

func expUnion(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	outcomes, err := runRoster(cfg, spec, roster)
	if err != nil {
		return err
	}
	return experiments.BuildUnionStats(outcomes).Render(os.Stdout)
}

func expSmallFile(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	res, err := experiments.RunSmallFileExperiment(spec, cfg.seed)
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func expPerf(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	perfSpec := spec
	if perfSpec.Files > 800 {
		perfSpec.Files, perfSpec.Dirs = 800, 80
	}
	res, err := experiments.RunPerf(perfSpec, 200)
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func expAblation(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	ablRoster := roster
	if !cfg.quick && cfg.samples == 0 && len(roster) > 100 {
		// Ablations rerun the roster seven times; subsample for tractability.
		var out []ransomware.Sample
		for i := 0; i < len(roster); i += 5 {
			out = append(out, roster[i])
		}
		ablRoster = out
		fmt.Printf("(ablations use a 1-in-5 subsample: %d samples)\n", len(ablRoster))
	}
	var progress func(string)
	if cfg.verbose {
		progress = func(v string) { fmt.Fprintf(os.Stderr, "ablation variant: %s\n", v) }
	}
	res, err := experiments.RunAblations(spec, ablRoster, progress)
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func expEvasion(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	res, err := experiments.RunEvasionExperiment(spec, cfg.seed)
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func expMultiProc(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	res, err := experiments.RunMultiProcessExperiment(spec, cfg.seed, []int{1, 4, 16})
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func expCurves(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	res, err := experiments.RunScoreCurves(spec, cfg.seed,
		[]string{"TeslaCrypt", "CTB-Locker", "Xorist"},
		[]string{"Microsoft Word", "Microsoft Excel", "Adobe Lightroom"})
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func writeDOT(dir, family string, tree experiments.Fig4Tree) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(fmt.Sprintf("%s/fig4_%s.dot", dir, family))
	if err != nil {
		return err
	}
	err = tree.RenderDOT(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
