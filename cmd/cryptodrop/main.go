// Command cryptodrop demonstrates the monitor end to end: it builds the
// synthetic user-document corpus, attaches CryptoDrop, runs a chosen
// ransomware family (or benign application) against it, and reports what
// happened.
//
//	cryptodrop -list                      # show available families and apps
//	cryptodrop -family TeslaCrypt         # unleash a TeslaCrypt sample
//	cryptodrop -family CTB-Locker -class B
//	cryptodrop -app 7-zip                 # run a benign workload instead
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"cryptodrop"
	"cryptodrop/internal/benign"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/experiments"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cryptodrop:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cryptodrop", flag.ContinueOnError)
	var (
		family  = fs.String("family", "", "ransomware family to run (see -list)")
		class   = fs.String("class", "", "restrict to class A, B or C")
		app     = fs.String("app", "", "benign application workload to run instead")
		list    = fs.Bool("list", false, "list families and applications")
		seed    = fs.Int64("seed", 2016, "corpus and roster seed")
		files   = fs.Int("files", 1500, "corpus file count")
		dirs    = fs.Int("dirs", 150, "corpus directory count")
		scale   = fs.Float64("scale", 0.5, "corpus size scale")
		noStop  = fs.Bool("no-enforce", false, "record detections without suspending")
		rollbk  = fs.Bool("recover", false, "retain pre-images and roll back encrypted files on detection")
		verbose = fs.Bool("v", false, "print the full scoreboard")
		traceTo = fs.String("trace", "", "record the operation stream to this JSONL file")
		telAddr = fs.String("telemetry", "", "serve /metrics, /debug/vars and pprof on this address (e.g. :9090)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return printList()
	}
	spec := corpus.Spec{Seed: *seed, Files: *files, Dirs: *dirs, SizeScale: *scale}
	tel, err := setupTelemetry(*telAddr)
	if err != nil {
		return err
	}
	switch {
	case *app != "":
		return runApp(spec, *app, *verbose, tel)
	case *family != "":
		return runFamily(spec, *family, *class, *noStop, *rollbk, *verbose, *traceTo, tel)
	default:
		return errors.New("pass -family <name>, -app <name> or -list")
	}
}

// telemetrySetup carries the optional live-telemetry instruments.
type telemetrySetup struct {
	reg *telemetry.Registry
	fr  *telemetry.FlightRecorder
}

// setupTelemetry starts the metrics/pprof endpoint when addr is set and
// returns the registry and flight recorder every monitor should share.
func setupTelemetry(addr string) (telemetrySetup, error) {
	if addr == "" {
		return telemetrySetup{}, nil
	}
	t := telemetrySetup{
		reg: telemetry.NewRegistry(),
		fr:  telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity),
	}
	_, bound, err := telemetry.Serve(addr, t.reg, t.fr, nil)
	if err != nil {
		return telemetrySetup{}, fmt.Errorf("telemetry: %w", err)
	}
	fmt.Printf("telemetry: serving /metrics, /debug/vars, /debug/flight and /debug/pprof on http://%s\n", bound)
	return t, nil
}

// attach wires the instruments into a runner (no-op when telemetry is off).
func (t telemetrySetup) attach(r *experiments.Runner) {
	if t.reg != nil {
		r.SetTelemetry(t.reg, t.fr)
	}
}

func printList() error {
	fmt.Println("Ransomware families (Table I):")
	counts := map[string]map[ransomware.Class]int{}
	for _, s := range ransomware.Roster(1) {
		if counts[s.Profile.Family] == nil {
			counts[s.Profile.Family] = map[ransomware.Class]int{}
		}
		counts[s.Profile.Family][s.Profile.Class]++
	}
	var names []string
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, name := range names {
		c := counts[name]
		fmt.Fprintf(tw, "  %s\tA=%d B=%d C=%d\n", name, c[ransomware.ClassA], c[ransomware.ClassB], c[ransomware.ClassC])
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Println("\nBenign applications (§V-F):")
	for _, w := range benign.All() {
		marker := " "
		if w.ExpectDetection {
			marker = "!"
		}
		fmt.Printf("  %s %-28s %s\n", marker, w.Name, w.Description)
	}
	return nil
}

func pickSample(family, class string, seed int64) (ransomware.Sample, error) {
	for _, s := range ransomware.Roster(seed) {
		if s.Profile.Family != family {
			continue
		}
		if class != "" && s.Profile.Class.String() != class {
			continue
		}
		return s, nil
	}
	return ransomware.Sample{}, fmt.Errorf("no sample of family %q class %q (see -list)", family, class)
}

func runFamily(spec corpus.Spec, family, class string, noEnforce, rollback, verbose bool, traceTo string, tel telemetrySetup) (err error) {
	sample, err := pickSample(family, class, spec.Seed)
	if err != nil {
		return err
	}
	var opts []cryptodrop.Option
	if noEnforce {
		opts = append(opts, cryptodrop.WithoutEnforcement())
	}
	runner, err := experiments.NewRunner(spec, opts...)
	if err != nil {
		return err
	}
	if rollback {
		runner.EnableRecovery()
	}
	tel.attach(runner)
	if traceTo != "" {
		f, ferr := os.Create(traceTo)
		if ferr != nil {
			return ferr
		}
		rec := trace.NewRecorder(f)
		runner.SetTraceRecorder(rec)
		defer func() {
			werr := rec.Flush()
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				err = errors.Join(err, fmt.Errorf("trace: %w", werr))
				return
			}
			fmt.Printf("trace: %d operations written to %s\n", rec.Records(), traceTo)
		}()
	}
	fmt.Printf("Corpus: %d files in %d directories under %s\n",
		len(runner.Manifest().Entries), runner.Manifest().DirCount, runner.Manifest().Root)
	fmt.Printf("Releasing %s (Class %s, %v traversal, %v)...\n\n",
		sample.ID, sample.Profile.Class, sample.Profile.Traversal, sample.Profile.Cipher)
	out, err := runner.RunSample(sample)
	if err != nil {
		return err
	}
	if out.Detected {
		fmt.Printf("DETECTED and suspended: score %.1f (union indication: %v)\n", out.Score, out.Union)
	} else {
		fmt.Printf("NOT detected: score %.1f\n", out.Score)
	}
	lostLabel := "before suspension"
	if rollback {
		lostLabel = "after recovery"
	}
	fmt.Printf("Files lost %s: %d of %d (%.2f%%)\n",
		lostLabel, out.FilesLost, len(runner.Manifest().Entries),
		100*float64(out.FilesLost)/float64(len(runner.Manifest().Entries)))
	for _, rec := range out.Recoveries {
		fmt.Printf("Recovery: group %d — %d restored in place, %d recreated, %d failures, %d bytes\n",
			rec.Group, rec.FilesRestored, rec.FilesRecreated, rec.Failures, rec.BytesRestored)
	}
	fmt.Printf("Sample accounting: %d files attacked, %d ransom notes, %d op errors\n",
		out.Run.FilesAttacked, out.Run.NotesDropped, out.Run.OpErrors)
	if tel.fr != nil && out.Detected {
		t := tel.fr.Trace(out.Report.PID)
		fmt.Printf("flight recorder: %d indicator firings for pid %d (sum %.1f points) — /debug/flight has the trace\n",
			len(t.Events), t.Group, t.TotalPoints)
	}
	if verbose {
		printReport(out.Report)
	}
	return nil
}

func runApp(spec corpus.Spec, name string, verbose bool, tel telemetrySetup) error {
	w, ok := benign.ByName(name)
	if !ok {
		return fmt.Errorf("unknown application %q (see -list)", name)
	}
	runner, err := experiments.NewRunner(spec)
	if err != nil {
		return err
	}
	tel.attach(runner)
	fmt.Printf("Running %s: %s\n\n", w.Name, w.Description)
	out, err := runner.RunBenign(w)
	if err != nil {
		return err
	}
	verdict := "no false positive"
	if out.Detected {
		verdict = "FLAGGED"
	}
	fmt.Printf("Final score: %.1f — %s (union indication: %v)\n", out.Score, verdict, out.Union)
	if verbose {
		printReport(out.Report)
	}
	return nil
}

func printReport(rep cryptodrop.ProcessReport) {
	fmt.Println("\nScoreboard:")
	fmt.Printf("  read entropy mean:  %.3f\n", rep.ReadEntropyMean)
	fmt.Printf("  write entropy mean: %.3f\n", rep.WriteEntropyMean)
	fmt.Printf("  files transformed:  %d, deletes: %d\n", rep.FilesTransformed, rep.Deletes)
	for ind, pts := range rep.IndicatorPoints {
		fmt.Printf("  %-18v %.2f points\n", ind, pts)
	}
	if len(rep.ExtensionsTouched) > 0 {
		n := len(rep.ExtensionsTouched)
		if n > 10 {
			n = 10
		}
		fmt.Printf("  first extensions touched: %v\n", rep.ExtensionsTouched[:n])
	}
}
