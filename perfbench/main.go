// Command perfbench is the repository's benchmark. One invocation runs one
// seeded workload for a fixed time and prints, as the last line of standard
// output, one JSON object: whether every verdict was right, how many
// operations were attempted and failed, and the metrics. Untraced
// (-trace 0) it prints the end-to-end metrics; traced (-trace 1) it adds a
// traced pass and prints the per-layer metrics. README.md describes the
// workloads, the metrics and how to read them.
//
//	go run . -workload attack -seed 1 -seconds 16 -trace 0
//
// Workloads: attack and office drive cryptodrop.NewMonitor over a corpus
// filesystem; ingest and ingest-durable drive server.New over loopback
// through server/client.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// scale sizes a run's inputs. fullScale is what the benchmark runs;
// the package tests use a tiny one.
type scale struct {
	facadeFiles, facadeDirs int
	facadeSize              float64
	ingestFiles, ingestDirs int
	ingestSize              float64
	benignTraces            []string      // benign applications in the ingest pool
	specimens               int           // ingest pool: specimens per Table I family and class
	streamRepeats           int           // ingest sessions per pool stream in one epoch
	producers               int           // ingest producer goroutines (and connections)
	window                  int           // sessions one producer streams at a time
	batch                   int           // ops per Submit
	checkpointEvery         int           // ingest-durable auto-checkpoint interval, in ops
	setupReps               int           // set-ups per run; setup_s is their median
	spanCap                 int           // span ring of a traced pass
	kernelBytes             int64         // distinct content kept for kernel timing
	ladderMin               time.Duration // least time one ingest ladder rung is measured for
}

var fullScale = scale{
	facadeFiles: 400, facadeDirs: 40, facadeSize: 1,
	ingestFiles: 150, ingestDirs: 15, ingestSize: 0.3,
	benignTraces: []string{"Microsoft Word", "GIMP", "Sticky Notes"},
	specimens:    2, streamRepeats: 2, producers: 2, window: 8, batch: 16,
	checkpointEvery: 256,
	setupReps:       5,
	spanCap:         1 << 20,
	kernelBytes:     8 << 20,
	ladderMin:       time.Second,
}

// corpusSeed fixes the victim machine, as the paper's one 5,099-file
// corpus is fixed: which files a sample reaches before it is stopped sets
// most of a run's cost, so a corpus per seed would swing every figure with
// the seed. It also fixes the ingest streams (see newIngestEnv). The seed
// drives the rest: the roster's specimens and their jitter, unit order, and
// session order.
const corpusSeed = 2016

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string // Chrome traces and scratch state
	sc       scale
}

// report is one run's outcome.
type report struct {
	attempted, failed int64
	failures          []string
	e2e               map[string]float64 // endToEnd, untraced
	extra             map[string]float64 // workload-specific e2e.* figures
	layers            map[string]float64 // perLayer, traced run only
	samples           string
	traceNote         string
}

func newReport(attempted, failed int64, failures []string) *report {
	return &report{
		attempted: attempted, failed: failed, failures: failures,
		e2e: map[string]float64{}, extra: map[string]float64{}, layers: map[string]float64{},
	}
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []string{"attack", "office", "ingest", "ingest-durable"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "attack, office, ingest or ingest-durable")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 16, "measured time")
	traceOn := fs.Int("trace", 0, "1: add a traced pass and print the per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for Chrome traces and scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *traceOn == 1, outDir: *out, sc: fullScale,
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(stdout, cfg, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runWorkload(cfg runConfig) (*report, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	switch cfg.workload {
	case "attack", "office":
		return runFacade(cfg, cfg.workload)
	case "ingest":
		return runIngest(cfg, false)
	case "ingest-durable":
		return runIngest(cfg, true)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
}

// printResult writes readable lines, then the JSON result as the last line.
func printResult(w io.Writer, cfg runConfig, rep *report) error {
	fmt.Fprintf(w, "workload %s seed %d: %s\n", cfg.workload, cfg.seed, rep.samples)
	fmt.Fprintf(w, "ops_attempted %d ops_failed %d\n", rep.attempted, rep.failed)
	for _, f := range rep.failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-26s %14.4f %s\n", d.name, rep.e2e[d.name], d.unit)
		if !cfg.traced {
			res.Metrics[d.name] = metric{rep.e2e[d.name], d.unit}
		}
	}
	names := make([]string, 0, len(rep.extra))
	for k := range rep.extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-26s %14.4f %s\n", k, rep.extra[k], unitOf(k))
	}
	if cfg.traced {
		for k, v := range rep.extra {
			rep.layers[k] = v
		}
		fmt.Fprintln(w, rep.traceNote)
		for _, d := range perLayer {
			v := rep.layers[d.name]
			fmt.Fprintf(w, "%-34s %16.4f %-8s %s\n", d.name, v, d.unit, d.moves)
			res.Metrics[d.name] = metric{v, d.unit}
		}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// unitOf looks a per-layer metric's unit up by name.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
