// Command perfbench is the repository's benchmark. It drives the
// program's public Go APIs in one process, from inputs drawn from a seed,
// checks the outputs, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload plan-replan --seed 1 --seconds 30 --trace 0
//
// run.sh, started from the checkout root, builds it and passes --root so
// that the golden plan fixtures are found. METRICS.md describes every
// workload, metric and gate.
//
// Every run exercises all three layer sets — planning (assigner,
// profiler, costmodel, failover, the runtime.Engine simulator), real
// mixed-precision inference (runtime.Pipeline, nn, tensor, quant) and
// HTTP serving (serve, online, obs) — and reports every end-to-end
// metric. Serving always runs two pooled sweeps. The workload names the
// CPU-bound set that gets the rest of the run's time: that set is loaded
// heavily, and the other runs lightly.
// With --trace 1 the run instead records a span around every call into
// a layer and reports the per-layer metrics.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed correctness
// gate makes the process exit 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// The layer sets, and the workloads with the set each loads heavily.
// Serving runs the same sweeps in every workload.
const (
	partPlan  = "plan"
	partGen   = "gen"
	partServe = "serve"
)

var workloads = map[string]string{
	"plan-replan":       partPlan,
	"pipeline-generate": partGen,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// gates counts correctness checks. Each check is one attempted
// operation; a failed one is printed to stderr and counted.
type gates struct {
	attempted, failed int
	log               io.Writer
}

func (g *gates) check(what string, err error) {
	g.attempted++
	if err != nil {
		g.failed++
		fmt.Fprintf(g.log, "gate failed: %s: %v\n", what, err)
	}
}

type config struct {
	workload string
	heavy    string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: golden fixtures and trace output
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "plan-replan | pipeline-generate")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "checkout root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	heavy, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{workload: *name, heavy: heavy, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, root: *root}
	fmt.Fprintf(stdout, "env nproc=%d GOMAXPROCS=%d go=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.workload, cfg.seed, *seconds, *trace)

	g := &gates{log: stderr}
	var metrics map[string]metric
	var err error
	if cfg.trace {
		metrics, err = runTraced(cfg, g, stdout)
	} else {
		metrics, err = runMeasured(cfg, g, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: metrics}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// errNoCheckout is returned when the program's sources are not beside
// the benchmark (the golden fixtures it checks against are missing).
var errNoCheckout = errors.New("golden fixtures not found: run from the repository checkout root")

func checkRoot(root string) error {
	if _, err := os.Stat(filepath.Join(goldenDir(root), genPlanName+".json")); err != nil {
		return fmt.Errorf("%w (%v)", errNoCheckout, err)
	}
	return nil
}
