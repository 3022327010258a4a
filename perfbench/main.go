// Command perfbench is the repository benchmark: one command that builds
// an SGL workload from a seed, runs it for a fixed time, checks its
// outputs and prints every metric by name and unit. See README.md for the
// workloads, the metrics and the layer-to-metric map.
//
// Run:     perfbench --workload arena --seed 1 --seconds 20 --trace 0
// Compare: perfbench --compare old.jsonl new.jsonl
//
// The last line of a run's standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// stamp (machine, toolchain, revision, seed, sample counts, checks).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	seed     int64
	duration time.Duration
	trace    bool
}

var workloads = map[string]func(runConfig) (*report, error){
	"arena":  runArena,
	"market": runMarket,
	"fleet":  runFleet,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type stamp struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	GoVersion  string         `json:"go_version"`
	Revision   string         `json:"revision"`
	Samples    map[string]int `json:"samples"`
	Checks     []check        `json:"checks"`
	Notes      map[string]any `json:"notes,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: arena, market or fleet")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	rev := fs.String("rev", "unknown", "source revision to stamp into the result")
	compare := fs.Bool("compare", false, "compare two result files given as arguments")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds (compare mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare needs two result files")
			return 2
		}
		if err := compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload arena|market|fleet, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	specs := endToEnd
	values := rep.e2e
	if cfg.trace {
		specs, values = perLayer, rep.layer
	}
	res := result{Correct: rep.correct() && rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", *name, m.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s measured %s = %v\n", *name, m.name, v)
			return 1
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	st := stamp{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Revision: *rev, Samples: rep.samples, Checks: rep.checks, Notes: rep.notes,
	}
	for _, c := range rep.checks {
		if !c.OK {
			fmt.Fprintf(stderr, "perfbench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]stamp{"stamp": st}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
