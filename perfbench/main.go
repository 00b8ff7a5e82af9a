// Command perfbench is the repository's end-to-end benchmark. It builds its
// inputs from a seed, drives the miner through its public packages for a
// fixed number of seconds, checks every operation's output against a
// horizontal-scan oracle, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload lattice-dense --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it carries the per-layer metrics, taken from spans the
// benchmark records around the public calls of each layer and from the
// mining core's profiler, and the spans are written to the output directory.
// --selfcheck runs the benchmark repeatedly over several seeds, twice, and
// reports each metric's median, quartiles and spread against its bound.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 30, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant instead of the end-to-end one")
	out := fs.String("out", ".bench_build/perfbench", "directory for traces")
	selfcheck := fs.Bool("selfcheck", false, "run the benchmark over several seeds twice and report each metric's spread")
	runs := fs.Int("runs", 5, "selfcheck: seeds per set")
	sets := fs.Int("sets", 2, "selfcheck: sets of runs to compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if *selfcheck {
		if err := selfCheck(*workload, *seed, *seconds, *trace == 1, *runs, *sets, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		return 2
	}
	res, ctx, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(map[string]interface{}{"context": ctx}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func printJSON(v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// runWorkload sets the workload up, measures it for d, and assembles the
// result line and the run's context.
func runWorkload(w workload, seed int64, d time.Duration, traced bool, outDir string) (*result, map[string]interface{}, error) {
	e, err := w.setup(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	m, err := measure(e, d, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	failed := 0
	for _, o := range m.outcomes {
		if o.err != nil {
			if failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s op %s failed: %v\n", w.name, o.typ, o.err)
			}
			failed++
		}
	}
	if len(m.outcomes) == 0 {
		return nil, nil, errors.New("no operation completed in the measured window")
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: len(m.outcomes),
		Failed:    failed,
	}
	ctx := map[string]interface{}{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    d.Seconds(),
		"trace":      traced,
		"steal_frac": m.stealFrac,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	if traced {
		res.Metrics = layerMetrics(e, m)
		path, err := tr.write(outDir, w.name, seed, ctx)
		if err != nil {
			return nil, nil, err
		}
		ctx["trace_file"] = path
		return res, ctx, nil
	}
	var samples map[string]int
	if res.Metrics, samples, err = endToEndMetrics(e, m); err != nil {
		return nil, nil, err
	}
	// retained_mb counts only the program's live heap: the outcomes and
	// the benchmark's own copies of the inputs go first, while e keeps the
	// program's state (dataset, index, server) reachable.
	m.outcomes = nil
	if e.release != nil {
		if err := e.release(); err != nil {
			return nil, nil, fmt.Errorf("%s after the window: %w", w.name, err)
		}
	}
	res.Metrics["retained_mb"] = metric{retainedMB(), "MB"}
	runtime.KeepAlive(e)
	setup, _ := percentile(e.setupS, 0.5)
	res.Metrics["setup_s"] = metric{setup, "s"}
	samples["setup"] = len(e.setupS)
	ctx["samples"] = samples
	ctx["setup_each_s"] = e.setupS
	return res, ctx, nil
}
