// Command perfbench is the repository's benchmark: it generates seeded
// inputs, sets the program up from them, drives one workload, checks the
// program's outputs and prints every metric, the last line being one JSON
// object. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload exact-uniform --seed 1 --seconds 16 --trace 0
//
// --workload all runs every workload in turn. The workloads, their rates,
// ladders and latency limits are fixed in workloads.json. --trace 0
// reports the end-to-end metrics; --trace 1 replays the same inputs with
// spans around every public call and reports the per-layer metrics. The
// exit code is non-zero when a correctness check fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	workload := flag.String("workload", "", `workload name from workloads.json, or "all"`)
	seed := flag.Uint64("seed", 1, "seed of the generated inputs and schedules")
	seconds := flag.Float64("seconds", 16, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 for the traced run with per-layer metrics")
	spinner := flag.Bool("spin", false, "run as the idle-priority spinner child (see startSpinner)")
	flag.Parse()
	if *spinner {
		os.Exit(spin())
	}
	os.Exit(run(*workload, *seed, *seconds, *trace == 1))
}

func run(name string, seed uint64, seconds float64, traced bool) int {
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	names := []string{name}
	if name == "all" {
		names = names[:0]
		for n := range cfg.Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	for _, n := range names {
		if _, ok := cfg.Workloads[n]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", n)
			return 2
		}
	}
	if seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	stop, err := startSpinner()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer stop()
	code := 0
	for _, n := range names {
		if c := runOne(cfg, n, seed, seconds, traced); c > code {
			code = c
		}
	}
	return code
}

func runOne(cfg *Config, name string, seed uint64, seconds float64, traced bool) int {
	wl := cfg.Workloads[name]
	root := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(root, fmt.Sprintf("%s-seed%d-", name, seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	var rep *Report
	if wl.Kind == "train" {
		rep, err = runTrain(cfg, wl, seed, seconds, traced, dir)
	} else {
		rep, err = runServing(cfg, wl, seed, seconds, traced, dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if err := rep.Write(os.Stdout, name, seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if len(rep.Problems) > 0 {
		return 1
	}
	return 0
}
