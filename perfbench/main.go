// Command perfbench is the repository benchmark. It runs one workload
// in a closed loop (one job at a time, each job cold: a fresh engine
// session and kernel cache, every other setting at its default) for a
// fixed time, checks each job against an independent oracle, and
// prints the end-to-end metrics, or with -trace 1 the per-layer
// metrics, as the last line of its output:
//
//	bash perfbench/run.sh --workload bus_sweep --seed 1 --seconds 25 --trace 0
//
// The benchmark runs the oracle and the jobs in child processes of its
// own binary, so a crash in a job (a panic in a sweep worker goroutine
// cannot be recovered by its caller) fails that job only, and the
// resident memory measured is the workload's own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(runChild(spec))
	}
	var cfg runConfig
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: bus_sweep, plane_sweep, table1, supply_noise, or all in turn")
	flag.Int64Var(&cfg.Seed, "seed", 0, "workload seed; 0 is the reference structure")
	flag.Float64Var(&cfg.Seconds, "seconds", 25, "measured time: no job starts after it")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.TraceDir, "tracedir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	flag.Parse()
	cfg.Trace = *trace == 1
	cfg.Scale = fullScale
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if cfg.Seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %g", cfg.Seconds))
	}
	var rep *report
	var err error
	if cfg.Workload == "all" {
		rep, err = runAll(cfg)
	} else {
		rep, err = runBenchmark(cfg, os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in turn for cfg.Seconds each, printing
// each one's summary, and returns one result whose metrics are named
// "<workload>/<metric>".
func runAll(cfg runConfig) (*report, error) {
	all := &report{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		c := cfg
		c.Workload = w.name
		rep, err := runBenchmark(c, os.Stdout)
		if err != nil {
			return nil, err
		}
		all.Correct = all.Correct && rep.Correct
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		for k, m := range rep.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	return all, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
