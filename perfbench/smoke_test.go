package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// benchmark re-executes itself for its oracle and worker processes.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(runChild(spec))
	}
	os.Exit(m.Run())
}

// crashWorkload panics in a goroutine its caller cannot recover, as a
// crashing sweep worker would.
var crashWorkload = workload{
	name: "crash",
	prepare: func(scale, int64) job {
		return func(*tracer, *jobRecord) error {
			go panic("worker goroutine crashed")
			select {}
		}
	},
	oracle: func(scale, int64) (output, error) { return output{}, nil },
	check:  func(scale, output, output) (float64, error) { return 0, nil },
}

// The crash workload is registered in parent and child test processes
// alike; the benchmark binary never sees it.
func init() { workloads = append(workloads, crashWorkload) }

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload through the same parent and child
// processes and oracles as a measured run, at a size that takes
// seconds, untraced and traced, and checks that each reports exactly
// the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	bench := readBenchmarkFile(t)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		if w.name != crashWorkload.name {
			ours = append(ours, w.name)
		}
	}
	if !equalSets(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark has %v", names, ours)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			rep, err := runBenchmark(runConfig{
				Workload: name, Seed: 1, Seconds: 0.01, Trace: traced,
				Scale: tinyScale, TraceDir: t.TempDir(),
			}, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v, %d of %d failed", name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			var wantNames, gotNames []string
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				if got, ok := rep.Metrics[m.Name]; ok && got.Unit != m.Unit {
					t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", name, m.Name, got.Unit, m.Unit)
				}
			}
			for k := range rep.Metrics {
				gotNames = append(gotNames, k)
			}
			if !equalSets(wantNames, gotNames) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json lists %v", name, traced, gotNames, wantNames)
			}
			if traced && (name == "table1" || name == "supply_noise") {
				if it := rep.Metrics["fasthenry.gmres_iters"].Value; it != 0 {
					t.Errorf("%s ran %v GMRES iterations, want none", name, it)
				}
			}
		}
	}
}

// TestWorkerCrashFailsJob checks that a panic no caller can recover
// kills only the worker process and is counted as a failed job.
func TestWorkerCrashFailsJob(t *testing.T) {
	rep, err := runBenchmark(runConfig{
		Workload: crashWorkload.name, Seconds: 0.01, Scale: tinyScale, TraceDir: t.TempDir(),
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Attempted < 1 || rep.Failed != rep.Attempted {
		t.Fatalf("crashing workload: correct=%v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
