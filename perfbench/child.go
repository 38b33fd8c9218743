package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv carries a child process's role and inputs as JSON; a
// process started with it set runs that role instead of the benchmark.
const childEnv = "PERFBENCH_CHILD"

// childSpec tells a child process what to run.
type childSpec struct {
	Role     string `json:"role"` // "oracle" or "worker"
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Scale    scale  `json:"scale"`
	// Deadline (Unix nanoseconds) is the time after which a worker
	// starts no further job; it always runs at least one.
	Deadline int64 `json:"deadline"`
	Trace    bool  `json:"trace"`
	FirstJob int   `json:"first_job"`
}

// jobRecord is one job's measurements, streamed by a worker to the
// parent process as one JSON line.
type jobRecord struct {
	Job    int     `json:"job"`
	Traced bool    `json:"traced"`
	Err    string  `json:"err,omitempty"`
	TotalS float64 `json:"total_s"`
	SetupS float64 `json:"setup_s"`
	CPUS   float64 `json:"cpu_s"`
	// PeakRSSMB is the process's peak resident set while the job ran.
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Out       output             `json:"out"`
	Counts    map[string]float64 `json:"counts,omitempty"`
	Labels    map[string]string  `json:"labels,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

func (r *jobRecord) count(name string, v float64) {
	if r.Counts == nil {
		r.Counts = map[string]float64{}
	}
	r.Counts[name] = v
}

func (r *jobRecord) label(name, v string) {
	if r.Labels == nil {
		r.Labels = map[string]string{}
	}
	r.Labels[name] = v
}

// timeTotal runs fn as the job's end-to-end region, recording its wall
// time and the process CPU time it used.
func (r *jobRecord) timeTotal(fn func()) {
	c0 := cpuSeconds()
	t0 := time.Now()
	fn()
	r.TotalS = time.Since(t0).Seconds()
	r.CPUS = cpuSeconds() - c0
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runChild runs the role in spec and returns the process exit code.
func runChild(raw string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	w, err := findWorkload(spec.Workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	switch spec.Role {
	case "oracle":
		ref, err := w.oracle(spec.Scale, spec.Seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench oracle:", err)
			return 1
		}
		if err := enc.Encode(ref); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench oracle:", err)
			return 1
		}
	case "worker":
		for k := spec.FirstJob; k == spec.FirstJob || time.Now().UnixNano() < spec.Deadline; k++ {
			rec := runJob(w, spec, k)
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench worker:", err)
				return 1
			}
			if err := out.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench worker:", err)
				return 1
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "perfbench child: unknown role %q\n", spec.Role)
		return 2
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// runJob makes one job's inputs and runs it cold. In a traced run
// every other job is traced, starting with the first; the untraced
// ones measure the tracing overhead.
func runJob(w workload, spec childSpec, k int) jobRecord {
	rec := jobRecord{Job: k, Traced: spec.Trace && k%2 == 0}
	run := w.prepare(spec.Scale, spec.Seed)
	// Start each job from a collected heap returned to the system, so
	// garbage one job leaves behind is not collected on the next job's
	// clock and the job's peak resident set is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	var tr *tracer
	var ms0 runtime.MemStats
	if rec.Traced {
		runtime.ReadMemStats(&ms0)
		tr = &tracer{job: k, t0: time.Now()}
	}
	err := run(tr, &rec)
	rec.PeakRSSMB = peakRSSMB()
	if rec.Traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		rec.count("alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
		rec.count("gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		rec.Spans = tr.spans
	}
	if err != nil {
		rec.Err = err.Error()
	}
	return rec
}

// resetPeakRSS restarts the kernel's peak-resident-set count (VmHWM)
// from the current resident set. Where that is not permitted the peak
// stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak resident set since the last reset, in MB
// (0 where /proc is unavailable).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
