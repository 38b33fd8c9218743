package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    scale
	TraceDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"total_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"mesh.filaments", "count"},
	{"mesh.nodes", "count"},
	{"fasthenry.new_solver_s", "s"},
	{"fasthenry.sweep_s", "s"},
	{"fasthenry.gmres_iters", "count"},
	{"fasthenry.ms_per_iter", "ms"},
	{"fasthenry.loop_extract_s", "s"},
	{"fasthenry.max_rel_err", "ratio"},
	{"extract.op_build_s", "s"},
	{"extract.kernel_evals", "count"},
	{"extract.kernel_eval_frac", "ratio"},
	{"extract.cache_hit_rate", "ratio"},
	{"extract.cache_misses", "count"},
	{"extract.op_mbytes", "MB"},
	{"extract.max_rank", "count"},
	{"extract.far_blocks", "count"},
	{"extract.extract_s", "s"},
	{"sweep.anchors", "count"},
	{"sweep.interp_frac", "ratio"},
	{"core.case_build_s", "s"},
	{"core.peec_rc_s", "s"},
	{"core.peec_rlc_s", "s"},
	{"core.loop_s", "s"},
	{"sim.peec_rc_tran_s", "s"},
	{"sim.peec_rlc_tran_s", "s"},
	{"sim.loop_tran_s", "s"},
	{"sim.steps", "count"},
	{"circuit.mutuals", "count"},
	{"circuit.elements", "count"},
	{"grid.build_s", "s"},
	{"grid.peec_netlist_s", "s"},
	{"supply.analyze_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"self.fasthenry_s", "s"},
	{"self.extract_s", "s"},
	{"self.core_s", "s"},
	{"self.sim_s", "s"},
	{"self.grid_s", "s"},
	{"self.supply_s", "s"},
	{"job.unaccounted_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// runBenchmark runs the oracle, then workers until cfg.Seconds have
// passed, checks every job and aggregates the metrics. It writes a
// human-readable summary to log.
func runBenchmark(cfg runConfig, log io.Writer) (*report, error) {
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	spec := childSpec{Workload: w.name, Seed: cfg.Seed, Scale: cfg.Scale, Trace: cfg.Trace}

	spec.Role = "oracle"
	var ref output
	if err := runOracle(spec, &ref); err != nil {
		return nil, err
	}

	spec.Role = "worker"
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	spec.Deadline = deadline.UnixNano()
	var (
		recs    []jobRecord
		crashes []string
	)
	for len(recs)+len(crashes) == 0 || time.Now().Before(deadline) {
		spec.FirstJob = len(recs) + len(crashes)
		got, err := runWorker(spec, deadline)
		recs = append(recs, got...)
		if err != nil {
			// The job in flight when the worker died counts as failed.
			crashes = append(crashes, err.Error())
		}
	}

	failed := len(crashes)
	var ok []jobRecord
	for i := range recs {
		r := &recs[i]
		if r.Err == "" {
			rel, err := w.check(cfg.Scale, r.Out, ref)
			if len(r.Out.Z) > 0 {
				r.count("sweep_rel_err", rel)
			}
			if err != nil {
				r.Err = "oracle: " + err.Error()
			}
		}
		if r.Err != "" {
			failed++
			fmt.Fprintf(log, "job %d failed: %s\n", r.Job, r.Err)
			continue
		}
		fmt.Fprintf(log, "job %d traced=%v total_s=%.4f setup_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f\n",
			r.Job, r.Traced, r.TotalS, r.SetupS, r.CPUS, r.PeakRSSMB)
		ok = append(ok, *r)
	}
	for _, c := range crashes {
		fmt.Fprintf(log, "worker crashed: %s\n", c)
	}
	attempted := len(recs) + len(crashes)
	rep := &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}

	labels := map[string]string{
		"workload": w.name, "seed": fmt.Sprint(cfg.Seed),
		"nproc": fmt.Sprint(runtime.GOMAXPROCS(0)), "go": runtime.Version(),
	}
	for _, r := range ok {
		for k, v := range r.Labels {
			labels[k] = v
		}
	}
	lb, _ := json.Marshal(labels) // a map of strings always marshals
	fmt.Fprintf(log, "labels %s\n", lb)
	fmt.Fprintf(log, "fail_frac %g ratio (%d failed of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)

	var values map[string]float64
	var defs []metricDef
	var samples int
	if cfg.Trace {
		defs = perLayer
		var traced, plain []jobRecord
		for _, r := range ok {
			if r.Traced {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
		}
		samples = len(traced)
		values = layerValues(traced, plain)
		if err := writeSpans(cfg, traced); err != nil {
			return nil, err
		}
	} else {
		defs = endToEnd
		samples = len(ok)
		values = map[string]float64{
			"total_s": median(pick(ok, func(r jobRecord) float64 { return r.TotalS })),
			"setup_s": median(pick(ok, func(r jobRecord) float64 { return r.SetupS })),
			"cpu_s":   median(pick(ok, func(r jobRecord) float64 { return r.CPUS })),
			// The process's peak is the highest job peak. A job's own peak
			// swings by a third with where the collector runs, so a median
			// over jobs would not repeat from run to run.
			"peak_rss_mb": maxOf(pick(ok, func(r jobRecord) float64 { return r.PeakRSSMB })),
		}
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(log, "%-26s %14.6g %-6s (%d jobs)\n", d.Name, v, d.Unit, samples)
	}
	return rep, nil
}

// childCmd prepares a child process of this binary running spec.
func childCmd(ctx context.Context, spec childSpec) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// oracleTimeout bounds the oracle child's run.
const oracleTimeout = 60 * time.Second

func runOracle(spec childSpec, ref *output) error {
	ctx, cancel := context.WithTimeout(context.Background(), oracleTimeout)
	defer cancel()
	cmd, err := childCmd(ctx, spec)
	if err != nil {
		return err
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("oracle for %s: %w", spec.Workload, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), ref); err != nil {
		return fmt.Errorf("oracle for %s: %w", spec.Workload, err)
	}
	return nil
}

// overrun is how long past the deadline a worker may run its last job
// before it is killed and that job counted as failed.
const overrun = 45 * time.Second

// runWorker runs one worker process to completion and returns the jobs
// it reported, and an error if it did not exit cleanly.
func runWorker(spec childSpec, deadline time.Time) ([]jobRecord, error) {
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(overrun))
	defer cancel()
	cmd, err := childCmd(ctx, spec)
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var recs []jobRecord
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var parseErr error
	for sc.Scan() {
		var r jobRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			parseErr = err
			break
		}
		recs = append(recs, r)
	}
	if parseErr == nil {
		parseErr = sc.Err()
	}
	if parseErr != nil {
		// Drain so the worker is not blocked writing, then reap it.
		_, _ = io.Copy(io.Discard, stdout)
	}
	return recs, errors.Join(cmd.Wait(), parseErr)
}

// layerValues aggregates the traced jobs' spans and counts into the
// per-layer metrics (medians over traced jobs) and the tracing
// overhead against the untraced jobs of the same run.
func layerValues(traced, plain []jobRecord) map[string]float64 {
	per := map[string][]float64{}
	for _, r := range traced {
		self, unacc, durs := breakdown(r.Spans)
		c := r.Counts
		iters := c["gmres_iters"]
		msPerIter := 0.0
		if iters > 0 {
			msPerIter = durs["fasthenry.Sweep"] * 1000 / iters
		}
		m := map[string]float64{
			"mesh.filaments":           c["filaments"],
			"mesh.nodes":               c["nodes"],
			"fasthenry.new_solver_s":   durs["fasthenry.NewSolver"],
			"fasthenry.sweep_s":        durs["fasthenry.Sweep"],
			"fasthenry.gmres_iters":    iters,
			"fasthenry.ms_per_iter":    msPerIter,
			"fasthenry.loop_extract_s": durs["fasthenry.loop_extract"],
			"fasthenry.max_rel_err":    c["sweep_rel_err"],
			"extract.op_build_s":       durs["extract.OperatorStats"],
			"extract.kernel_evals":     c["kernel_evals"],
			"extract.kernel_eval_frac": c["kernel_eval_frac"],
			"extract.cache_hit_rate":   c["cache_hit_rate"],
			"extract.cache_misses":     c["cache_misses"],
			"extract.op_mbytes":        c["op_mbytes"],
			"extract.max_rank":         c["max_rank"],
			"extract.far_blocks":       c["far_blocks"],
			"extract.extract_s":        durs["extract.Extract"],
			"sweep.anchors":            c["anchors"],
			"sweep.interp_frac":        c["interp_frac"],
			"core.case_build_s":        durs["core.NewClockCase"],
			"core.peec_rc_s":           durs["core.peec_rc"],
			"core.peec_rlc_s":          durs["core.peec_rlc"],
			"core.loop_s":              durs["core.loop"],
			"sim.peec_rc_tran_s":       durs["sim.peec_rc_sim"],
			"sim.peec_rlc_tran_s":      durs["sim.peec_rlc_sim"],
			"sim.loop_tran_s":          durs["sim.loop_sim"],
			"sim.steps":                c["sim_steps"],
			"circuit.mutuals":          c["mutuals"],
			"circuit.elements":         c["elements"],
			"grid.build_s":             durs["grid.BuildPowerGrid"],
			"grid.peec_netlist_s":      durs["grid.BuildPEECNetlist"],
			"supply.analyze_s":         durs["supply.Analyze"],
			"runtime.alloc_mb":         c["alloc_mb"],
			"runtime.gc_cycles":        c["gc_cycles"],
			"job.unaccounted_s":        unacc,
		}
		for _, l := range []string{"fasthenry", "extract", "core", "sim", "grid", "supply"} {
			m["self."+l+"_s"] = self[l]
		}
		for k, v := range m {
			per[k] = append(per[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range per {
		out[k] = median(vs)
	}
	tracedTotal := median(pick(traced, func(r jobRecord) float64 { return r.TotalS }))
	plainTotal := median(pick(plain, func(r jobRecord) float64 { return r.TotalS }))
	if plainTotal > 0 {
		out["trace.overhead_frac"] = tracedTotal/plainTotal - 1
	}
	return out
}

// writeSpans writes the traced jobs' spans, kept in memory until now,
// as one JSON document.
func writeSpans(cfg runConfig, traced []jobRecord) error {
	var spans []span
	for _, r := range traced {
		spans = append(spans, r.Spans...)
	}
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.TraceDir, fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed)), raw, 0o644)
}

func pick(recs []jobRecord, f func(jobRecord) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// median returns the middle value (mean of the two middle values for
// an even count), or 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
