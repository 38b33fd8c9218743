package main

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"inductance101/internal/core"
	"inductance101/internal/engine"
	"inductance101/internal/extract"
	"inductance101/internal/fasthenry"
	"inductance101/internal/geom"
	"inductance101/internal/grid"
	"inductance101/internal/mesh"
	"inductance101/internal/supply"
	"inductance101/internal/sweep"
)

// scale holds the structure sizes of one benchmark scale: full for the
// measured runs, tiny for the smoke test.
type scale struct {
	BusWires    int
	BusPoints   int
	PlaneNW     int
	PlanePoints int
	TableNX     int
	SupplyNX    int
	// TableCounts is the exact Table-1 element count per model
	// (PEEC(RC), PEEC(RLC), LOOP(RLC)): R, C, L, mutuals.
	TableCounts [3][4]int
}

var (
	fullScale = scale{
		BusWires: 128, BusPoints: 201, PlaneNW: 16, PlanePoints: 3, TableNX: 8, SupplyNX: 12,
		TableCounts: [3][4]int{{360, 265, 0, 0}, {360, 265, 232, 13340}, {8, 4, 8, 0}},
	}
	tinyScale = scale{
		BusWires: 36, BusPoints: 201, PlaneNW: 4, PlanePoints: 3, TableNX: 4, SupplyNX: 4,
		TableCounts: [3][4]int{{88, 73, 0, 0}, {88, 73, 56, 756}, {8, 4, 8, 0}},
	}
)

// output is what a job or an oracle reports about a workload's result;
// it crosses process boundaries as JSON, so complex values are pairs.
type output struct {
	Freqs      []float64    `json:"freqs,omitempty"`
	Z          [][2]float64 `json:"z,omitempty"`
	Rows       []tableRow   `json:"rows,omitempty"`
	StaticIR   float64      `json:"static_ir,omitempty"`
	WorstDroop float64      `json:"worst_droop,omitempty"`
	DroopNodes int          `json:"droop_nodes,omitempty"`
}

type tableRow struct {
	Model  string  `json:"model"`
	Counts [4]int  `json:"counts"` // R, C, L, mutuals
	Delay  float64 `json:"delay"`
	Skew   float64 `json:"skew"`
}

// job is one cold run of a workload's public entry sequence. run is
// called once, with a nil tracer for untraced jobs; it fills rec.
type job func(tr *tracer, rec *jobRecord) error

// workload is one benchmark workload: how to make a job from the seed,
// how to compute its oracle, and how to check a job against it.
type workload struct {
	name string
	// prepare generates the inputs for one job (outside the timed
	// region) and returns the job.
	prepare func(sc scale, seed int64) job
	// oracle computes the reference by an independent path.
	oracle func(sc scale, seed int64) (output, error)
	// check compares a job's output with the reference and returns the
	// worst relative deviation it measured.
	check func(sc scale, got, ref output) (float64, error)
}

var workloads = []workload{
	{name: "bus_sweep", prepare: prepareBus, oracle: oracleBus, check: checkSweep},
	{name: "plane_sweep", prepare: preparePlane, oracle: oraclePlane, check: checkSweep},
	{name: "table1", prepare: prepareTable1, oracle: oracleTable1, check: checkTable1},
	{name: "supply_noise", prepare: prepareSupply, oracle: oracleSupply, check: checkSupply},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// jitter returns the seed's perturbation factors, each within ±2%.
// Seed 0 reproduces the reference structures exactly.
func jitter(seed int64, n int) []float64 {
	f := make([]float64, n)
	rng := rand.New(rand.NewSource(seed))
	for i := range f {
		f[i] = 1
		if seed != 0 {
			f[i] += 0.02 * (2*rng.Float64() - 1)
		}
	}
	return f
}

// ---- sweeps -------------------------------------------------------

// sweepInput is one loop-extraction problem as rlsweep poses it.
type sweepInput struct {
	lay    *geom.Layout
	segs   []int
	port   fasthenry.Port
	shorts [][2]string
	fRef   float64
	freqs  []float64
	cfg    engine.Config
	nw, nt int
	maxPer int
}

func (in sweepInput) options(sess *engine.Session) fasthenry.Options {
	o := sess.SolverOptions()
	o.NW, o.NT, o.MaxPerSide = in.nw, in.nt, in.maxPer
	return o
}

// busInput is the loop bus of the repository's FastHenry benchmark: a
// signal wire beside nWires-1 returns, returns tied together at both
// ends and to the signal at the far end, 8 filaments per wire.
func busInput(sc scale, seed int64) sweepInput {
	j := jitter(seed, 2)
	pitch, width := 2e-6*j[0], 1e-6*j[1]
	lay := geom.NewLayout([]geom.Layer{
		{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	var segs []int
	for w := 0; w < sc.BusWires; w++ {
		net, a, b := "GND", fmt.Sprintf("g%d_0", w), fmt.Sprintf("g%d_1", w)
		if w == 0 {
			net, a, b = "sig", "s0", "s1"
		}
		segs = append(segs, lay.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, X0: 0, Y0: float64(w) * pitch,
			Length: 1e-3, Width: width, Net: net, NodeA: a, NodeB: b,
		}))
	}
	var shorts [][2]string
	for w := 2; w < sc.BusWires; w++ {
		shorts = append(shorts,
			[2]string{fmt.Sprintf("g%d_0", w-1), fmt.Sprintf("g%d_0", w)},
			[2]string{fmt.Sprintf("g%d_1", w-1), fmt.Sprintf("g%d_1", w)})
	}
	shorts = append(shorts, [2]string{"s1", "g1_1"})
	return sweepInput{
		lay: lay, segs: segs, port: fasthenry.Port{Plus: "s0", Minus: "g1_0"}, shorts: shorts,
		fRef: 1e11, freqs: fasthenry.LogSpace(1e8, 1e11, sc.BusPoints),
		cfg: engine.Config{Cache: engine.CachePrivate}, nw: 4, nt: 2,
	}
}

// planeInput is a microstrip and its far return over a solid ground
// plane, the plane lowered to a PlaneNW x PlaneNW filament grid.
func planeInput(sc scale, seed int64) sweepInput {
	j := jitter(seed, 3)
	lay := geom.NewLayout(grid.StandardLayers())
	segs := []int{
		lay.AddSegment(geom.Segment{
			Layer: 1, Dir: geom.DirX, X0: 0, Y0: 0,
			Length: 1500e-6, Width: 2e-6 * j[0], Net: "sig", NodeA: "s0", NodeB: "s1",
		}),
		lay.AddSegment(geom.Segment{
			Layer: 1, Dir: geom.DirX, X0: 0, Y0: 80e-6 * j[1],
			Length: 1500e-6, Width: 2e-6 * j[2], Net: "ret", NodeA: "r0", NodeB: "r1",
		}),
	}
	lay.AddPlane(geom.Plane{
		Layer: 0, X0: 0, Y0: -24e-6, X1: 1500e-6, Y1: 24e-6,
		Net: "ret", NodeLeft: "p0", NodeRight: "p1",
	})
	return sweepInput{
		lay: lay, segs: segs, port: fasthenry.Port{Plus: "s0", Minus: "r0"},
		shorts: [][2]string{{"s1", "r1"}, {"p1", "s1"}, {"p0", "r0"}},
		fRef:   2e10, freqs: fasthenry.LogSpace(1e8, 2e10, sc.PlanePoints),
		cfg: engine.Config{Cache: engine.CachePrivate, PlaneNW: sc.PlaneNW}, maxPer: 2,
	}
}

func prepareBus(sc scale, seed int64) job   { return sweepJob(busInput(sc, seed)) }
func preparePlane(sc scale, seed int64) job { return sweepJob(planeInput(sc, seed)) }

// sweepJob runs rlsweep's entry sequence: a fresh session, NewSolver,
// the operator build (forced by the first OperatorStats, as on the
// iterative paths only), then the sweep over every requested point.
func sweepJob(in sweepInput) job {
	return func(tr *tracer, rec *jobRecord) error {
		var (
			s    *fasthenry.Solver
			st   extract.CompressStats
			pts  []fasthenry.Point
			sess *engine.Session
			err  error
		)
		rec.timeTotal(func() {
			tr.call("job", func() {
				sess = engine.New(in.cfg)
				d := tr.call("fasthenry.NewSolver", func() {
					s, err = fasthenry.NewSolver(in.lay, in.segs, in.port, in.shorts, in.fRef, in.options(sess))
				})
				if err != nil {
					return
				}
				if m := s.SolveModeInUse(); m == fasthenry.ModeIterative || m == fasthenry.ModeNested {
					d += tr.call("extract.OperatorStats", func() { st = s.OperatorStats() })
				}
				rec.SetupS = d.Seconds()
				tr.call("fasthenry.Sweep", func() { pts, err = s.Sweep(in.freqs) })
			})
		})
		if err != nil {
			return err
		}
		iters, anchors := 0, 0
		for _, p := range pts {
			rec.Out.Freqs = append(rec.Out.Freqs, p.Freq)
			rec.Out.Z = append(rec.Out.Z, [2]float64{real(p.Z), imag(p.Z)})
			iters += p.Iters
			if !p.Interp {
				anchors++
			}
		}
		cs := sess.CacheStats()
		rec.count("filaments", float64(s.NumFilaments()))
		rec.count("gmres_iters", float64(iters))
		rec.count("anchors", float64(anchors))
		rec.count("interp_frac", float64(len(pts)-anchors)/float64(len(pts)))
		rec.count("cache_hit_rate", cs.HitRate())
		rec.count("cache_misses", float64(cs.Misses))
		rec.count("kernel_evals", float64(st.KernelEvals))
		if st.DenseKernelEntries > 0 {
			rec.count("kernel_eval_frac", float64(st.KernelEvals)/float64(st.DenseKernelEntries))
		}
		// Computed, not measured: the bytes one operator apply streams.
		rec.count("op_mbytes", float64(st.StoredFloats)*8/1e6)
		rec.count("max_rank", float64(st.MaxRank))
		rec.count("far_blocks", float64(st.FarBlocks))
		rec.label("mode", s.SolveModeInUse().String())
		rec.label("adaptive", fmt.Sprint(sess.Config().SweepMode.Adapt(len(in.freqs))))
		rec.label("filaments", fmt.Sprint(s.NumFilaments()))
		if rec.Job == 0 || tr != nil {
			m, err := mesh.Build(in.lay, in.segs, in.shorts, in.fRef, mesh.Options{
				NW: in.nw, NT: in.nt, MaxPerSide: in.maxPer, PlaneNW: in.cfg.PlaneNW,
			})
			if err != nil {
				return err
			}
			rec.count("nodes", float64(m.NumNodes()))
			rec.label("nodes", fmt.Sprint(m.NumNodes()))
		}
		return nil
	}
}

// busOracleIdx picks the requested points the bus oracle solves
// exactly: spread over the band, most of them interpolated points of
// an adaptive sweep.
func busOracleIdx(n int) []int {
	var idx []int
	for _, f := range []float64{0.085, 0.265, 0.5, 0.745, 0.93} {
		idx = append(idx, int(f*float64(n-1)))
	}
	return idx
}

// oracleBus solves a few requested frequencies one by one, each an
// exact per-point solve with no sweep engine involved.
func oracleBus(sc scale, seed int64) (output, error) {
	in := busInput(sc, seed)
	in.cfg.SweepMode = sweep.ModeExact
	s, err := fasthenry.NewSolver(in.lay, in.segs, in.port, in.shorts, in.fRef, in.options(engine.New(in.cfg)))
	if err != nil {
		return output{}, err
	}
	var out output
	for _, i := range busOracleIdx(len(in.freqs)) {
		z, err := s.Impedance(in.freqs[i])
		if err != nil {
			return output{}, err
		}
		out.Freqs = append(out.Freqs, in.freqs[i])
		out.Z = append(out.Z, [2]float64{real(z), imag(z)})
	}
	return out, nil
}

// oraclePlane sweeps every point on the dense complex-LU path.
func oraclePlane(sc scale, seed int64) (output, error) {
	in := planeInput(sc, seed)
	in.cfg.SolveMode = fasthenry.ModeDense
	s, err := fasthenry.NewSolver(in.lay, in.segs, in.port, in.shorts, in.fRef, in.options(engine.New(in.cfg)))
	if err != nil {
		return output{}, err
	}
	pts, err := s.Sweep(in.freqs)
	if err != nil {
		return output{}, err
	}
	var out output
	for _, p := range pts {
		out.Freqs = append(out.Freqs, p.Freq)
		out.Z = append(out.Z, [2]float64{real(p.Z), imag(p.Z)})
	}
	return out, nil
}

// sweepTol is the relative port-impedance deviation a sweep may show
// against its oracle (the documented iterative and adaptive budget).
const sweepTol = 1e-6

// checkSweep matches every oracle frequency to the job's point at the
// same frequency and compares the impedances.
func checkSweep(_ scale, got, ref output) (float64, error) {
	if len(got.Z) != len(got.Freqs) || len(ref.Z) == 0 {
		return 0, errors.New("sweep output malformed")
	}
	at := map[float64]complex128{}
	for i, f := range got.Freqs {
		at[f] = complex(got.Z[i][0], got.Z[i][1])
	}
	worst := 0.0
	for i, f := range ref.Freqs {
		z, ok := at[f]
		if !ok {
			return 0, fmt.Errorf("sweep misses requested frequency %g", f)
		}
		r := complex(ref.Z[i][0], ref.Z[i][1])
		d := cmplx.Abs(z-r) / cmplx.Abs(r)
		if math.IsNaN(d) {
			return 0, fmt.Errorf("non-finite impedance at %g Hz", f)
		}
		worst = math.Max(worst, d)
	}
	if worst > sweepTol {
		return worst, fmt.Errorf("impedance deviates from oracle by %.3g (tolerance %g)", worst, sweepTol)
	}
	return worst, nil
}

// ---- Table 1 ------------------------------------------------------

// table1Options is clocksim's case at an NX x NX grid with a 2-level
// H-tree; the seed perturbs grid pitch and width and the case seed.
func table1Options(sc scale, seed int64) core.CaseOptions {
	j := jitter(seed, 2)
	opt := core.DefaultCaseOptions()
	opt.Grid.NX, opt.Grid.NY = sc.TableNX, sc.TableNX
	opt.Grid.Pitch *= j[0]
	opt.Grid.Width *= j[1]
	opt.ClockLevels = 2
	opt.Seed += seed
	opt.Engine = engine.Config{Cache: engine.CachePrivate}
	return opt
}

// flowKeys name Table 1's flows in span and metric names.
var flowKeys = map[string]string{"PEEC(RC)": "peec_rc", "PEEC(RLC)": "peec_rlc", "LOOP(RLC)": "loop"}

func prepareTable1(sc scale, seed int64) job {
	opt := table1Options(sc, seed)
	return func(tr *tracer, rec *jobRecord) error {
		var (
			c    *core.ClockCase
			rows []core.Table1Row
			err  error
		)
		rec.timeTotal(func() {
			tr.call("job", func() {
				rec.SetupS = tr.call("core.NewClockCase", func() { c, err = core.NewClockCase(opt) }).Seconds()
				if err != nil {
					return
				}
				tr.call("core.Table1", func() { rows, err = core.Table1(c, 0, 0) })
			})
		})
		if err != nil {
			return err
		}
		steps, elems, mutuals := 0, 0, 0
		table := tr.last("core.Table1")
		for _, r := range rows {
			rec.Out.Rows = append(rec.Out.Rows, tableRow{
				Model: r.Model, Counts: [4]int{r.NumR, r.NumC, r.NumL, r.NumMutual},
				Delay: r.WorstDelay, Skew: r.WorstSkew,
			})
			steps += len(r.Result.Times)
			elems += r.NumR + r.NumC + r.NumL
			mutuals = max(mutuals, r.NumMutual)
			key := flowKeys[r.Model]
			flow := tr.derived(table, "core."+key, r.Result.Runtime)
			for _, st := range r.Result.Stages {
				tr.derived(flow, stageLayer(key, st.Name)+"."+key+"_"+st.Name, st.Wall)
			}
		}
		rec.count("sim_steps", float64(steps))
		rec.count("elements", float64(elems))
		rec.count("mutuals", float64(mutuals))
		cs := c.Sess.CacheStats()
		rec.count("cache_hit_rate", cs.HitRate())
		rec.count("cache_misses", float64(cs.Misses))
		if rec.Job == 0 || tr != nil {
			return labelLoop(c, rec)
		}
		return nil
	}
}

// stageLayer maps a flow's pipeline stage to the layer doing its work.
func stageLayer(flow, stage string) string {
	switch {
	case stage == "sim":
		return "sim"
	case stage == "extract":
		return "fasthenry"
	case stage == "model" && flow != "loop":
		return "grid"
	}
	return "core"
}

// labelLoop records the solve mode and mesh size the LOOP flow's
// per-sink extraction resolves to, by lowering its first sink loop the
// way the flow does (outside the timed region).
func labelLoop(c *core.ClockCase, rec *jobRecord) error {
	lay := c.Grid.Layout
	segs := append(append([]int(nil), c.Clock.Segs...), lay.SegmentsOnNet("GND")...)
	x, y, found := 0.0, 0.0, false
	for _, si := range c.Clock.Segs {
		switch sg := &lay.Segments[si]; c.Clock.Sinks[0] {
		case sg.NodeA:
			x, y, found = sg.X0, sg.Y0, true
		case sg.NodeB:
			x, y = sg.End()
			found = true
		}
	}
	if !found {
		return fmt.Errorf("sink %q not found on the clock net", c.Clock.Sinks[0])
	}
	_, g := c.Grid.NearestGridNodes(x, y)
	o := c.Sess.SolverOptions()
	o.MaxPerSide = 2
	port := fasthenry.Port{Plus: c.Clock.Root, Minus: c.DriverGnd}
	shorts := [][2]string{{c.Clock.Sinks[0], g}}
	fRef := core.DefaultLoopOptions().FHigh
	s, err := fasthenry.NewSolver(lay, segs, port, shorts, fRef, o)
	if err != nil {
		return err
	}
	m, err := mesh.Build(lay, segs, shorts, fRef, mesh.Options{MaxPerSide: 2})
	if err != nil {
		return err
	}
	rec.count("filaments", float64(s.NumFilaments()))
	rec.count("nodes", float64(m.NumNodes()))
	rec.label("mode", s.SolveModeInUse().String())
	rec.label("filaments", fmt.Sprint(s.NumFilaments()))
	rec.label("nodes", fmt.Sprint(m.NumNodes()))
	return nil
}

func oracleTable1(sc scale, seed int64) (output, error) {
	opt := table1Options(sc, seed)
	opt.Engine.SparseThreshold = math.MaxInt32 // dense MNA at every size
	c, err := core.NewClockCase(opt)
	if err != nil {
		return output{}, err
	}
	rows, err := core.Table1(c, 0, 0)
	if err != nil {
		return output{}, err
	}
	var out output
	for _, r := range rows {
		out.Rows = append(out.Rows, tableRow{
			Model: r.Model, Counts: [4]int{r.NumR, r.NumC, r.NumL, r.NumMutual},
			Delay: r.WorstDelay, Skew: r.WorstSkew,
		})
	}
	return out, nil
}

// tableTol bounds the delay and skew deviation from the dense-MNA run,
// relative to the model's worst delay.
const tableTol = 1e-6

func checkTable1(sc scale, got, ref output) (float64, error) {
	if len(got.Rows) != 3 || len(ref.Rows) != 3 {
		return 0, fmt.Errorf("table has %d rows, want 3", len(got.Rows))
	}
	worst := 0.0
	for i, r := range got.Rows {
		if r.Counts != sc.TableCounts[i] {
			return 0, fmt.Errorf("%s element counts %v, want %v", r.Model, r.Counts, sc.TableCounts[i])
		}
		o := ref.Rows[i]
		for _, d := range []float64{r.Delay - o.Delay, r.Skew - o.Skew} {
			e := math.Abs(d) / o.Delay
			if math.IsNaN(e) {
				return 0, fmt.Errorf("%s: non-finite delay or skew", r.Model)
			}
			worst = math.Max(worst, e)
		}
	}
	if got.Rows[1].Delay <= got.Rows[0].Delay {
		return worst, fmt.Errorf("PEEC(RLC) worst delay %g not above PEEC(RC) %g", got.Rows[1].Delay, got.Rows[0].Delay)
	}
	if worst > tableTol {
		return worst, fmt.Errorf("delay/skew deviate from dense MNA by %.3g of worst delay (tolerance %g)", worst, tableTol)
	}
	return worst, nil
}

// ---- supply noise -------------------------------------------------

// supplySpec is gridnoise's analysis at an NX x NX grid; the seed
// perturbs grid pitch and width and moves the burst by up to half a
// pitch from the grid centre.
func supplySpec(sc scale, seed int64) supply.Spec {
	j := jitter(seed, 4)
	spec := supply.DefaultSpec()
	pitch := spec.Grid.Pitch * j[0]
	spec.Grid.NX, spec.Grid.NY = sc.SupplyNX, sc.SupplyNX
	spec.Grid.Pitch = pitch
	spec.Grid.Width *= j[1]
	c := float64(sc.SupplyNX-1) / 2 * pitch
	spec.Bursts[0].X = c + (j[2]-1)*25*pitch
	spec.Bursts[0].Y = c + (j[3]-1)*25*pitch
	return spec
}

// prepareSupply times supply.Analyze as gridnoise calls it. Analyze
// draws on the process-wide kernel cache, so the cache is emptied
// before each timed region to keep every job cold. The grid build
// calls Analyze makes first are repeated on their own, outside the
// Analyze timing, as the job's set-up.
func prepareSupply(sc scale, seed int64) job {
	spec := supplySpec(sc, seed)
	return func(tr *tracer, rec *jobRecord) error {
		var (
			m   *grid.Model
			par *extract.Parasitics
			p   *grid.PEECNetlist
			rep *supply.Report
			err error
		)
		tr.call("job", func() {
			extract.ResetKernelCache()
			d := tr.call("grid.BuildPowerGrid", func() { m, err = grid.BuildPowerGrid(grid.StandardLayers(), spec.Grid) })
			if err != nil {
				return
			}
			d += tr.call("extract.Extract", func() { par = extract.Extract(m.Layout, extract.DefaultOptions()) })
			d += tr.call("grid.BuildPEECNetlist", func() {
				p, err = grid.BuildPEECNetlist(m.Layout, par, grid.PEECOptions{Mode: grid.ModeRLC})
			})
			if err != nil {
				return
			}
			rec.SetupS = d.Seconds()
			extract.ResetKernelCache()
			rec.timeTotal(func() {
				tr.call("supply.Analyze", func() { rep, err = supply.Analyze(spec) })
			})
		})
		if err != nil {
			return err
		}
		rec.Out.StaticIR, rec.Out.WorstDroop, rec.Out.DroopNodes = rep.StaticIR, rep.WorstDroop, len(rep.NodeDroop)
		st := p.Netlist.Stats()
		rec.count("mutuals", float64(p.MutualCount))
		rec.count("elements", float64(st.NumR+st.NumC+st.NumL))
		cs := extract.KernelCacheStats()
		rec.count("cache_hit_rate", cs.HitRate())
		rec.count("cache_misses", float64(cs.Misses))
		rec.label("ir_solver", "default")
		return nil
	}
}

// oracleSupply solves the static IR reference with the sparse direct
// Cholesky path instead of the default dense solve.
func oracleSupply(sc scale, seed int64) (output, error) {
	spec := supplySpec(sc, seed)
	spec.IRSolver = "chol"
	rep, err := supply.Analyze(spec)
	if err != nil {
		return output{}, err
	}
	return output{StaticIR: rep.StaticIR, WorstDroop: rep.WorstDroop, DroopNodes: len(rep.NodeDroop)}, nil
}

// irTol is the static-IR budget against the Cholesky reference, in
// volts. The sparse DC system enforces voltage sources and inductor
// shorts with a 1e6 S penalty conductance, so each one on the burst's
// current path shifts the drop by I/1e6: 25 nV at the default 25 mA.
// A wrong solve is off by millivolts. The droop comes from the same
// transient in both runs and must agree to droopTol relative.
const (
	irTol    = 1e-6
	droopTol = 1e-9
)

func checkSupply(sc scale, got, ref output) (float64, error) {
	if got.DroopNodes != sc.SupplyNX*sc.SupplyNX {
		return 0, fmt.Errorf("droop reported at %d nodes, want %d", got.DroopNodes, sc.SupplyNX*sc.SupplyNX)
	}
	if !(got.WorstDroop > 0) || !(got.StaticIR > 0) {
		return 0, fmt.Errorf("droop %g or static IR %g not positive", got.WorstDroop, got.StaticIR)
	}
	ir := math.Abs(got.StaticIR - ref.StaticIR)
	droop := math.Abs(got.WorstDroop-ref.WorstDroop) / ref.WorstDroop
	if ir > irTol || droop > droopTol {
		return math.Max(ir, droop), fmt.Errorf("static IR %g vs Cholesky %g, droop %g vs %g: outside tolerance",
			got.StaticIR, ref.StaticIR, got.WorstDroop, ref.WorstDroop)
	}
	return math.Max(ir, droop), nil
}
