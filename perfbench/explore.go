package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/arch"
	"repro/internal/adl"
	"repro/internal/asm"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/prog"
)

// target is one ISA's build of a workload program.
type target struct {
	name  string // label in reports and exact counts
	prog  int    // which of the workload's programs it builds
	isa   string
	src   string // assembly, or MiniC source when minic is set
	minic bool
}

// setupTimes are the set-up calls of one exploration.
type setupTimes struct{ load, compile, assemble, engine time.Duration }

func (s setupTimes) total() time.Duration { return s.load + s.compile + s.assemble + s.engine }

// exploration is one measured Engine.Run.
type exploration struct {
	isa     string
	name    string // the target's label
	prog    int    // the target's program
	setup   setupTimes
	wall    time.Duration // the Run call
	workers int
	rep     *core.Report // only Stats is kept once the round is checked
	paths   int          // completed paths
	rt      rtSample     // runtime counters across the Run call
	peakMB  float64      // resident-set high-water mark of set-up and run
	speed   float64      // host speed around the exploration (see calib.go)
	terms   int          // Builder.NumTerms after the run

	// Traced explorations only: layer times derived from the counters
	// the engine exports (worker-seconds).
	check, decode time.Duration // smt_check_seconds, engine_decode_seconds
	checker       time.Duration // checker self time (nested solver time excluded)
	checkerCalls  int64
	busy          time.Duration // Σ WorkerStat.Busy (= wall when serial)
}

// timedChecker wraps a checker to time its hooks from the outside. The
// solver time a hook spends in nested queries is subtracted, because
// smt.check already counts it.
type timedChecker struct {
	core.Checker
	calls, ns *atomic.Int64
}

func (c timedChecker) Div(ctx *core.CheckCtx, d *expr.Expr) {
	t0, s0 := time.Now(), solverTime(ctx)
	c.Checker.Div(ctx, d)
	c.done(ctx, t0, s0)
}

func (c timedChecker) MemAccess(ctx *core.CheckCtx, addr *expr.Expr, cells uint, isWrite bool) {
	t0, s0 := time.Now(), solverTime(ctx)
	c.Checker.MemAccess(ctx, addr, cells, isWrite)
	c.done(ctx, t0, s0)
}

func (c timedChecker) Jump(ctx *core.CheckCtx, target *expr.Expr) {
	t0, s0 := time.Now(), solverTime(ctx)
	c.Checker.Jump(ctx, target)
	c.done(ctx, t0, s0)
}

func (c timedChecker) done(ctx *core.CheckCtx, t0 time.Time, s0 time.Duration) {
	c.calls.Add(1)
	c.ns.Add(int64(time.Since(t0) - (solverTime(ctx) - s0)))
}

func solverTime(ctx *core.CheckCtx) time.Duration {
	st := &ctx.Engine.Solver.Stats
	return st.BlastTime + st.SolveTime
}

// build loads the ADL, compiles (MiniC targets) and assembles one
// target, timing each call and recording it under parent.
func build(t target, tr *tracer, parent int) (*adl.Arch, *prog.Program, setupTimes, error) {
	var st setupTimes
	id := tr.begin("adl.load", parent)
	t0 := time.Now()
	a, err := arch.Load(t.isa)
	st.load = time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, nil, st, err
	}
	src := t.src
	if t.minic {
		id = tr.begin("minic.compile", parent)
		t0 = time.Now()
		src, err = minic.CompileSource(t.isa+".c", t.src, t.isa)
		st.compile = time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, nil, st, err
		}
	}
	id = tr.begin("asm.assemble", parent)
	t0 = time.Now()
	p, err := asm.New(a).Assemble(t.isa+".s", src)
	st.assemble = time.Since(t0)
	tr.end(id)
	return a, p, st, err
}

// setup builds one target and constructs its engine with every
// checker, wrapped by wrap when it is not nil.
func setup(t target, opts core.Options, wrap func(core.Checker) core.Checker, tr *tracer, parent int) (*core.Engine, setupTimes, error) {
	a, p, st, err := build(t, tr, parent)
	if err != nil {
		return nil, st, err
	}
	id := tr.begin("core.new_engine", parent)
	t0 := time.Now()
	e := core.NewEngine(a, p, opts)
	for _, c := range checker.All() {
		if wrap != nil {
			c = wrap(c)
		}
		e.AddChecker(c)
	}
	st.engine = time.Since(t0)
	tr.end(id)
	return e, st, nil
}

// explore sets up and runs one target, recording spans under parent.
func (b *bench) explore(t target, opts core.Options, traced bool, parent int) (exploration, error) {
	x := exploration{isa: t.isa, name: t.name, prog: t.prog, workers: max(opts.Workers, 1)}
	tr := b.tr
	var reg *obs.Obs
	var calls, ns atomic.Int64
	var wrap func(core.Checker) core.Checker
	if traced {
		reg = obs.New()
		opts.Obs = reg
		wrap = func(c core.Checker) core.Checker { return timedChecker{Checker: c, calls: &calls, ns: &ns} }
	} else {
		tr = nil
	}
	e, st, err := setup(t, opts, wrap, tr, parent)
	x.setup = st
	if err != nil {
		return x, err
	}

	rt0 := readRuntime()
	run := tr.begin("core.run", parent)
	t0 := time.Now()
	x.rep, err = e.Run()
	x.wall = time.Since(t0)
	tr.end(run)
	x.rt = readRuntime().sub(rt0)
	if err != nil {
		return x, err
	}
	x.paths = len(x.rep.Paths)
	x.terms = e.B.NumTerms()
	if !traced {
		return x, nil
	}

	r := reg.Registry()
	x.check = r.Histogram("smt_check_seconds", "", obs.TimeBuckets).SumDuration()
	x.decode = r.Histogram("engine_decode_seconds", "", obs.TimeBuckets).SumDuration()
	x.checker, x.checkerCalls = time.Duration(ns.Load()), calls.Load()
	x.busy = x.wall
	if ws := x.rep.Stats.WorkerStats; len(ws) > 0 {
		x.busy = 0
		for _, w := range ws {
			x.busy += w.Busy
		}
	}
	sol := x.rep.Stats.Solver
	tr.setWidth(run, float64(x.workers))
	chk := tr.derive(run, "smt.check", x.check)
	tr.derive(chk, "smt.blast", sol.BlastTime)
	tr.derive(chk, "sat.solve", sol.SolveTime)
	tr.derive(run, "checker", x.checker)
	tr.derive(run, "decoder", x.decode)
	if x.workers > 1 {
		tr.derive(run, "core.idle", time.Duration(x.workers)*x.wall-x.busy)
	}
	if self := x.coreSelf(); self < -x.wall/100 {
		fmt.Printf("warning: %s layer times exceed the run span by %v\n", t.name, -self)
	}
	return x, nil
}

// coreSelf is the run span minus its measured children, in
// worker-seconds: step, RTL execution, memory and fork cloning, the
// frontier and query-cache lookups.
func (x exploration) coreSelf() time.Duration {
	return x.busy - x.check - x.checker - x.decode
}

// round is one operation of the ladder and csort workloads: the seed's
// program set up and explored on every ISA of the workload, in turn.
type round struct {
	xs      []exploration
	traced  bool
	workers int
}

// sum adds f over the round's explorations; scaled multiplies each
// exploration's share by the host speed around it (see calib.go).
func (r round) sum(f func(exploration) time.Duration, scaled bool) float64 {
	var s float64
	for _, x := range r.xs {
		v := f(x).Seconds()
		if scaled {
			v *= x.speed
		}
		s += v
	}
	return s
}

func runWall(x exploration) time.Duration   { return x.wall }
func setupTime(x exploration) time.Duration { return x.setup.total() }
func latency(x exploration) time.Duration   { return x.setup.total() + x.wall }

// peakMB is the largest resident-set high-water mark of the round's
// explorations.
func (r round) peakMB() float64 {
	var m float64
	for _, x := range r.xs {
		m = max(m, x.peakMB)
	}
	return m
}

func (r round) paths() int {
	n := 0
	for _, x := range r.xs {
		n += x.paths
	}
	return n
}

// exploreSpec describes an exploration workload.
type exploreSpec struct {
	name      string
	targets   []target
	opts      core.Options
	wantPaths int
	exact     []string // counters that must repeat bit for bit
	par       int      // goroutines busy in a measured exploration
}

// runRound explores every target once and checks the results. sp is
// the host speed measured just before the round; it returns the speed
// measured just after. Between two explorations the benchmark collects
// the garbage and measures the host speed, so each exploration starts
// from the same heap and is scaled by the speed around it.
func (b *bench) runRound(s exploreSpec, workers int, traced bool, sp float64) (round, float64, error) {
	opts := s.opts
	opts.Workers = workers
	r := round{traced: traced, workers: workers}
	name := fmt.Sprintf("%s.round.w%d", s.name, workers)
	if !traced {
		name += ".untraced"
	}
	id := b.tr.begin(name, 0)
	var bad []string
	for _, t := range s.targets {
		x, err := b.explore(t, opts, traced, id)
		if err != nil {
			b.tr.end(id)
			return r, 0, fmt.Errorf("%s %s: %w", s.name, t.name, err)
		}
		x.peakMB = peakRSSMB()
		// Check the paths now and keep only the statistics, so no
		// exploration's memory carries into the next one's.
		chk := b.tr.begin("bench.check", id)
		bad = append(bad, checkExploration(s, x)...)
		x.rep = &core.Report{Stats: x.rep.Stats}
		b.tr.end(chk)
		b.settle(id)
		after := b.speed(s.par, id)
		x.speed = (sp + after) / 2
		sp = after
		r.xs = append(r.xs, x)
	}
	b.tr.end(id)

	chk := b.tr.begin("bench.check", 0)
	b.op(append(bad, b.checkRound(s, r)...)...)
	b.tr.end(chk)
	fmt.Printf("round w%d traced=%v: latency %.4fs (scaled %.4fs), %.6g paths/s (scaled %.6g), peak %.1f MB\n",
		workers, traced, r.sum(latency, false), r.sum(latency, true),
		float64(r.paths())/r.sum(runWall, false), float64(r.paths())/r.sum(runWall, true), r.peakMB())
	return r, sp, nil
}

// checkExploration applies the workload's correctness checks to the
// paths of one exploration and returns the failures.
func checkExploration(s exploreSpec, x exploration) []string {
	var bad []string
	st := x.rep.Stats
	if len(x.rep.Paths) != s.wantPaths {
		bad = append(bad, fmt.Sprintf("%s %s: %d paths, want %d", s.name, x.name, len(x.rep.Paths), s.wantPaths))
	}
	if len(x.rep.Faults) != 0 || st.PathFaults != 0 || st.StatesKilled != 0 || len(x.rep.Bugs) != 0 {
		bad = append(bad, fmt.Sprintf("%s %s: %d faults, %d killed states, %d bugs, want none",
			s.name, x.name, len(x.rep.Faults), st.StatesKilled, len(x.rep.Bugs)))
	}
	for _, p := range x.rep.Paths {
		if p.Status != core.StatusExit {
			bad = append(bad, fmt.Sprintf("%s %s: path %d ended %s, want exit", s.name, x.name, p.ID, p.Status))
			break
		}
	}
	return bad
}

// checkRound applies the workload's checks across the explorations of
// one round, from their statistics, and returns the failures.
func (b *bench) checkRound(s exploreSpec, r round) []string {
	var bad []string
	// Retargeting invariant: the same program explores the same path
	// tree on every ISA.
	first := map[int]exploration{}
	for _, x := range r.xs {
		f, ok := first[x.prog]
		if !ok {
			first[x.prog] = x
			continue
		}
		st, fs := x.rep.Stats, f.rep.Stats
		if st.PathsDone != fs.PathsDone || st.Forks != fs.Forks || st.Solver.Queries != fs.Solver.Queries {
			bad = append(bad, fmt.Sprintf("%s: %s explored %d paths/%d forks/%d queries, %s %d/%d/%d",
				s.name, x.name, st.PathsDone, st.Forks, st.Solver.Queries,
				f.name, fs.PathsDone, fs.Forks, fs.Solver.Queries))
		}
	}
	// Exact counters repeat across rounds of the same seed.
	c := exactCounts(r, s.exact)
	if b.counts == nil {
		b.counts = c
	} else if d := b.counts.diff(c); d != "" {
		bad = append(bad, fmt.Sprintf("%s: exact counts differ between rounds: %s", s.name, d))
	}
	return bad
}

// exactCounts extracts the named per-ISA counters of a round.
func exactCounts(r round, names []string) counts {
	c := counts{}
	for _, x := range r.xs {
		st := x.rep.Stats
		all := map[string]int64{
			"core.paths":           int64(x.paths),
			"core.forks":           st.Forks,
			"core.infeasible":      st.Infeasible,
			"core.insns":           st.Instructions,
			"smt.queries":          st.Solver.Queries,
			"smt.clauses":          st.Solver.Clauses,
			"smt.aux_vars":         st.Solver.AuxVars,
			"decoder.calls":        st.DecodeCalls,
			"rtl.compiled_units":   st.CompiledUnits,
			"rtl.superblock_insns": st.SuperblockInsns,
			"expr.terms":           int64(x.terms),
		}
		for _, n := range names {
			c[x.name+"."+n] = all[n]
		}
	}
	return c
}

// loopRounds runs rounds of the given worker counts (cycling through
// them) until the time is up, finishing at least minOps cycles. sp is
// the host speed measured just before the first round.
func (b *bench) loopRounds(s exploreSpec, cycle []cycleStep, sp float64) ([]round, time.Duration, error) {
	var rounds []round
	t0 := time.Now()
	var cycleCost time.Duration
	for n := 0; ; n++ {
		elapsed := time.Since(t0)
		if n >= b.size.minOps && elapsed+cycleCost/time.Duration(n) > b.seconds {
			break
		}
		for _, c := range cycle {
			r, after, err := b.runRound(s, c.workers, c.traced, sp)
			sp = after
			if err != nil {
				return nil, 0, err
			}
			rounds = append(rounds, r)
		}
		cycleCost = time.Since(t0)
	}
	return rounds, time.Since(t0), nil
}

// setupSamples times extra set-ups (ADL load, compile, assemble, engine
// construction for every target) so setup_s is a median of several.
// Set-up is serial; each sample is scaled by the one-goroutine host
// speed measured just before and after it.
func (b *bench) setupSamples(s exploreSpec) ([]float64, error) {
	var out []float64
	sp := b.speed(1, 0)
	for i := 0; i < b.size.setupReps; i++ {
		id := b.tr.begin("bench.setup", 0)
		var d time.Duration
		for _, t := range s.targets {
			_, st, err := setup(t, s.opts, nil, nil, 0)
			if err != nil {
				b.tr.end(id)
				return nil, err
			}
			d += st.total()
		}
		b.tr.end(id)
		after := b.speed(1, 0)
		out = append(out, d.Seconds()*(sp+after)/2)
		sp = after
	}
	return out, nil
}

// ---- the two exploration workloads ----

// ladderSpec draws the seed's ladders. A round explores every one of
// them on both ISAs: how fast the solver decides a rung depends on its
// threshold, so one ladder per run would make the throughput depend on
// the seed's draw; several average the draw out.
func (b *bench) ladderSpec() exploreSpec {
	rng := rand.New(rand.NewSource(b.seed))
	k := b.size.ladderK
	var ts []target
	for i := 0; i < b.size.ladders; i++ {
		rs := ladderRungs(rng, k)
		for _, isa := range []string{"tiny32", "rv32i"} {
			ts = append(ts, target{name: fmt.Sprintf("l%d.%s", i, isa), prog: i, isa: isa, src: ladderAsm(isa, rs)})
		}
	}
	return exploreSpec{
		name:      "ladder",
		targets:   ts,
		opts:      core.Options{InputBytes: k, MaxPaths: 1 << (k + 1)},
		wantPaths: 1 << k,
		par:       2,
		// Solver CNF sizes, decodes, compiled units and term counts are
		// per-worker and depend on the schedule at two workers.
		exact: []string{"core.paths", "core.forks", "core.infeasible", "core.insns", "smt.queries"},
	}
}

func (b *bench) csortSpec() exploreSpec {
	p := newCsortParams(rand.New(rand.NewSource(b.seed)), b.size.csortN, b.size.csortT)
	src := csortSrc(p)
	fact := factorial(p.n)
	var ts []target
	for _, isa := range []string{"tiny32", "rv32i", "m16"} {
		ts = append(ts, target{name: isa, isa: isa, src: src, minic: true})
	}
	return exploreSpec{
		name:      "csort",
		targets:   ts,
		opts:      core.Options{InputBytes: p.n, MaxPaths: 2 * fact, MaxSteps: 200000},
		wantPaths: fact,
		par:       1,
		exact: []string{"core.paths", "core.forks", "core.infeasible", "core.insns", "smt.queries",
			"smt.clauses", "smt.aux_vars", "decoder.calls", "rtl.compiled_units", "rtl.superblock_insns", "expr.terms"},
	}
}

type cycleStep = struct {
	workers int
	traced  bool
}

func (b *bench) runLadder() error {
	s := b.ladderSpec()
	cycle := []cycleStep{{2, false}}
	if b.traced {
		// Untraced and traced rounds alternate (the tracing overhead),
		// and a one-worker round explains the two-worker scaling.
		cycle = []cycleStep{{2, false}, {2, true}, {1, true}}
	}
	return b.runExplore(s, cycle)
}

func (b *bench) runCsort() error {
	s := b.csortSpec()
	cycle := []cycleStep{{1, false}}
	if b.traced {
		cycle = []cycleStep{{1, false}, {1, true}}
	}
	return b.runExplore(s, cycle)
}

func (b *bench) runExplore(s exploreSpec, cycle []cycleStep) error {
	b.settle(0)
	setups, err := b.setupSamples(s)
	if err != nil {
		return err
	}
	b.settle(0)
	sp := b.speed(s.par, 0)
	rounds, window, err := b.loopRounds(s, cycle, sp)
	if err != nil {
		return err
	}
	if b.traced {
		b.layerMetrics(rounds)
		return nil
	}
	// Every time is scaled by the host speed measured around it.
	var lat, peak, speeds []float64
	var paths, wall float64
	for _, r := range rounds {
		setups = append(setups, r.sum(setupTime, true))
		lat = append(lat, r.sum(latency, true))
		peak = append(peak, r.peakMB())
		for _, x := range r.xs {
			speeds = append(speeds, x.speed)
		}
		paths += float64(r.paths())
		wall += r.sum(runWall, true)
	}
	b.set("setup_s", median(setups))
	b.set("paths_per_s", paths/wall)
	b.set("job_p50_s", median(lat))
	b.set("jobs_per_s", 1/mean(lat))
	b.set("peak_rss_mb", median(peak))
	var rawWall float64
	for _, r := range rounds {
		rawWall += r.sum(runWall, false)
	}
	fmt.Printf("%d rounds of %d explorations in %.1fs; host speed %.3f (%.3f..%.3f); unscaled paths_per_s %.6g\n",
		len(rounds), len(s.targets), window.Seconds(), median(speeds), quantile(speeds, 0), quantile(speeds, 1), paths/rawWall)
	return nil
}
