package main

import (
	"fmt"
	"time"
)

// endToEnd and perLayer are the metric catalogs, in the order and with
// the units BENCHMARK.json lists them. Every run reports every metric of
// its mode; a layer a workload does not pass through reads 0.
type catalog []struct{ name, unit string }

var endToEnd = catalog{
	{"setup_s", "s"},
	{"paths_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = catalog{
	{"adl.load_ms", "ms"},
	{"minic.compile_ms", "ms"},
	{"asm.assemble_ms", "ms"},
	{"core.new_engine_ms", "ms"},
	{"core.run_s", "s"},
	{"core.self_s", "s"},
	{"core.idle_share", "ratio"},
	{"core.alloc_kb_per_fork", "KB"},
	{"core.live_states_max", "count"},
	{"core.insns", "count"},
	{"core.forks", "count"},
	{"core.paths", "count"},
	{"core.infeasible", "count"},
	{"decoder.calls", "count"},
	{"decoder.s", "s"},
	{"rtl.compiled_units", "count"},
	{"rtl.superblock_share", "ratio"},
	{"expr.terms", "count"},
	{"checker.calls", "count"},
	{"checker.s", "s"},
	{"smt.queries", "count"},
	{"smt.clauses", "count"},
	{"smt.aux_vars", "count"},
	{"smt.check_s", "s"},
	{"smt.blast_s", "s"},
	{"sat.solve_s", "s"},
	{"smt.cache_hit_rate", "ratio"},
	{"service.submit_ms", "ms"},
	{"service.first_event_ms", "ms"},
	{"service.engine_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.journal_appends", "count"},
	{"service.checkpoints", "count"},
	{"service.persist_flushed", "count"},
	{"service.cache_cross_hits", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"scaling.speedup", "x"},
	{"scaling.loss_s", "s"},
	{"scaling.loss_idle_s", "s"},
	{"scaling.loss_sat_s", "s"},
	{"scaling.loss_gc_s", "s"},
	{"scaling.loss_other_s", "s"},
	{"trace.overhead", "ratio"},
	{"trace.unaccounted_share", "ratio"},
}

// units maps every metric of both catalogs to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range append(append(catalog(nil), endToEnd...), perLayer...) {
		u[m.name] = m.unit
	}
	return u
}()

// fillLayers gives every per-layer metric the workload did not measure
// the value 0.
func (b *bench) fillLayers() {
	for _, m := range perLayer {
		if _, ok := b.metrics[m.name]; !ok {
			b.set(m.name, 0)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerMetrics derives the per-layer metrics of a traced ladder or csort
// run. Times are per round (one exploration of every ISA), averaged
// over the traced rounds at the workload's own worker count; counts are
// per round and exact.
func (b *bench) layerMetrics(rounds []round) {
	main := rounds[0].workers // the first cycle step is the workload's own configuration
	var traced, untraced, single []round
	for _, r := range rounds {
		switch {
		case !r.traced && r.workers == main:
			untraced = append(untraced, r)
		case r.traced && r.workers == main:
			traced = append(traced, r)
		case r.traced && r.workers == 1:
			single = append(single, r)
		}
	}
	n := float64(len(traced))
	var load, compile, assemble, engine []float64
	var run, self, check, blast, solve, chk, dec, gc time.Duration
	var capacity, busy time.Duration
	var alloc, forks, hits, queries, sbInsns, insns float64
	liveMax := 0
	for _, r := range traced {
		var st setupTimes
		for _, x := range r.xs {
			st.load += x.setup.load
			st.compile += x.setup.compile
			st.assemble += x.setup.assemble
			st.engine += x.setup.engine
			s := x.rep.Stats
			run += x.wall
			self += x.coreSelf()
			check += x.check
			blast += s.Solver.BlastTime
			solve += s.Solver.SolveTime
			chk += x.checker
			dec += x.decode
			capacity += time.Duration(x.workers) * x.wall
			busy += x.busy
			gc += time.Duration(x.rt.gcCPU * 1e9)
			alloc += x.rt.allocBytes
			forks += float64(s.Forks)
			hits += float64(s.Solver.CacheHits)
			queries += float64(s.Solver.Queries)
			sbInsns += float64(s.SuperblockInsns)
			insns += float64(s.Instructions)
			liveMax = max(liveMax, s.MaxLiveSet)
		}
		load = append(load, ms(st.load))
		compile = append(compile, ms(st.compile))
		assemble = append(assemble, ms(st.assemble))
		engine = append(engine, ms(st.engine))
	}
	per := func(d time.Duration) float64 { return d.Seconds() / n }
	b.set("adl.load_ms", median(load))
	b.set("minic.compile_ms", median(compile))
	b.set("asm.assemble_ms", median(assemble))
	b.set("core.new_engine_ms", median(engine))
	b.set("core.run_s", per(run))
	b.set("core.self_s", per(self))
	b.set("core.idle_share", 1-busy.Seconds()/capacity.Seconds())
	b.set("core.alloc_kb_per_fork", alloc/forks/1024)
	b.set("core.live_states_max", float64(liveMax))
	b.set("smt.check_s", per(check))
	b.set("smt.blast_s", per(blast))
	b.set("sat.solve_s", per(solve))
	b.set("checker.s", per(chk))
	b.set("decoder.s", per(dec))
	b.set("smt.cache_hit_rate", hits/queries)
	b.set("rtl.superblock_share", sbInsns/insns)
	b.set("runtime.gc_cpu_s", per(gc))
	b.set("runtime.alloc_mb", alloc/n/(1<<20))

	// Counts of one round (they repeat exactly at one worker; at two,
	// the schedule-dependent ones are averaged).
	cnt := map[string]float64{}
	for _, r := range traced {
		for _, x := range r.xs {
			s := x.rep.Stats
			cnt["core.insns"] += float64(s.Instructions)
			cnt["core.forks"] += float64(s.Forks)
			cnt["core.paths"] += float64(x.paths)
			cnt["core.infeasible"] += float64(s.Infeasible)
			cnt["decoder.calls"] += float64(s.DecodeCalls)
			cnt["rtl.compiled_units"] += float64(s.CompiledUnits)
			cnt["expr.terms"] += float64(x.terms)
			cnt["checker.calls"] += float64(x.checkerCalls)
			cnt["smt.queries"] += float64(s.Solver.Queries)
			cnt["smt.clauses"] += float64(s.Solver.Clauses)
			cnt["smt.aux_vars"] += float64(s.Solver.AuxVars)
		}
	}
	for k, v := range cnt {
		b.set(k, v/n)
	}

	// Tracing overhead: traced against untraced rounds of the same
	// configuration, interleaved.
	var tw, uw []float64
	for _, r := range traced {
		tw = append(tw, r.sum(runWall, false))
	}
	for _, r := range untraced {
		uw = append(uw, r.sum(runWall, false))
	}
	b.set("trace.overhead", median(tw)/median(uw)-1)

	if main > 1 && len(single) > 0 {
		b.scaling(traced, single, main)
	}
	b.set("trace.unaccounted_share", b.unaccounted())
	b.fillLayers()
}

// scaling splits the loss of the multi-worker rounds against ideal
// scaling of the one-worker rounds. The loss is the worker-seconds a
// round takes beyond the one-worker time: idle workers, extra SAT
// search, extra GC CPU, and the rest (term transfer, contention).
func (b *bench) scaling(multi, single []round, workers int) {
	type agg struct{ wall, idle, solve, gc float64 }
	sum := func(rs []round) agg {
		var a agg
		for _, r := range rs {
			for _, x := range r.xs {
				a.wall += x.wall.Seconds()
				a.idle += (time.Duration(x.workers)*x.wall - x.busy).Seconds()
				a.solve += x.rep.Stats.Solver.SolveTime.Seconds()
				a.gc += x.rt.gcCPU
			}
		}
		n := float64(len(rs))
		return agg{a.wall / n, a.idle / n, a.solve / n, a.gc / n}
	}
	m, s := sum(multi), sum(single)
	loss := float64(workers)*m.wall - s.wall
	b.set("scaling.speedup", s.wall/m.wall)
	b.set("scaling.loss_s", loss)
	b.set("scaling.loss_idle_s", m.idle)
	b.set("scaling.loss_sat_s", m.solve-s.solve)
	b.set("scaling.loss_gc_s", m.gc-s.gc)
	b.set("scaling.loss_other_s", loss-m.idle-(m.solve-s.solve)-(m.gc-s.gc))
	fmt.Printf("scaling 1->%d workers: %.2fx; loss %.3fs per round = idle %.3f + sat %.3f + gc %.3f + other %.3f\n",
		workers, s.wall/m.wall, loss, m.idle, m.solve-s.solve, m.gc-s.gc, loss-m.idle-(m.solve-s.solve)-(m.gc-s.gc))
}

// unaccounted is the share of the measured window that no root span
// covers: benchmark time between the calls it makes.
func (b *bench) unaccounted() float64 {
	var covered time.Duration
	var lo, hi time.Duration = -1, 0
	for _, s := range b.tr.spans {
		if s.Parent != 0 || s.Name == "bench.setup" {
			continue
		}
		covered += s.Dur
		if lo < 0 || s.Start < lo {
			lo = s.Start
		}
		hi = max(hi, s.Start+s.Dur)
	}
	if hi <= lo {
		return 0
	}
	return 1 - covered.Seconds()/(hi-lo).Seconds()
}
