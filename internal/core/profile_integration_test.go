package core_test

import (
	"bytes"
	"testing"

	"repro/arch"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/profile"
)

// TestProfileMatchesStats checks that every view of the engine's
// counter blocks agrees exactly with Stats: the folded profile, the
// final Progress snapshot, the registry's engine_* series and the
// ledger record built from the run. A view must not drop or
// double-count events across worker blocks, frontier kills, concolic
// runs or a resumed checkpoint. The parallel rows are the -race
// workout for the blocks and the shard-fold discipline.
func TestProfileMatchesStats(t *testing.T) {
	a := arch.MustLoad("tiny32")
	p := build(t, "tiny32", harness.BranchLadder("tiny32", 7))
	base := core.Options{InputBytes: 7, MaxPaths: 5000}

	// A mid-run checkpoint of a serial run, through the wire form.
	var snaps []*core.Snapshot
	ck := base
	ck.CheckpointEvery = -1
	ck.Checkpoint = func(s *core.Snapshot) { snaps = append(snaps, s) }
	if _, err := core.NewEngine(a, p, ck).Run(); err != nil {
		t.Fatal(err)
	}
	blob, err := snaps[len(snaps)/2].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.UnmarshalSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		workers  int
		concolic bool
		resume   *core.Snapshot
	}{
		{name: "serial", workers: 1},
		{name: "workers2", workers: 2},
		{name: "parallel", workers: 4},
		{name: "concolic", workers: 1, concolic: true},
		{name: "resumed", workers: 1, resume: snap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prof := profile.New(profile.Meta{ADL: "tiny32"})
			prog := &core.Progress{}
			o := obs.New()
			opts := base
			opts.Workers, opts.Resume = tc.workers, tc.resume
			opts.Profile, opts.Progress, opts.Obs = prof, prog, o
			e := core.NewEngine(a, p, opts)
			var st core.Stats
			paths := 0
			if tc.concolic {
				r, err := e.Concolic(nil, 64)
				if err != nil {
					t.Fatal(err)
				}
				st, paths = r.Stats, len(r.Paths)
			} else {
				r, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				st, paths = r.Stats, len(r.Paths)
			}
			eq := func(view, field string, got, want int64) {
				t.Helper()
				if got != want {
					t.Errorf("%s %s = %d, want %d", view, field, got, want)
				}
			}
			eq("Stats", "PathsDone", int64(st.PathsDone), int64(paths))

			// The profile covers this process's leg of the run only: a
			// resumed run's checkpointed counts are not in it.
			var prior core.Stats
			if tc.resume != nil {
				prior = tc.resume.Stats
			}
			snapP := prof.Snapshot()
			if len(snapP.PCs) == 0 {
				t.Fatal("profile recorded no PCs")
			}
			var execs, queries, hits, misses, forks, infeasible, kills, solverNS int64
			for _, s := range snapP.PCs {
				execs += s.Execs
				queries += s.SolverQueries
				hits += s.CacheHits
				misses += s.CacheMisses
				forks += s.Forks
				infeasible += s.Infeasible
				kills += s.Kills
				solverNS += s.SolverNS
			}
			eq("profile", "execs", execs, st.Instructions-prior.Instructions)
			eq("profile", "solver queries", queries, st.Solver.Queries-prior.Solver.Queries)
			eq("profile", "cache hits", hits, st.Solver.CacheHits-prior.Solver.CacheHits)
			eq("profile", "hits+misses", hits+misses, queries)
			eq("profile", "forks", forks, st.Forks-prior.Forks)
			eq("profile", "infeasible", infeasible, st.Infeasible-prior.Infeasible)
			eq("profile", "kills", kills, int64(st.StatesKilled-prior.StatesKilled))
			// The attributed solver time must be positive and the report
			// renderable on real data.
			if queries > 0 && solverNS == 0 {
				t.Error("queries recorded but zero attributed solver time")
			}
			var pprofBuf, textBuf bytes.Buffer
			if err := prof.WritePprof(&pprofBuf); err != nil {
				t.Fatalf("WritePprof: %v", err)
			}
			if _, err := profile.Parse(pprofBuf.Bytes()); err != nil {
				t.Fatalf("Parse(WritePprof output): %v", err)
			}
			if err := prof.WriteText(&textBuf); err != nil {
				t.Fatalf("WriteText: %v", err)
			}
			if textBuf.Len() == 0 {
				t.Error("empty hotspot report")
			}

			ps := prog.Snapshot()
			eq("Progress", "Instructions", ps.Instructions, st.Instructions)
			eq("Progress", "Paths", ps.Paths, int64(st.PathsDone))
			eq("Progress", "Forks", ps.Forks, st.Forks)
			eq("Progress", "Covered", ps.Covered, int64(st.Coverage))
			eq("Progress", "Degraded", ps.Degraded, st.Degraded.Total())
			eq("Progress", "SolverQueries", ps.SolverQueries, st.Solver.Queries)
			eq("Progress", "CacheHits", ps.CacheHits, st.Solver.CacheHits)
			eq("Progress", "Frontier after run end", ps.Frontier, 0)
			if ps.SolverQueries > ps.CacheHits && ps.SolverNS == 0 {
				t.Error("solved queries recorded but zero solver time")
			}

			reg := o.Registry()
			series := func(name string) int64 { return reg.Counter(name, "").Value() }
			eq("registry", "engine_instructions_total", series("engine_instructions_total"), st.Instructions)
			eq("registry", "engine_forks_total", series("engine_forks_total"), st.Forks)
			eq("registry", "engine_infeasible_total", series("engine_infeasible_total"), st.Infeasible)
			eq("registry", "engine_paths_completed_total", series("engine_paths_completed_total"), int64(st.PathsDone))
			eq("registry", "engine_states_killed_total", series("engine_states_killed_total"), int64(st.StatesKilled))
			eq("registry", "engine_decode_calls_total", series("engine_decode_calls_total"), st.DecodeCalls)
			eq("registry", "engine_compiled_units_total", series("engine_compiled_units_total"), st.CompiledUnits)
			eq("registry", "engine_superblock_insns_total", series("engine_superblock_insns_total"), st.SuperblockInsns)
			eq("registry", "engine_live_states_max", reg.Gauge("engine_live_states_max", "").Value(), int64(st.MaxLiveSet))
			eq("registry", "engine_frontier_depth", reg.Gauge("engine_frontier_depth", "").Value(), 0)

			rec := ledger.Build(ledger.BuildInput{Stats: st, Profile: prof.Report()})
			eq("ledger", "instructions", rec.Instructions, st.Instructions)
			eq("ledger", "paths", rec.Paths, int64(st.PathsDone))
			eq("ledger", "forks", rec.Forks, st.Forks)
			eq("ledger", "solver queries", rec.SolverQueries, st.Solver.Queries)
			eq("ledger", "cache hits", rec.CacheHits, st.Solver.CacheHits)
			eq("ledger", "cache misses", rec.CacheMisses, st.Solver.CacheMisses)
			eq("ledger", "coverage", rec.CoverageAddrs, int64(st.Coverage))
			eq("ledger", "path faults", rec.PathFaults, st.PathFaults)
		})
	}
}

// TestProfileMergeCandidate checks that a diamond-shaped branch ladder
// yields at least one fork/rejoin merge candidate in the hotspot report
// (ROADMAP item 5: the report must name concrete merge points).
func TestProfileMergeCandidate(t *testing.T) {
	prof := profile.New(profile.Meta{ADL: "tiny32"})
	p := build(t, "tiny32", harness.BranchLadder("tiny32", 6))
	e := core.NewEngine(arch.MustLoad("tiny32"), p,
		core.Options{InputBytes: 6, MaxPaths: 5000, Profile: prof})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rep := prof.Report()
	if len(rep.MergeCandidates) == 0 {
		t.Fatal("branch ladder produced no fork/rejoin merge candidates")
	}
	for _, mc := range rep.MergeCandidates {
		if mc.Rejoin == mc.Fork {
			t.Errorf("degenerate diamond at %#x", mc.Fork)
		}
	}
}
