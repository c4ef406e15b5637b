// Engine events: one counter block, many views (docs/observability.md).
//
// Every engine event — an instruction, a fork, a pruned branch side, a
// path end, a kill — is recorded once, by one call on the recorder of
// the engine or parallel worker that saw it. The call bumps the
// recorder's block of counters and feeds the sinks keyed by PC or
// instruction: the profile shard, the tracer and the coverage cell.
// Every counting surface is a view of the blocks: Report.Stats and
// WorkerStats fold them at the end of a run, Progress sums them while
// the run executes, and the engine_*, fault_paths_total and
// degraded_total registry series read them at scrape time.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adl"
	"repro/internal/cover"
	"repro/internal/decoder"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/smt"
)

// count indexes a block.
type count int

const (
	cInstructions count = iota
	cForks
	cInfeasible
	cPaths
	cKilled
	cDecodes
	cMerges
	cCovered // distinct instruction addresses executed
	cCompiledUnits
	cSuperblocks
	cSuperblockHits
	cSuperblockInsns
	cSteals   // states adopted from other workers' builders
	cBusyNS   // time spent executing states (parallel workers)
	cSolverNS // solver wall time, per-query hook (armed for Progress and Profile)
	cSolverQueries
	cCacheHits
	cFrontier // gauge: live states queued right now
	cMaxLive  // high-water mark of the live set
	cMaxDepth // high-water mark of completed path depth
	// NumDegradeCauses slots by cause, then len(faultLayers) by layer.
	cDegraded
	cFaults   = cDegraded + count(NumDegradeCauses)
	numCounts = cFaults + count(len(faultLayers))
)

// block is the counter block of one engine or parallel worker. Only
// its owner writes it (the shared parallel frontier writes the
// coordinator's block under its lock); the live views read it
// concurrently, so every cell is atomic.
type block [numCounts]atomic.Int64

func (b *block) get(c count) int64 { return b[c].Load() }

// raise lifts a high-water mark. Single writer: a load and a store.
func (b *block) raise(c count, v int64) {
	if v > b[c].Load() {
		b[c].Store(v)
	}
}

// seed loads a resumed run's checkpointed totals, so every view reads
// run-cumulative counts rather than post-crash deltas.
func (b *block) seed(s Stats, faults []PathFault, frontier int) {
	for c, v := range map[count]int64{
		cInstructions: s.Instructions, cForks: s.Forks, cInfeasible: s.Infeasible,
		cPaths: int64(s.PathsDone), cKilled: int64(s.StatesKilled), cDecodes: s.DecodeCalls,
		cMerges: s.Merges, cCovered: int64(s.Coverage), cCompiledUnits: s.CompiledUnits,
		cSuperblocks: s.Superblocks, cSuperblockHits: s.SuperblockHits, cSuperblockInsns: s.SuperblockInsns,
		cSolverNS: int64(s.Solver.SolveTime), cSolverQueries: s.Solver.Queries, cCacheHits: s.Solver.CacheHits,
		cFrontier: int64(frontier), cMaxLive: int64(s.MaxLiveSet), cMaxDepth: int64(s.MaxDepth),
	} {
		b[c].Store(v)
	}
	for i, n := range s.Degraded {
		b[cDegraded+count(i)].Store(n)
	}
	for _, f := range faults {
		b[cFaults+count(faultLayerIndex(f.Layer))].Add(1)
	}
}

// totals is a reading of one or more blocks folded together: high-water
// marks by maximum, everything else by sum.
type totals [numCounts]int64

func (t *totals) add(b *block) {
	for c := range b {
		v := b[c].Load()
		if count(c) == cMaxLive || count(c) == cMaxDepth {
			t[c] = max(t[c], v)
		} else {
			t[c] += v
		}
	}
}

func fold(blks []*block) *totals {
	var t totals
	for _, b := range blks {
		t.add(b)
	}
	return &t
}

func (t *totals) sum(from, to count) int64 {
	var n int64
	for _, v := range t[from:to] {
		n += v
	}
	return n
}

// stats is the Stats view of a fold. The solver counters, wall time
// and per-worker rows come from elsewhere; the caller sets them.
func (t *totals) stats() Stats {
	s := Stats{
		Instructions:    t[cInstructions],
		Forks:           t[cForks],
		Infeasible:      t[cInfeasible],
		PathsDone:       int(t[cPaths]),
		StatesKilled:    int(t[cKilled]),
		MaxDepth:        int(t[cMaxDepth]),
		MaxLiveSet:      int(t[cMaxLive]),
		DecodeCalls:     t[cDecodes],
		Merges:          t[cMerges],
		CompiledUnits:   t[cCompiledUnits],
		Superblocks:     t[cSuperblocks],
		SuperblockHits:  t[cSuperblockHits],
		SuperblockInsns: t[cSuperblockInsns],
		Coverage:        int(t[cCovered]),
		PathFaults:      t.sum(cFaults, numCounts),
	}
	copy(s.Degraded[:], t[cDegraded:cFaults])
	return s
}

// Progress is the live view of one run: a sum over the run's counter
// blocks that an observer (the symexd SSE stream, the stall watchdog)
// may snapshot while the run executes. Each run the Progress is
// attached to replaces the blocks it reads, so a retry starts from
// zero and a resumed run from its checkpoint. The zero value is ready
// to use.
type Progress struct {
	mu     sync.Mutex
	blocks []*block
}

// ProgressSnapshot is one consistent-enough reading of a Progress: each
// field is individually atomic; the set is taken mid-run, so fields may
// be skewed by in-flight updates.
type ProgressSnapshot struct {
	Instructions  int64 `json:"instructions"`
	Paths         int64 `json:"paths"`
	Forks         int64 `json:"forks"`
	Frontier      int64 `json:"frontier"`
	Covered       int64 `json:"covered"`
	Degraded      int64 `json:"degraded"`
	SolverNS      int64 `json:"solver_ns"`
	SolverQueries int64 `json:"solver_queries"`
	CacheHits     int64 `json:"cache_hits"`
}

// Snapshot reads the run's counters. Safe during a run; all zeros on a
// nil receiver or before the first run.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	t := fold(p.blocks)
	p.mu.Unlock()
	return ProgressSnapshot{
		Instructions:  t[cInstructions],
		Paths:         t[cPaths],
		Forks:         t[cForks],
		Frontier:      t[cFrontier],
		Covered:       t[cCovered],
		Degraded:      t.sum(cDegraded, cFaults),
		SolverNS:      t[cSolverNS],
		SolverQueries: t[cSolverQueries],
		CacheHits:     t[cCacheHits],
	}
}

func (p *Progress) attach(blks []*block) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.blocks = blks
	p.mu.Unlock()
}

// series is the registry view of every engine block on one registry:
// the blocks of runs in flight plus the folded totals of retired ones.
type series struct {
	mu   sync.Mutex
	live map[*block]struct{}
	done totals
}

// seriesFor returns the registry's engine series, registering the
// derived engine_*, fault_paths_total and degraded_total series on
// first use. Nil when telemetry is off.
func seriesFor(r *obs.Registry) *series {
	s, _ := r.Shared("core.engine", func() any {
		s := &series{live: make(map[*block]struct{})}
		for c, d := range map[count]struct{ name, help string }{
			cInstructions:    {"engine_instructions_total", "Instructions executed symbolically"},
			cForks:           {"engine_forks_total", "State forks at feasible branches"},
			cInfeasible:      {"engine_infeasible_total", "Branch sides pruned as unsatisfiable"},
			cPaths:           {"engine_paths_completed_total", "Paths that reached a terminal status"},
			cKilled:          {"engine_states_killed_total", "Live states dropped by a budget"},
			cDecodes:         {"engine_decode_calls_total", "Decoder invocations (translation-cache misses)"},
			cMerges:          {"engine_merges_total", "Opportunistic state merges (MergeStates)"},
			cCompiledUnits:   {"engine_compiled_units_total", "Instructions compiled to closure chains"},
			cSuperblocks:     {"engine_superblock_builds_total", "Superblocks built (non-empty straightline prefixes)"},
			cSuperblockHits:  {"engine_superblock_hits_total", "Superblock executions"},
			cSuperblockInsns: {"engine_superblock_insns_total", "Instructions executed inside superblocks"},
		} {
			r.DeriveCounter(d.name, d.help, s.reader(c))
		}
		r.DeriveGauge("engine_frontier_depth", "Live states queued for exploration", s.reader(cFrontier))
		r.DeriveGauge("engine_live_states_max", "High-water mark of the live state set", s.reader(cMaxLive))
		for i, l := range faultLayers {
			r.DeriveCounter(fmt.Sprintf("fault_paths_total{layer=%q}", l), faultPathsHelp, s.reader(cFaults+count(i)))
		}
		for c := DegradeCause(0); c < NumDegradeCauses; c++ {
			r.DeriveCounter(fmt.Sprintf("degraded_total{cause=%q}", c),
				"Graceful degradations (over-approximations) by cause", s.reader(cDegraded+count(c)))
		}
		return s
	}).(*series)
	return s
}

func (s *series) reader(c count) func() int64 {
	return func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		t := s.done
		for b := range s.live {
			t.add(b)
		}
		return t[c]
	}
}

func (s *series) attach(blks []*block) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for _, b := range blks {
		s.live[b] = struct{}{}
	}
	s.mu.Unlock()
}

// retire folds finished blocks into the totals. A finished run has
// nothing queued, so its frontier gauge reads zero from here on.
func (s *series) retire(blks []*block) {
	for _, b := range blks {
		b[cFrontier].Store(0)
	}
	if s == nil {
		return
	}
	s.mu.Lock()
	for _, b := range blks {
		delete(s.live, b)
		s.done.add(b)
	}
	s.mu.Unlock()
}

// recorder is the single recording surface of one engine or parallel
// worker: its counter block plus the sinks keyed by PC or instruction.
// Sinks are nil when their instrument is off.
type recorder struct {
	blk    *block
	prof   *profile.Shard
	tr     *obs.Tracer
	cov    *cover.ArchCov
	worker int // trace lane; -1 for the shared parallel frontier

	// Latency histograms of the registry.
	stepH, decodeH, branchH, blockLenH *obs.Histogram
	tick                               uint64 // step-time sampling counter
}

func newRecorder(a *adl.Arch, opts Options) recorder {
	r := recorder{
		blk:  new(block),
		prof: opts.Profile.NewShard(),
		tr:   opts.Obs.Tracer().Scoped(opts.JobID),
		cov:  opts.Cover.Bind(a),
	}
	if reg := opts.Obs.Registry(); reg != nil {
		r.stepH = reg.Histogram("engine_step_seconds", "Per-instruction symbolic step latency (sampled 1 in 8)", obs.TimeBuckets)
		r.decodeH = reg.Histogram("engine_decode_seconds", "Decoder invocation latency (translation-cache misses only)", obs.TimeBuckets)
		r.branchH = reg.Histogram("engine_branch_check_seconds", "Branch-feasibility decision latency (solver time)", obs.TimeBuckets)
		r.blockLenH = reg.Histogram("engine_superblock_len", "Superblock chain length at build time", obs.SuperblockLenBuckets)
	}
	return r
}

// StepSampleRate is the sampling factor of step timing: one in this
// many steps is timed, for the engine_step_seconds histogram and the
// profile's per-PC step time. On hosts without a fast clock path, two
// time.Now() calls per instruction alone cost several percent of
// interpreter throughput. Total step time estimates multiply the
// histogram sum by this factor.
const StepSampleRate = 8

// now starts a timed section. The clock is read only when a histogram
// or the tracer will use it.
func (r *recorder) now() time.Time {
	if r.stepH == nil && r.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// stepStart marks the step of the state at pc: the profile attributes
// solver queries and degradations to pc until the next step. It
// returns the start time when this step is sampled for step timing.
func (r *recorder) stepStart(pc uint64) (t0 time.Time, sampled bool) {
	if r.stepH == nil && r.prof == nil {
		return time.Time{}, false
	}
	r.prof.SetPC(pc)
	r.tick++
	if r.tick%StepSampleRate != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

// stepDone records a sampled step's wall time.
func (r *recorder) stepDone(pc uint64, t0 time.Time) {
	d := time.Since(t0)
	r.stepH.ObserveDuration(d)
	r.prof.StepTime(pc, d)
}

// exec records one executed instruction; first marks the first
// execution of pc in the run. Superblock units pass profiled false:
// the profile records them with the block.
func (r *recorder) exec(u *decoder.Unit, first, profiled bool) {
	r.blk[cInstructions].Add(1)
	if first {
		r.blk[cCovered].Add(1)
	}
	r.cov.Hit(cover.LSym, u.Insn)
	if profiled && r.prof != nil {
		r.prof.Exec(u.PC, u.Insn.Mnemonic, u.Format)
	}
}

// block records one execution of the first k units of a superblock.
func (r *recorder) block(blk *decoder.Block, k int) {
	r.blk[cSuperblockHits].Add(1)
	r.blk[cSuperblockInsns].Add(int64(k))
	switch {
	case r.prof == nil:
	case blk.Cached:
		r.prof.ExecBlock(blk, k, func() []profile.BlockUnit {
			units := make([]profile.BlockUnit, len(blk.Units))
			for i, u := range blk.Units {
				units[i] = profile.BlockUnit{PC: u.PC, Mnemonic: u.Insn.Mnemonic, Format: u.Format, Cont: u.Cont}
			}
			return units
		})
	default:
		// A truncated block is rebuilt per call, so its pointer is no
		// stable key: record its units one by one.
		for _, u := range blk.Units[:k] {
			r.prof.Exec(u.PC, u.Insn.Mnemonic, u.Format)
			r.prof.Edge(u.PC, u.Cont)
		}
	}
}

// decode records one decoder invocation at pc, started at t0.
func (r *recorder) decode(pc uint64, t0 time.Time) {
	r.blk[cDecodes].Add(1)
	r.prof.CompileMiss(pc)
	if r.decodeH != nil {
		r.decodeH.ObserveSince(t0)
	}
}

// unit records one instruction compiled into the shared cache.
func (r *recorder) unit() { r.blk[cCompiledUnits].Add(1) }

// superblock records a superblock of n units built into the shared
// cache.
func (r *recorder) superblock(n int) {
	r.blk[cSuperblocks].Add(1)
	r.blockLenH.Observe(float64(n))
}

// spawn records the entry state of a run.
func (r *recorder) spawn(st *State) {
	if r.tr != nil {
		r.tr.Event("spawn", r.worker, st.ID, st.PC, "entry")
	}
}

// guard records a split of st on a guard condition, decided from t0:
// one fork, a pruned side for each nil outcome, and the taken state.
func (r *recorder) guard(st, taken, fallthru *State, t0 time.Time) {
	r.fork(st.PC, 1)
	for _, side := range [2]*State{taken, fallthru} {
		if side == nil {
			r.infeasible(st.PC)
		}
	}
	if r.branchH != nil {
		r.branchH.ObserveSince(t0)
	}
	if r.tr != nil {
		if taken != nil {
			r.tr.Event("fork", r.worker, taken.ID, st.PC, fmt.Sprintf("guard taken, parent=%d", st.ID))
		}
		r.tr.Span("branch", r.worker, st.ID, st.PC, t0,
			fmt.Sprintf("guard: taken=%v fallthru=%v", taken != nil, fallthru != nil))
	}
}

// fork records n states forked at pc.
func (r *recorder) fork(pc uint64, n int64) {
	r.blk[cForks].Add(n)
	r.prof.Fork(pc, n)
}

func (r *recorder) infeasible(pc uint64) {
	r.blk[cInfeasible].Add(1)
	r.prof.Infeasible(pc)
}

// target records the feasibility check of one branch target of st,
// decided from t0. A feasible target also counts for the solver
// coverage layer (taken: the target is not the fall-through).
func (r *recorder) target(st *State, addr uint64, t0 time.Time, ok bool, insn *adl.Insn, taken bool) {
	if r.branchH != nil {
		r.branchH.ObserveSince(t0)
	}
	if r.tr != nil {
		r.tr.Span("branch", r.worker, st.ID, st.PC, t0, fmt.Sprintf("target %#x: feasible=%v", addr, ok))
	}
	if ok {
		r.cov.Branch(cover.LSolver, insn, taken)
	} else {
		r.infeasible(st.PC)
	}
}

// successor records child leaving the branch of st at pc for child.PC;
// cloned marks a new state rather than st continuing.
func (r *recorder) successor(st, child *State, pc uint64, insn *adl.Insn, taken, cloned bool) {
	r.cov.Branch(cover.LSym, insn, taken)
	r.prof.Edge(pc, child.PC)
	if cloned && r.tr != nil {
		r.tr.Event("fork", r.worker, child.ID, pc, fmt.Sprintf("branch to %#x, parent=%d", child.PC, st.ID))
	}
}

// jumpModel records model i of a symbolic jump-target enumeration,
// solved from t0 with result res.
func (r *recorder) jumpModel(st *State, i int, t0 time.Time, res smt.Result) {
	if r.branchH != nil {
		r.branchH.ObserveSince(t0)
	}
	if r.tr != nil {
		r.tr.Span("jump-enum", r.worker, st.ID, st.PC, t0, fmt.Sprintf("model %d: %v", i, res))
	}
}

// jump records child forked from st to an enumerated jump target.
func (r *recorder) jump(st, child *State) {
	r.fork(st.PC, 1)
	r.prof.Edge(st.PC, child.PC)
	if r.tr != nil {
		r.tr.Event("fork", r.worker, child.ID, st.PC, fmt.Sprintf("jump target %#x, parent=%d", child.PC, st.ID))
	}
}

// end records a completed path.
func (r *recorder) end(st *State) {
	r.blk[cPaths].Add(1)
	r.blk.raise(cMaxDepth, int64(st.Depth))
	if r.tr != nil {
		detail := st.Status.String()
		if st.Fault != "" {
			detail += ": " + st.Fault
		}
		r.tr.Event("end", r.worker, st.ID, st.PC, detail)
	}
}

// concreteRun records one completed run of a concolic search.
func (r *recorder) concreteRun() { r.blk[cPaths].Add(1) }

// kill records one live state dropped for reason.
func (r *recorder) kill(st *State, reason string) {
	r.blk[cKilled].Add(1)
	r.prof.Kill(st.PC)
	if r.tr != nil {
		r.tr.Event("kill", r.worker, st.ID, st.PC, reason)
	}
}

// killAll records every state of a set dropped for reason; where names
// the set in the trace ("live" or "queued").
func (r *recorder) killAll(sts []*State, reason, where string) {
	r.blk[cKilled].Add(int64(len(sts)))
	if r.prof != nil {
		for _, st := range sts {
			r.prof.Kill(st.PC)
		}
	}
	if r.tr != nil && len(sts) > 0 {
		r.tr.Event("kill", r.worker, -1, 0, fmt.Sprintf("%s (%d %s states)", reason, len(sts), where))
	}
}

// overBudget records a state the governor killed for its term budget:
// a degradation, not a budget kill of the live set.
func (r *recorder) overBudget(st *State) {
	r.degrade(DegradeStateBudget)
	r.prof.Kill(st.PC)
}

// merge records a state merge into st.
func (r *recorder) merge(st *State) {
	r.blk[cMerges].Add(1)
	r.prof.Merge(st.PC)
	if r.tr != nil {
		r.tr.Event("merge", r.worker, st.ID, st.PC, "")
	}
}

// frontier records the number of live states queued.
func (r *recorder) frontier(n int) {
	r.blk[cFrontier].Store(int64(n))
	r.blk.raise(cMaxLive, int64(n))
}

// degrade records one graceful degradation, attributed to the PC being
// stepped.
func (r *recorder) degrade(cause DegradeCause) {
	r.blk[cDegraded+count(cause)].Add(1)
	r.prof.Degrade(cause.String())
}

// fault records a recovered panic; st is the state it killed, nil for a
// fault outside any path.
func (r *recorder) fault(pf PathFault, st *State) {
	r.blk[cFaults+count(faultLayerIndex(pf.Layer))].Add(1)
	if st != nil && r.tr != nil {
		r.tr.Event("kill", r.worker, st.ID, st.PC, "panic: "+pf.Layer)
	}
}

// burst records a parallel worker's run of the state chain of path id,
// popped from the frontier at pc at t0 (steal: from another worker's
// builder). The popped state may since have been handed to another
// worker, so the span is keyed by where the burst started.
func (r *recorder) burst(id int, pc uint64, t0 time.Time, steal bool) {
	if steal {
		r.blk[cSteals].Add(1)
	}
	r.blk[cBusyNS].Add(int64(time.Since(t0)))
	if r.tr != nil {
		r.tr.Span("exec", r.worker, id, pc, t0, "")
	}
}

// armQueryHook points the solver's per-query hook at the recorder when
// a view needs per-query data (Progress or Profile). Otherwise the
// solver's cache-hit path stays clock-free.
func (e *Engine) armQueryHook() {
	if e.Opts.Progress != nil || e.rec.prof != nil {
		e.Solver.Prof = &e.rec
	}
}

// Query is the solver's per-query hook (smt.QueryProf): wall time and
// cache status for the live view, attributed to the stepped PC in the
// profile.
func (r *recorder) Query(d time.Duration, cacheHit bool) {
	r.blk[cSolverNS].Add(int64(d))
	r.blk[cSolverQueries].Add(1)
	if cacheHit {
		r.blk[cCacheHits].Add(1)
	}
	r.prof.Query(d, cacheHit)
}
