package core

import (
	"fmt"
	"time"

	"repro/internal/bv"
	"repro/internal/cover"
	"repro/internal/decoder"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/rtl"
	"repro/internal/smt"
)

// ckptDutyFactor bounds the checkpoint duty cycle: the gap until the
// next checkpoint is at least this multiple of the previous one's
// synchronous cost, so snapshot building consumes at most ~1/128 <1%
// of a serial run's wall time no matter how large the path list grows.
const ckptDutyFactor = 128

// Run explores the program from its entry point and returns the report.
// With Options.Workers > 1 the exploration is distributed over a worker
// pool (see parallel.go); otherwise the classic serial loop runs.
func (e *Engine) Run() (*Report, error) {
	if e.Opts.Workers > 1 {
		if e.Opts.Resume != nil {
			return nil, fmt.Errorf("core: Resume requires a serial run (Workers = %d)", e.Opts.Workers)
		}
		return e.runParallel()
	}
	t0 := time.Now()
	e.report = Report{}
	e.bugSeen = newBugDedup()
	blks := e.begin(nil)
	defer e.finishRun(blks)

	var live []*State
	if e.Opts.Resume != nil {
		var err error
		if live, err = e.restore(e.Opts.Resume); err != nil {
			return nil, err
		}
	} else {
		live = []*State{e.initialState()}
	}
	ckptEvery := e.Opts.CheckpointEvery
	denseCkpt := ckptEvery < 0 // every opportunity, no governor (tests)
	if ckptEvery <= 0 {
		ckptEvery = time.Second
	}
	ckptGap := ckptEvery
	lastCkpt := t0

	for len(live) > 0 {
		if e.Opts.Checkpoint != nil && (denseCkpt || time.Since(lastCkpt) >= ckptGap) {
			tc := time.Now()
			e.Opts.Checkpoint(e.snapshot(live, time.Since(t0)))
			lastCkpt = time.Now()
			// Duty-cycle governor: a snapshot's cost grows with the
			// completed-path list, so a fixed pace would eventually
			// spend arbitrary fractions of the run on checkpointing.
			// Stretch the gap to a multiple of the last checkpoint's
			// synchronous cost instead — the overhead stays bounded
			// (~1/ckptDutyFactor) and only freshness degrades.
			ckptGap = ckptEvery
			if g := lastCkpt.Sub(tc) * ckptDutyFactor; g > ckptGap {
				ckptGap = g
			}
		}
		var killReason string
		switch {
		case e.rec.blk.get(cPaths) >= int64(e.Opts.MaxPaths):
			killReason = "max-paths"
		case e.Opts.StopOnBug && len(e.report.Bugs) > 0:
			killReason = "stop-on-bug"
		case e.Opts.TimeBudget > 0 && time.Since(t0) > e.Opts.TimeBudget:
			killReason = "time-budget"
		case canceled(e.Opts.Cancel):
			killReason = "canceled"
		}
		if killReason != "" {
			e.rec.killAll(live, killReason, "live")
			break
		}
		e.rec.frontier(len(live))
		var st *State
		st, live = e.pick(live)

		children, err := e.safeStep(st)
		if err != nil {
			return nil, err
		}
		for _, c := range children {
			if c.Done {
				e.finish(c)
			} else if len(live) < e.Opts.MaxStates {
				live = append(live, c)
			} else {
				e.rec.kill(c, "max-states")
			}
		}
		if e.Opts.MergeStates {
			live = e.mergeLive(live)
		}
	}
	e.report.Stats = e.stats(time.Since(t0))
	return &e.report, nil
}

// begin starts recording one run: fresh counter blocks for this engine
// and the given parallel workers, published to the live views — the
// Progress (replacing the blocks of any earlier run) and the registry
// series. finishRun ends it.
func (e *Engine) begin(workers []*Engine) []*block {
	e.rec.blk = new(block)
	blks := []*block{e.rec.blk}
	for _, w := range workers {
		blks = append(blks, w.rec.blk)
	}
	e.Opts.Progress.attach(blks)
	e.series.attach(blks)
	return blks
}

// finishRun retires a run's blocks into the registry totals and folds
// this engine's profile shard.
func (e *Engine) finishRun(blks []*block) {
	e.series.retire(blks)
	e.profiler.Fold(e.rec.prof)
}

// stats is the Stats view of this engine's block, with elapsed the wall
// time of this process's leg of the run.
func (e *Engine) stats(elapsed time.Duration) Stats {
	s := fold([]*block{e.rec.blk}).stats()
	s.Solver = e.Solver.Stats
	s.WallTime = e.resumedWall + elapsed
	return s
}

func (e *Engine) initialState() *State {
	st := &State{
		ID:   e.nextID,
		regs: make([]*expr.Expr, len(e.Arch.Regs)),
		mem:  newMemory(e.Prog.Image(), e.Arch.Bits),
		PC:   e.Prog.Entry,
		home: e.B,
	}
	e.nextID++
	for i, r := range e.Arch.Regs {
		st.regs[i] = e.B.Const(r.Width, 0)
	}
	if e.Arch.SP != nil {
		st.SetReg(e.Arch.SP, e.B.Const(e.Arch.SP.Width, bv.Trunc(e.Opts.StackBase, e.Arch.SP.Width)))
	}
	e.rec.spawn(st)
	return st
}

// pick removes the next state to run according to the strategy.
func (e *Engine) pick(live []*State) (*State, []*State) {
	idx := len(live) - 1 // DFS default
	switch e.Opts.Strategy {
	case BFS:
		idx = 0
	case Random:
		idx = e.rng.Intn(len(live))
	case Coverage:
		best := int64(1) << 62
		for i, s := range live {
			if v := e.visitCount(s.PC); v < best {
				best, idx = v, i
			}
		}
	}
	st := live[idx]
	live = append(live[:idx], live[idx+1:]...)
	return st, live
}

func (e *Engine) finish(st *State) {
	e.rec.end(st)
	pr := PathResult{
		ID:       st.ID,
		Status:   st.Status,
		Fault:    st.Fault,
		EndPC:    st.PC,
		Steps:    st.Steps,
		Depth:    st.Depth,
		PathCond: st.PathCond,
		Output:   st.Output,
		sig:      st.sig,

		PathFault: st.PathFault,
	}
	if e.Opts.CaptureEndState {
		end := &EndState{
			Regs: append([]*expr.Expr(nil), st.regs...),
			Mem:  make(map[uint64]*expr.Expr, len(st.mem.overlay)),
			Base: st.mem.base,
		}
		for a, v := range st.mem.overlay {
			end.Mem[a] = v
		}
		pr.End = end
	}
	e.report.Paths = append(e.report.Paths, pr)
}

// visitCount reads the per-pc execution count, from the shared table in
// parallel runs and the engine-local map otherwise.
func (e *Engine) visitCount(pc uint64) int64 {
	if e.shVisits != nil {
		return e.shVisits.get(pc)
	}
	return e.visits[pc]
}

// visit bumps the per-pc execution count and reports whether pc was
// executed for the first time in the run.
func (e *Engine) visit(pc uint64) bool {
	if e.shVisits != nil {
		return e.shVisits.inc(pc)
	}
	e.visits[pc]++
	return e.visits[pc] == 1
}

func (st *State) done(status Status) *State {
	st.Done = true
	st.Status = status
	return st
}

// step executes one instruction of st and returns the successor states
// (one or more on forks; completed states have Done set).
//
// Instructions whose fetch window the state has not written come from
// the translation cache shared by all workers (docs/compile.md): a
// superblock when the head is straightline, else one cached unit.
// States that have written over their own code, and the
// NoTranslationCache ablation, decode afresh and interpret.
func (e *Engine) step(st *State) ([]*State, error) {
	e.src = source{e: e, st: st}
	src := &e.src
	var u *decoder.Unit
	var err error
	if e.Opts.NoTranslationCache || !src.Clean(st.PC) {
		var t decoder.Unit
		t, err = decoder.Translate(e.Arch, st.PC, src, true)
		u = &t
	} else {
		// Opportunistic merging needs lockstep stepping — both branch
		// sides live at the join pc at the same time — so MergeStates
		// runs units one per step call and never chains.
		if !e.Opts.NoCompile && !e.Opts.MergeStates {
			if blk := e.code.Block(st.PC, src); len(blk.Units) > 0 {
				return e.runBlock(st, blk, src)
			}
		}
		u, err = e.code.Unit(st.PC, src)
	}
	if err != nil {
		st.Fault = err.Error()
		return []*State{st.done(StatusDecode)}, nil
	}
	return e.exec(st, u)
}

// exec executes one translated instruction with full control-flow
// handling. Its semantics run compiled when the unit carries code and
// through the RTL interpreter otherwise.
func (e *Engine) exec(st *State, u *decoder.Unit) ([]*State, error) {
	insAddr := st.PC
	e.rec.exec(u, e.visit(insAddr), true)
	st.Steps++

	// The pc register holds the fall-through continuation; semantic reads
	// of pc observe the instruction's own address via execCtx.ReadReg.
	pcReg := e.Arch.PC
	st.SetReg(pcReg, e.B.Const(pcReg.Width, u.Cont))

	ec := &execCtx{e: e, st: st, insAddr: insAddr, disasm: u.Disasm}
	var events []rtl.Event
	if u.Code != nil {
		// The interpreter's SymEval.Exec fires these once per instruction.
		e.inject.Fire(faultinject.SiteTranslate)
		e.rec.cov.Hit(cover.LTranslate, u.Insn)
		events = u.Code.ExecSym(e.B, ec, &e.scratch)
	} else {
		ev := &rtl.SymEval{B: e.B, A: e.Arch, Cov: e.rec.cov, Inject: e.inject}
		events = ev.Exec(ec, u.Insn, u.Ops)
	}
	if ec.err != nil {
		return nil, ec.err
	}
	if ec.infeasible {
		// A memory concretization found the path condition unsatisfiable.
		return []*State{st.done(StatusKilled)}, nil
	}

	// Process control events in order; states may split per event.
	done, continuing, err := e.handleEvents(st, events, insAddr, u.Disasm)
	if err != nil {
		return nil, err
	}

	out := done
	for _, c := range continuing {
		if c.Steps >= e.Opts.MaxSteps {
			out = append(out, c.done(StatusSteps))
			continue
		}
		next, err := e.resolvePC(c, u)
		if err != nil {
			return nil, err
		}
		out = append(out, next...)
	}
	return out, nil
}

// handleEvents applies trap/halt/fault events in order, splitting states
// on symbolic guards. It returns the completed states and the states that
// continue to the next instruction.
func (e *Engine) handleEvents(st *State, events []rtl.Event, pc uint64, disasm string) (done, continuing []*State, err error) {
	// Division observations run first, against the pre-event path
	// condition: control events below (e.g. an explicit divide-by-zero
	// fault in the description) otherwise constrain the divisor away
	// before the checker sees it.
	for _, ev := range events {
		if ev.Kind != rtl.EvDiv {
			continue
		}
		e.rec.cov.Event(cover.LSym, cover.EvDiv)
		ctx := &CheckCtx{Engine: e, State: st, PC: pc, Insn: disasm, Guard: ev.Guard}
		for _, c := range e.checkers {
			c.Div(ctx, ev.Code)
		}
	}
	continuing = []*State{st}
	for _, ev := range events {
		if ev.Kind == rtl.EvDiv {
			continue
		}
		var next []*State
		for _, s := range continuing {
			taken, fallthru, ferr := e.splitOnGuard(s, ev.Guard)
			if ferr != nil {
				return nil, nil, ferr
			}
			if fallthru != nil {
				next = append(next, fallthru)
			}
			if taken == nil {
				continue
			}
			switch ev.Kind {
			case rtl.EvFault:
				e.rec.cov.Event(cover.LSym, cover.EvFault)
				taken.Fault = ev.Msg
				done = append(done, taken.done(StatusFault))
			case rtl.EvHalt:
				e.rec.cov.Event(cover.LSym, cover.EvHalt)
				done = append(done, taken.done(StatusHalt))
			case rtl.EvTrap:
				e.rec.cov.Event(cover.LSym, cover.EvTrap)
				after := e.trap(taken, ev.Code, pc)
				if after.Done {
					done = append(done, after)
				} else {
					next = append(next, after)
				}
			}
		}
		continuing = next
	}
	return done, continuing, nil
}

// splitOnGuard forks st on a guard condition: taken is the state where
// the guard holds (pathCond extended), fallthru where it does not. Either
// may be nil when infeasible. An unconditional guard yields taken = st.
func (e *Engine) splitOnGuard(st *State, guard *expr.Expr) (taken, fallthru *State, err error) {
	if guard == nil || guard.Kind() == expr.KBoolConst && guard.ConstVal() == 1 {
		return st, nil, nil
	}
	if guard.Kind() == expr.KBoolConst { // constant false
		return nil, st, nil
	}
	t0 := e.rec.now()
	sat, err := e.feasible(append(st.PathCond, guard))
	if err != nil {
		return nil, nil, err
	}
	if sat {
		taken = st.clone(e.nextID)
		e.nextID++
		taken.appendCond(guard)
	}
	neg := e.B.BoolNot(guard)
	sat, err = e.feasible(append(st.PathCond, neg))
	if err != nil {
		return nil, nil, err
	}
	if sat {
		st.appendCond(neg)
		fallthru = st
	}
	e.rec.guard(st, taken, fallthru, t0)
	return taken, fallthru, nil
}

// feasible checks satisfiability, treating solver budget or deadline
// exhaustion as feasible (sound for bug finding: we never prune a path
// we are unsure about, at the cost of possibly exploring dead ones).
// The decision routes through the shared degradation policy so every
// over-approximation is counted by cause.
func (e *Engine) feasible(cond []*expr.Expr) (bool, error) {
	r, err := e.Solver.Check(cond...)
	deg, err := e.degradeUnknown(err, DegradeBranchBudget, DegradeBranchDeadline)
	if deg {
		return true, nil
	}
	if err != nil {
		return false, err
	}
	return r != smt.Unsat, nil
}

// trap implements the shared system-call convention symbolically.
func (e *Engine) trap(st *State, code *expr.Expr, pc uint64) *State {
	if !code.IsConst() {
		st.Fault = "symbolic trap code"
		return st.done(StatusFault)
	}
	switch code.ConstVal() {
	case 0: // exit
		return st.done(StatusExit)
	case 1: // read one input byte
		ret := e.Arch.Reg("sysret")
		if ret == nil {
			st.Fault = "architecture has no sysret alias"
			return st.done(StatusFault)
		}
		if st.inputCount < e.Opts.InputBytes {
			in := e.B.Var(8, e.inputName(st.inputCount))
			st.inputCount++
			st.SetReg(ret, e.B.ZExt(in, ret.Width))
		} else {
			st.SetReg(ret, e.B.Const(ret.Width, bv.Mask(ret.Width)))
		}
		return st
	case 2: // write one output byte
		arg := e.Arch.Reg("sysarg")
		if arg == nil {
			st.Fault = "architecture has no sysarg alias"
			return st.done(StatusFault)
		}
		st.Output = append(st.Output, e.B.Extract(st.Reg(arg), 7, 0))
		return st
	}
	st.Fault = fmt.Sprintf("unknown trap code %d", code.ConstVal())
	return st.done(StatusFault)
}

// resolvePC turns the (possibly symbolic) pc after the instruction u
// into concrete successor states. The pc register already holds the
// fall-through continuation when the semantics did not branch.
func (e *Engine) resolvePC(st *State, u *decoder.Unit) ([]*State, error) {
	pcv := st.Reg(e.Arch.PC)
	if targets, ok := e.splitTargets(pcv, nil); ok {
		return e.forkTargets(st, targets, u)
	}
	// General symbolic target: tell the checkers, then enumerate models.
	ctx := &CheckCtx{Engine: e, State: st, PC: u.PC, Insn: u.Disasm}
	for _, c := range e.checkers {
		c.Jump(ctx, pcv)
	}
	return e.enumerateJump(st, pcv)
}

// target is one candidate pc value guarded by a chain of branch
// conditions.
type target struct {
	addr  uint64
	conds []*expr.Expr
}

// splitTargets decomposes an ite-tree over constant leaves into guarded
// targets; ok is false when the tree has a non-constant leaf.
func (e *Engine) splitTargets(pcv *expr.Expr, conds []*expr.Expr) ([]target, bool) {
	switch {
	case pcv.IsConst():
		return []target{{addr: pcv.ConstVal(), conds: append([]*expr.Expr(nil), conds...)}}, true
	case pcv.Kind() == expr.KITE:
		c := pcv.Arg(0)
		thenTs, ok := e.splitTargets(pcv.Arg(1), append(conds, c))
		if !ok {
			return nil, false
		}
		elseTs, ok := e.splitTargets(pcv.Arg(2), append(append([]*expr.Expr(nil), conds...), e.B.BoolNot(c)))
		if !ok {
			return nil, false
		}
		return append(thenTs, elseTs...), true
	default:
		return nil, false
	}
}

// forkTargets creates one successor per feasible target. u is the
// branching instruction, for coverage: a target is the taken outcome
// when it differs from the fall-through continuation, and a polarity
// counts for the solver layer only when a feasibility check actually
// discharged it.
func (e *Engine) forkTargets(st *State, ts []target, u *decoder.Unit) ([]*State, error) {
	var out []*State
	if len(ts) > 1 {
		e.rec.fork(u.PC, int64(len(ts)-1))
	}
	baseSig := st.sig
	for i, t := range ts {
		cond := append(append([]*expr.Expr(nil), st.PathCond...), t.conds...)
		taken := bv.Trunc(t.addr, e.Arch.Bits) != u.Cont
		checked := len(ts) > 1 || len(t.conds) > 0
		if checked {
			t0 := e.rec.now()
			ok, err := e.feasible(cond)
			if err != nil {
				return nil, err
			}
			e.rec.target(st, t.addr, t0, ok, u.Insn, taken)
			if !ok {
				continue
			}
		}
		child := st // reuse the parent for the last side
		cloned := i < len(ts)-1
		if cloned {
			child = st.clone(e.nextID)
			e.nextID++
		} else if len(ts) > 1 {
			child.Depth++
		}
		child.PathCond = cond
		sig := baseSig
		for _, c := range t.conds {
			sig = expr.MixHash(sig, expr.Hash(c))
		}
		child.sig = sig
		child.PC = bv.Trunc(t.addr, e.Arch.Bits)
		e.rec.successor(st, child, u.PC, u.Insn, taken, cloned)
		out = append(out, child)
	}
	return out, nil
}

// enumerateJump concretizes a general symbolic jump target by repeated
// solver models, up to MaxJumpTargets.
func (e *Engine) enumerateJump(st *State, pcv *expr.Expr) ([]*State, error) {
	if e.concEnv != nil {
		// Concolic replay: follow the concrete target only.
		addr := expr.Eval(pcv, e.concEnv)
		st.appendCond(e.B.Eq(pcv, e.B.Const(pcv.Width(), addr)))
		st.PC = addr
		return []*State{st}, nil
	}
	var out []*State
	excl := append([]*expr.Expr(nil), st.PathCond...)
	for i := 0; i < e.Opts.MaxJumpTargets; i++ {
		t0 := e.rec.now()
		r, err := e.Solver.Check(excl...)
		e.rec.jumpModel(st, i, t0, r)
		deg, err := e.degradeUnknown(err, DegradeJumpEnumBudget, DegradeJumpEnumDeadline)
		if err != nil {
			return nil, err
		}
		if deg || r != smt.Sat {
			// Budget/deadline exhaustion stops the enumeration with the
			// targets found so far (over-approximation by truncation).
			break
		}
		addr := e.Solver.Value(pcv)
		eq := e.B.Eq(pcv, e.B.Const(pcv.Width(), addr))
		child := st.clone(e.nextID)
		e.nextID++
		child.appendCond(eq)
		child.PC = addr
		out = append(out, child)
		excl = append(excl, e.B.BoolNot(eq))
		e.rec.jump(st, child)
	}
	if len(out) == 0 {
		st.Fault = "unresolvable symbolic jump target"
		return []*State{st.done(StatusFault)}, nil
	}
	return out, nil
}
