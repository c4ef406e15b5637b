// Compiled symbolic execution (docs/compile.md).
//
// The interpreted step pays, per instruction: a decode (amortized by the
// translation cache), a disassembly string build, and an AST walk of the
// RTL semantics with per-node type switches. All of it is per-address
// constant while the instruction bytes come from the unmodified image,
// so the engine keeps a shared per-address cache of compiled entries —
// decoded instruction, rtl.Compiled closure chain, disassembly and
// fall-through continuation — and, above it, superblocks: maximal runs
// of straightline entries (no pc write, no control event) executed
// back-to-back inside one step call.
//
// The cache is shared by every worker of a parallel run: compiled
// closures capture only immutable ADL data (resolved registers, widths,
// immediates), never a builder, so one unit serves any worker's builder
// at execution time.
//
// Self-modifying code keeps the same guard as the translation cache:
// any state whose memory overlay touches an instruction's fetch window
// (mem.writtenRange) takes the interpreted path for that instruction,
// and superblock execution re-checks the window before every chained
// entry. The shared cache itself is only ever populated from unmodified
// image bytes, so it needs no invalidation.
package core

import (
	"fmt"
	"sync"

	"repro/internal/bv"
	"repro/internal/cover"
	"repro/internal/decoder"
	"repro/internal/faultinject"
	"repro/internal/profile"
	"repro/internal/rtl"
)

// maxSuperblock bounds the chain length of one engine superblock.
const maxSuperblock = 64

// compEntry is one compiled instruction: everything the step loop would
// otherwise recompute per execution, resolved once per address.
type compEntry struct {
	dec    decoder.Decoded
	unit   *rtl.Compiled
	disasm string
	cont   uint64 // fall-through continuation (width-truncated)
}

// compBlock is a superblock: the straightline prefix starting at its
// key address. An empty block records a non-straightline head.
type compBlock struct {
	units []*compEntry
	prof  []profile.BlockUnit
	// shared is true for cache-resident blocks, whose pointer is a
	// stable profiling key; truncated (self-modified) blocks are rebuilt
	// per call and must record per unit instead.
	shared bool
}

// compileCache is the engine-wide compiled-code store, shared across
// workers. The maps are sync.Maps because workers populate them
// concurrently (a racing double-compile is resolved by LoadOrStore and
// only wastes the losing compile).
type compileCache struct {
	units  sync.Map // uint64 -> *compEntry
	blocks sync.Map // uint64 -> *compBlock
}

func newCompileCache() *compileCache { return &compileCache{} }

// compileOn reports whether this run executes through compiled units.
// NoTranslationCache also disables compilation: the compile cache is a
// translation cache, so the ablation must cover both.
func (e *Engine) compileOn() bool {
	return !e.Opts.NoCompile && !e.Opts.NoTranslationCache
}

// entryAt returns the compiled entry for the instruction at pc,
// compiling it on first use anywhere in the run. The caller must have
// established that st's overlay does not touch the fetch window, so the
// bytes — and therefore the cached entry — come from the shared image.
func (e *Engine) entryAt(st *State, pc uint64) (*compEntry, error) {
	if ent, ok := e.compiled.units.Load(pc); ok {
		return ent.(*compEntry), nil
	}
	maxLen := e.Arch.MaxInsnBytes()
	buf, ok := st.mem.ConcreteFetch(pc, maxLen)
	if !ok {
		// Mirror the interpreted decode's fetch-failure message so
		// compiled and interpreted runs fault identically.
		return nil, fmt.Errorf("symbolic instruction bytes at %#x", pc)
	}
	d, err := e.decodeAt(pc, buf)
	if err != nil {
		return nil, err
	}
	ent := &compEntry{
		dec:    d,
		unit:   rtl.Compile(d.Insn, d.Ops, e.Arch.PC),
		disasm: decoder.Disasm(d, pc),
		cont:   bv.Trunc(pc+uint64(d.Len), e.Arch.Bits),
	}
	if prev, loaded := e.compiled.units.LoadOrStore(pc, ent); loaded {
		return prev.(*compEntry), nil
	}
	e.rec.unit()
	return ent, nil
}

// blockFor returns the superblock headed at st.PC, building and caching
// it on first use. Blocks truncated by st's own memory writes are not
// cached (they would shorten the block for every other state).
func (e *Engine) blockFor(st *State) *compBlock {
	pc := st.PC
	if blk, ok := e.compiled.blocks.Load(pc); ok {
		return blk.(*compBlock)
	}
	blk := &compBlock{}
	cur := pc
	maxLen := e.Arch.MaxInsnBytes()
	truncated := false
	for len(blk.units) < maxSuperblock {
		if cur != pc && st.mem.writtenRange(cur, maxLen) {
			truncated = true
			break
		}
		ent, err := e.entryAt(st, cur)
		if err != nil {
			break // the single-step path surfaces decode errors
		}
		if !ent.unit.Straightline() {
			break
		}
		blk.units = append(blk.units, ent)
		blk.prof = append(blk.prof, profile.BlockUnit{
			PC: cur, Mnemonic: ent.unit.Mnemonic, Format: ent.unit.Format, Cont: ent.cont,
		})
		cur = ent.cont
	}
	if !truncated {
		blk.shared = true
		e.compiled.blocks.Store(pc, blk)
		if len(blk.units) > 0 {
			e.rec.superblock(len(blk.units))
		}
	}
	return blk
}

// stepCompiled is the compiled replacement for the interpreted step
// body. The caller has verified that st.PC's fetch window is clean.
func (e *Engine) stepCompiled(st *State) ([]*State, error) {
	// Opportunistic merging needs lockstep stepping — both branch sides
	// live at the join pc at the same time — so MergeStates runs
	// compiled entries one per step call and skips superblock chaining.
	if !e.Opts.MergeStates {
		blk := e.blockFor(st)
		if len(blk.units) > 0 {
			return e.runBlock(st, blk)
		}
	}
	ent, err := e.entryAt(st, st.PC)
	if err != nil {
		st.Fault = err.Error()
		return []*State{st.done(StatusDecode)}, nil
	}
	return e.execEntry(st, ent)
}

// runBlock executes the superblock's straightline prefix on st inside
// one step call. Straightline units cannot fork, halt or branch, so the
// state threads through unchanged; the block's terminator (and anything
// past a self-modified window) runs via the next step call. Every
// per-instruction obligation of the interpreted step — visit counts,
// coverage hits, injection sites, the MaxSteps check — fires per unit,
// so a compiled run is observationally per-instruction.
func (e *Engine) runBlock(st *State, blk *compBlock) ([]*State, error) {
	maxLen := e.Arch.MaxInsnBytes()
	pcReg := e.Arch.PC
	ec := &execCtx{e: e}
	n := 0
	defer func() { e.rec.block(blk, n) }()
	for i, ent := range blk.units {
		pc := st.PC
		if i > 0 {
			// safeStep fired the per-step site for the first unit; keep
			// the fires-per-instruction contract for the rest.
			e.inject.Fire(faultinject.SiteSymStep)
			if st.mem.writtenRange(pc, maxLen) {
				break // self-modified under this state: re-enter via step
			}
		}
		e.rec.exec(pc, ent.dec.Insn, e.visit(pc), false)
		st.Steps++
		n++
		// Translate-layer parity: the interpreter's SymEval.Exec fires
		// the injection site and coverage hit once per instruction.
		e.inject.Fire(faultinject.SiteTranslate)
		e.rec.cov.Hit(cover.LTranslate, ent.dec.Insn)
		st.SetReg(pcReg, e.B.Const(pcReg.Width, ent.cont))
		ec.st, ec.insAddr, ec.disasm = st, pc, ent.disasm
		ec.infeasible, ec.err = false, nil
		events := ent.unit.ExecSym(e.B, ec, &e.scratch)
		if ec.err != nil {
			return nil, ec.err
		}
		if ec.infeasible {
			return []*State{st.done(StatusKilled)}, nil
		}
		if len(events) > 0 {
			// Straightline units raise only division observations
			// (HasCtl excludes trap/halt/fault), which never split.
			if _, _, err := e.handleEvents(st, events, pc, ent.disasm); err != nil {
				return nil, err
			}
		}
		if st.Steps >= e.Opts.MaxSteps {
			return []*State{st.done(StatusSteps)}, nil
		}
		// The interpreted resolvePC records the fall-through branch
		// outcome for the sym coverage layer.
		e.rec.cov.Branch(cover.LSym, ent.dec.Insn, false)
		st.PC = ent.cont
	}
	return []*State{st}, nil
}

// execEntry executes one compiled instruction with full control-flow
// handling: the interpreted step body with the decode, disassembly and
// continuation arithmetic replaced by the cached entry.
func (e *Engine) execEntry(st *State, ent *compEntry) ([]*State, error) {
	insAddr := st.PC
	e.rec.exec(insAddr, ent.dec.Insn, e.visit(insAddr), true)
	st.Steps++
	e.inject.Fire(faultinject.SiteTranslate)
	e.rec.cov.Hit(cover.LTranslate, ent.dec.Insn)

	pcReg := e.Arch.PC
	st.SetReg(pcReg, e.B.Const(pcReg.Width, ent.cont))

	ec := &execCtx{e: e, st: st, insAddr: insAddr, disasm: ent.disasm}
	events := ent.unit.ExecSym(e.B, ec, &e.scratch)
	if ec.err != nil {
		return nil, ec.err
	}
	if ec.infeasible {
		return []*State{st.done(StatusKilled)}, nil
	}
	done, continuing, err := e.handleEvents(st, events, insAddr, ent.disasm)
	if err != nil {
		return nil, err
	}
	out := done
	for _, c := range continuing {
		if c.Steps >= e.Opts.MaxSteps {
			out = append(out, c.done(StatusSteps))
			continue
		}
		next, err := e.resolvePC(c, ent.dec, insAddr, ent.disasm)
		if err != nil {
			return nil, err
		}
		out = append(out, next...)
	}
	return out, nil
}
