// Compiled symbolic execution (docs/compile.md).
//
// The interpreted step pays, per instruction: a decode, a disassembly
// string build, and an AST walk of the RTL semantics with per-node type
// switches. All of it is per-address constant while the instruction
// bytes come from the unmodified image, so the engine goes through the
// translation cache shared with the concrete emulator (decoder.Cache):
// compiled units — decoded instruction, closure chain, disassembly and
// fall-through continuation — and superblocks of straightline units
// executed back-to-back inside one step call.
//
// One cache serves every worker of a parallel run: compiled closures
// capture only immutable ADL data (resolved registers, widths,
// immediates), never a builder, so one unit serves any worker's builder
// at execution time.
//
// Self-modifying code: any state whose memory overlay touches an
// instruction's fetch window (mem.writtenRange) decodes and interprets
// that instruction afresh, a superblock stops before such a window, and
// superblock execution re-checks the window before every chained unit.
// The cache itself is only ever filled from unmodified image bytes, so
// it needs no invalidation.
package core

import (
	"fmt"

	"repro/internal/cover"
	"repro/internal/decoder"
	"repro/internal/faultinject"
)

// source is one state as the translation cache sees it: bytes come from
// the state's memory, its overlay decides which fetch windows are
// clean, and additions count in the stepping worker's block.
type source struct {
	e  *Engine
	st *State
}

// Decode runs the decoder on the instruction bytes at pc. Only decoder
// calls are timed: cache hits, the common case, must not pay for two
// clock reads per instruction.
func (s *source) Decode(pc uint64) (decoder.Decoded, error) {
	buf, ok := s.st.mem.ConcreteFetch(pc, s.e.Arch.MaxInsnBytes())
	if !ok {
		return decoder.Decoded{}, fmt.Errorf("symbolic instruction bytes at %#x", pc)
	}
	defer s.e.rec.decode(pc, s.e.rec.now())
	return s.e.Dec.Decode(buf)
}

func (s *source) Clean(pc uint64) bool {
	return !s.st.mem.writtenRange(pc, s.e.Arch.MaxInsnBytes())
}

func (s *source) AddUnit(u *decoder.Unit) {
	if u.Code != nil {
		s.e.rec.unit()
	}
}

func (s *source) AddBlock(b *decoder.Block) { s.e.rec.superblock(len(b.Units)) }

// newCache builds the engine's translation cache, shared by the workers
// of a parallel run.
func newCache(e *Engine) *decoder.Cache {
	mode := decoder.Rendered | decoder.Shared
	if !e.Opts.NoCompile {
		mode |= decoder.Compiled
	}
	return decoder.NewCache(e.Arch, mode)
}

// runBlock executes the superblock's straightline prefix on st inside
// one step call. Straightline units cannot fork, halt or branch, so the
// state threads through unchanged; the block's terminator (and anything
// past a self-modified window) runs via the next step call. Every
// per-instruction obligation of the interpreted step — visit counts,
// coverage hits, injection sites, the MaxSteps check — fires per unit,
// so a compiled run is observationally per-instruction.
func (e *Engine) runBlock(st *State, blk *decoder.Block, src *source) ([]*State, error) {
	pcReg := e.Arch.PC
	ec := &execCtx{e: e}
	n := 0
	defer func() { e.rec.block(blk, n) }()
	for i, u := range blk.Units {
		pc := st.PC
		if i > 0 {
			// safeStep fired the per-step site for the first unit; keep
			// the fires-per-instruction contract for the rest.
			e.inject.Fire(faultinject.SiteSymStep)
			if !src.Clean(pc) {
				break // self-modified under this state: re-enter via step
			}
		}
		e.rec.exec(u, e.visit(pc), false)
		st.Steps++
		n++
		st.SetReg(pcReg, e.B.Const(pcReg.Width, u.Cont))
		// Translate-layer parity: the interpreter's SymEval.Exec fires
		// the injection site and coverage hit once per instruction.
		e.inject.Fire(faultinject.SiteTranslate)
		e.rec.cov.Hit(cover.LTranslate, u.Insn)
		ec.st, ec.insAddr, ec.disasm = st, pc, u.Disasm
		ec.infeasible, ec.err = false, nil
		events := u.Code.ExecSym(e.B, ec, &e.scratch)
		if ec.err != nil {
			return nil, ec.err
		}
		if ec.infeasible {
			return []*State{st.done(StatusKilled)}, nil
		}
		if len(events) > 0 {
			// Straightline units raise only division observations
			// (HasCtl excludes trap/halt/fault), which never split.
			if _, _, err := e.handleEvents(st, events, pc, u.Disasm); err != nil {
				return nil, err
			}
		}
		if st.Steps >= e.Opts.MaxSteps {
			return []*State{st.done(StatusSteps)}, nil
		}
		// The interpreted resolvePC records the fall-through branch
		// outcome for the sym coverage layer.
		e.rec.cov.Branch(cover.LSym, u.Insn, false)
		st.PC = u.Cont
	}
	return []*State{st}, nil
}
