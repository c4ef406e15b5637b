// Compiled execution for the concrete emulator (docs/compile.md).
//
// The interpreted Step pays, per instruction: a fetch of MaxInsnBytes
// from the memory map, a full decoder pass, and an AST walk of the
// semantics. All three are per-address constants while the code bytes
// do not change, so Run goes through the translation cache shared with
// the symbolic engine (decoder.Cache): compiled units, and superblocks
// of straightline units executed back-to-back with no per-instruction
// dispatch beyond one closure-chain call.
//
// Self-modification guard: the machine tracks the address span covered
// by cached units, including the decoder's lookahead window; any store
// landing in the span flushes the whole cache (compiled code is cheap
// to rebuild and self-modifying programs are rare). A flush mid-
// superblock also ends that superblock after the current instruction,
// because the following units were decoded from the overwritten bytes.
package conc

import (
	"repro/internal/decoder"
	"repro/internal/faultinject"
)

// CompileStats counts the machine's compiled-execution activity; it is
// the deterministic snapshot mirrored by the registry metrics.
type CompileStats struct {
	Units      int64 // instructions compiled
	Blocks     int64 // superblocks built (non-empty)
	BlockHits  int64 // superblock executions
	BlockInsns int64 // instructions executed inside superblocks
	Flushes    int64 // self-modification cache flushes
}

// translation is the machine's compiled code: the cache and the address
// span its units were decoded from.
type translation struct {
	*decoder.Cache        // nil until the first compiled step
	lo, hi         uint64 // span covered by cached units (incl. decode lookahead)
}

// source is the machine as the translation cache sees it: bytes come
// from the memory map, and every cached unit widens the flush span.
type source Machine

func (s *source) Decode(pc uint64) (decoder.Decoded, error) {
	m := (*Machine)(s)
	return m.Dec.Decode(m.fetch(pc))
}

// Clean is always true: the machine flushes the cache on a store into
// the span instead of checking windows.
func (s *source) Clean(uint64) bool { return true }

func (s *source) AddUnit(u *decoder.Unit) {
	m := (*Machine)(s)
	// Extend the span over the decoder's full lookahead window: a store
	// beyond the matched encoding but inside the window can still change
	// which (longer) encoding matches.
	c := &m.code
	end := u.PC + uint64(m.Arch.MaxInsnBytes())
	if c.hi <= c.lo {
		c.lo, c.hi = u.PC, end
	} else {
		c.lo, c.hi = min(c.lo, u.PC), max(c.hi, end)
	}
	m.CompileStats.Units++
	if m.Metrics != nil {
		m.Metrics.CompileUnits.Inc()
	}
}

func (s *source) AddBlock(b *decoder.Block) {
	m := (*Machine)(s)
	m.CompileStats.Blocks++
	if m.Metrics != nil {
		m.Metrics.SuperblockBuilds.Inc()
		m.Metrics.SuperblockLen.Observe(float64(len(b.Units)))
	}
}

// cache returns the machine's translation cache, creating it on first
// use.
func (m *Machine) cache() *decoder.Cache {
	if m.code.Cache == nil {
		m.code.Cache = decoder.NewCache(m.Arch, decoder.Compiled)
	}
	return m.code.Cache
}

// flushCode drops every compiled unit and superblock. Called when a
// store lands inside the compiled span (self-modifying code) and when a
// new program image is loaded.
func (m *Machine) flushCode() {
	if m.code.Cache == nil {
		return
	}
	m.code = translation{}
	m.CompileStats.Flushes++
}

// noteStore flushes the code cache when a store overlaps the compiled
// span. The span check runs per written cell because addresses wrap at
// the architecture's width.
func (m *Machine) noteStore(addr uint64, cells uint) {
	c := &m.code
	if c.hi <= c.lo {
		return
	}
	for i := uint(0); i < cells; i++ {
		a := m.trunc(addr + uint64(i))
		if a >= c.lo && a < c.hi {
			m.flushCode()
			return
		}
	}
}

// runChunk advances the machine by up to budget instructions: a whole
// superblock when the current pc heads one, a single compiled
// instruction otherwise. It returns a non-nil Stop when the run ends.
// The recover boundary lives in runCompiled (once per Run, not per
// chunk); curPC tracks the executing instruction for panic attribution.
func (m *Machine) runChunk(budget int64) (done *Stop) {
	pc := m.PC()
	m.curPC = pc
	c := m.cache()
	blk := c.Block(pc, (*source)(m))
	if len(blk.Units) == 0 {
		// Non-straightline head (branch, trap, halt) or undecodable
		// bytes: one compiled step.
		return m.step(pc)
	}
	n := len(blk.Units)
	if int64(n) > budget {
		n = int(budget)
	}
	m.CompileStats.BlockHits++
	m.CompileStats.BlockInsns += int64(n)
	if m.Metrics != nil {
		m.Metrics.SuperblockHits.Inc()
		m.Metrics.SuperblockInsns.Add(int64(n))
	}
	for _, u := range blk.Units[:n] {
		m.curPC = u.PC
		m.Inject.Fire(faultinject.SiteConcStep)
		if s := m.exec(u); s != nil {
			return s
		}
		if m.code.Cache != c {
			// A store inside this superblock's span invalidated the
			// units decoded after the current instruction.
			return nil
		}
	}
	return nil
}
