// Translation cache (docs/compile.md): the per-address store of
// translated units and the superblocks chained over them, one mechanism
// for both the concrete emulator and the symbolic engine.
//
// A unit is everything an engine's step would otherwise recompute on
// each execution of the instruction at one address: the decode, the
// semantics compiled to a closure chain, the disassembly, the
// fall-through continuation and the encoding-format name. A superblock
// is the run of straightline units (no pc write, no control event)
// that starts at an address; an engine's run loop executes it
// back-to-back.
//
// The cache knows nothing of an engine's memory. Each lookup passes a
// Source that fetches and decodes at a pc, tells whether the bytes at a
// pc are still the ones cached units were decoded from, and counts what
// the cache adds. Invalidation and execution stay with the engines.

package decoder

import (
	"sync"

	"repro/internal/adl"
	"repro/internal/bv"
	"repro/internal/rtl"
)

// maxSuperblock bounds the chain length of one superblock.
const maxSuperblock = 64

// Unit is one translated instruction.
type Unit struct {
	Decoded
	PC   uint64
	Cont uint64 // fall-through continuation, truncated to the address width

	// Code is the compiled semantics; nil for a unit the engine
	// interprets.
	Code *rtl.Compiled

	Disasm string // assembly text; empty unless the cache renders it
	Format string // encoding-format name, for profiles ("" when none)
}

// Block is a superblock: the straightline units from its head address
// on. An empty block records a head that is not straightline or does
// not decode. Cached is false for a block cut short by an unclean fetch
// window; such a block is rebuilt on every lookup, so its pointer is no
// stable key.
type Block struct {
	Units  []*Unit
	Cached bool
}

// Source is an engine's side of a lookup.
type Source interface {
	// Decode fetches and decodes the instruction at pc.
	Decode(pc uint64) (Decoded, error)
	// Clean reports whether the fetch window at pc still holds the
	// bytes cached units were decoded from. A superblock stops before
	// an unclean unit and is then not cached.
	Clean(pc uint64) bool
	// AddUnit and AddBlock are told of each unit and each non-empty
	// superblock the lookup added to the cache.
	AddUnit(u *Unit)
	AddBlock(b *Block)
}

// Mode selects what a Cache stores and how.
type Mode uint8

// Cache modes, combined with |.
const (
	Compiled Mode = 1 << iota // cached units carry compiled semantics
	Rendered                  // units carry their disassembly
	Shared                    // safe for concurrent lookups
)

// Cache maps addresses to units and superblocks. A Shared cache keeps
// them in sync.Maps: a racing double translation is resolved by
// LoadOrStore and only wastes the losing work. Otherwise plain maps keep
// the single-goroutine lookup cheap.
type Cache struct {
	arch *adl.Arch
	mode Mode

	units  map[uint64]*Unit
	blocks map[uint64]*Block

	sharedUnits, sharedBlocks sync.Map
}

// NewCache returns an empty cache for the architecture.
func NewCache(a *adl.Arch, mode Mode) *Cache {
	return &Cache{
		arch:   a,
		mode:   mode,
		units:  make(map[uint64]*Unit),
		blocks: make(map[uint64]*Block),
	}
}

// Translate decodes the instruction at pc into a unit that is neither
// cached nor compiled: the interpreter's path, for bytes that may change
// under the engine and for the ablations that decode on every step.
// render adds the disassembly.
func Translate(a *adl.Arch, pc uint64, src Source, render bool) (Unit, error) {
	d, err := src.Decode(pc)
	if err != nil {
		return Unit{}, err
	}
	u := Unit{Decoded: d, PC: pc, Cont: bv.Trunc(pc+uint64(d.Len), a.Bits)}
	if d.Insn.Format != nil {
		u.Format = d.Insn.Format.Name
	}
	if render {
		u.Disasm = Disasm(d, pc)
	}
	return u, nil
}

// Unit returns the cached unit at pc, translating it on first use. The
// caller must have established that src's fetch window at pc is clean.
// Decode errors are not cached.
func (c *Cache) Unit(pc uint64, src Source) (*Unit, error) {
	if c.mode&Shared == 0 {
		if u, ok := c.units[pc]; ok {
			return u, nil
		}
	} else if u, ok := c.sharedUnits.Load(pc); ok {
		return u.(*Unit), nil
	}
	t, err := Translate(c.arch, pc, src, c.mode&Rendered != 0)
	if err != nil {
		return nil, err
	}
	u := &t
	if c.mode&Compiled != 0 {
		u.Code = rtl.Compile(u.Insn, u.Ops, c.arch.PC)
	}
	if prev := c.storeUnit(pc, u); prev != u {
		return prev, nil
	}
	src.AddUnit(u)
	return u, nil
}

// Block returns the superblock headed at pc, building it on first use.
// The caller must have established that src's fetch window at pc is
// clean. A cache that does not compile builds only empty blocks.
func (c *Cache) Block(pc uint64, src Source) *Block {
	if c.mode&Shared == 0 {
		if b, ok := c.blocks[pc]; ok {
			return b
		}
	} else if b, ok := c.sharedBlocks.Load(pc); ok {
		return b.(*Block)
	}
	b := &Block{Cached: true}
	for cur := pc; len(b.Units) < maxSuperblock; {
		if cur != pc && !src.Clean(cur) {
			b.Cached = false
			return b
		}
		u, err := c.Unit(cur, src)
		if err != nil || u.Code == nil || !u.Code.Straightline() {
			break // the engine's single step runs (or reports) this one
		}
		b.Units = append(b.Units, u)
		cur = u.Cont
	}
	if prev := c.storeBlock(pc, b); prev != b {
		return prev
	}
	if len(b.Units) > 0 {
		src.AddBlock(b)
	}
	return b
}

// storeUnit inserts u at pc unless a concurrent lookup got there first,
// and returns the unit the cache holds.
func (c *Cache) storeUnit(pc uint64, u *Unit) *Unit {
	if c.mode&Shared == 0 {
		c.units[pc] = u
		return u
	}
	prev, _ := c.sharedUnits.LoadOrStore(pc, u)
	return prev.(*Unit)
}

func (c *Cache) storeBlock(pc uint64, b *Block) *Block {
	if c.mode&Shared == 0 {
		c.blocks[pc] = b
		return b
	}
	prev, _ := c.sharedBlocks.LoadOrStore(pc, b)
	return prev.(*Block)
}
