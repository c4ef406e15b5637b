package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/adl"
	"repro/internal/asm"
	"repro/internal/bv"
	"repro/internal/cover"
	"repro/internal/decoder"
	"repro/internal/faultinject"
)

// archGen holds everything the oracle derives from one architecture:
// the subject stack (generator, assembler, engine decoder) built from
// Options.Source and the reference model the concrete emulator runs.
type archGen struct {
	name string
	subj *adl.Arch // generation, assembly, symbolic engine
	ref  *adl.Arch // concrete emulator, cross-decode
	dec  *decoder.Decoder
	rdec *decoder.Decoder
	as   *asm.Assembler

	// Instruction pools, classified from the checked semantics.
	soup     []*adl.Insn // straight-line body: no pc writes, no traps/halt
	soupPure []*adl.Insn // soup minus loads, stores and error() faults
	branches []*adl.Insn // pc writers with exactly one pc-relative operand

	// Semantic coverage (Options.Cover): the collector passed into
	// every engine, the subject and reference bindings, and whether
	// generation is coverage-guided. All nil/false when coverage is off.
	coll   *cover.Collector
	cov    *cover.ArchCov // subject stack: decode, asm, translate, sym
	rcov   *cover.ArchCov // reference stack: decode (cross), conc
	guided bool

	// inj is the chaos-mode fault injector (nil otherwise); every
	// engine and machine this generator spawns is armed with it.
	inj *faultinject.Injector

	scaf scaffold
}

// scaffold is the per-architecture program frame: how to read an input
// byte into a register and how to exit cleanly. It is the only
// architecture-specific knowledge in the generator; everything else
// comes from the description.
type scaffold struct {
	read     func(i int, dst string) []string // lines reading input byte i into register dst
	exit     []string                         // clean-exit epilogue
	dataRegs []string                         // registers the prologue fills
	ok       bool
}

func scaffoldFor(name string) scaffold {
	switch name {
	case "tiny32", "tiny64":
		return scaffold{
			read:     func(_ int, dst string) []string { return []string{"trap 1", "mov " + dst + ", r1"} },
			exit:     []string{"trap 0"},
			dataRegs: []string{"r2", "r3", "r4", "r5"},
			ok:       true,
		}
	case "m16":
		return scaffold{
			read:     func(_ int, dst string) []string { return []string{"trap 1", "mov " + dst + ", g1"} },
			exit:     []string{"trap 0"},
			dataRegs: []string{"g2", "g3", "g4", "g5"},
			ok:       true,
		}
	case "rv32i":
		return scaffold{
			read:     func(_ int, dst string) []string { return []string{"li a7, 1", "ecall", "mv " + dst + ", a0"} },
			exit:     []string{"li a7, 0", "ecall"},
			dataRegs: []string{"s2", "s3", "s4", "s5"},
			ok:       true,
		}
	}
	return scaffold{}
}

func newArchGen(name string, source, refSource func(string) (string, error)) (*archGen, error) {
	ssrc, err := source(name)
	if err != nil {
		return nil, err
	}
	rsrc, err := refSource(name)
	if err != nil {
		return nil, err
	}
	subj, err := adl.Load(name+".adl", ssrc)
	if err != nil {
		return nil, fmt.Errorf("subject %s: %w", name, err)
	}
	ref, err := adl.Load(name+".adl", rsrc)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", name, err)
	}
	g := &archGen{
		name: name,
		subj: subj,
		ref:  ref,
		dec:  decoder.New(subj),
		rdec: decoder.New(ref),
		as:   asm.New(subj),
		scaf: scaffoldFor(name),
	}
	g.classify()
	return g, nil
}

// insnTraits summarises what a checked semantics does, computed by
// walking the statement tree.
type insnTraits struct {
	writesPC bool
	store    bool
	load     bool
	sys      bool // trap() or halt()
	errs     bool // error() reachable
}

func traitsOf(a *adl.Arch, ins *adl.Insn) insnTraits {
	var t insnTraits
	var walkExpr func(e adl.Expr)
	walkExpr = func(e adl.Expr) {
		switch x := e.(type) {
		case *adl.LoadExpr:
			t.load = true
			walkExpr(x.Addr)
		case *adl.UnExpr:
			walkExpr(x.X)
		case *adl.BinExpr:
			walkExpr(x.X)
			walkExpr(x.Y)
		case *adl.CmpExpr:
			walkExpr(x.X)
			walkExpr(x.Y)
		case *adl.BoolExpr:
			walkExpr(x.X)
			if x.Y != nil {
				walkExpr(x.Y)
			}
		case *adl.TernExpr:
			walkExpr(x.Cond)
			walkExpr(x.T)
			walkExpr(x.F)
		case *adl.ExtractExpr:
			walkExpr(x.X)
		case *adl.ExtendExpr:
			walkExpr(x.X)
		case *adl.CatExpr:
			walkExpr(x.Hi)
			walkExpr(x.Lo)
		}
	}
	var walkStmts func(ss []adl.Stmt)
	walkStmts = func(ss []adl.Stmt) {
		for _, s := range ss {
			switch x := s.(type) {
			case *adl.AssignStmt:
				switch lv := x.LHS.(type) {
				case *adl.RegLV:
					if lv.Reg == a.PC {
						t.writesPC = true
					}
				case *adl.SubLV:
					if lv.Reg == a.PC {
						t.writesPC = true
					}
				}
				walkExpr(x.RHS)
			case *adl.StoreStmt:
				t.store = true
				walkExpr(x.Addr)
				walkExpr(x.Val)
			case *adl.IfStmt:
				walkExpr(x.Cond)
				walkStmts(x.Then)
				walkStmts(x.Else)
			case *adl.LocalStmt:
				walkExpr(x.Init)
			case *adl.TrapStmt:
				t.sys = true
				walkExpr(x.Code)
			case *adl.HaltStmt:
				t.sys = true
			case *adl.ErrorStmt:
				t.errs = true
			}
		}
	}
	walkStmts(ins.Sem)
	return t
}

// relOperands returns the pc-relative operands referenced by the
// assembly template.
func relOperands(ins *adl.Insn) []*adl.Operand {
	var out []*adl.Operand
	for _, tok := range ins.AsmToks {
		if tok.Operand != nil && tok.Operand.Rel() {
			out = append(out, tok.Operand)
		}
	}
	return out
}

// classify sorts the subject's instructions into generation pools.
func (g *archGen) classify() {
	for _, ins := range g.subj.Insns {
		t := traitsOf(g.subj, ins)
		rel := relOperands(ins)
		switch {
		case t.sys:
			// Traps and halts belong to the scaffold, never the body.
		case t.writesPC:
			// Branches and direct jumps with a single label-able target
			// are usable; computed jumps (jr, jmpr, absolute jmp) would
			// send the program to arbitrary addresses.
			if len(rel) == 1 && !t.store && !t.load {
				g.branches = append(g.branches, ins)
			}
		default:
			g.soup = append(g.soup, ins)
			if !t.store && !t.load && !t.errs {
				g.soupPure = append(g.soupPure, ins)
			}
		}
	}
}

// ---- random encoding synthesis (layer 1) ----

// synthOperand builds a random raw operand value item by item: field
// items get random bits, constant items their mandated value (the strict
// EncodeOperand would reject anything else).
func synthOperand(r *rand.Rand, o *adl.Operand) uint64 {
	var v uint64
	for _, it := range o.Items {
		w := it.Bits()
		part := it.Val
		if it.Field != nil {
			part = r.Uint64() & (uint64(1)<<w - 1)
			if it.Field.Kind == adl.FReg {
				part = uint64(r.Intn(len(it.Field.File.Regs)))
			}
		}
		v = v<<w | part
	}
	return v
}

// encodeValue folds a raw operand value into the encoding word,
// sign-extending pc-relative values the way the assembler's strict
// range check expects.
func encodeValue(o *adl.Operand, raw, word uint64) (uint64, error) {
	v := raw
	if o.Rel() {
		v = bv.SExt(raw, o.Bits())
	}
	return adl.EncodeOperand(o, v, word)
}

// synthWord produces a random valid encoding of the instruction plus the
// raw value of every template-referenced operand. Operands absent from
// the template stay zero, matching what the assembler emits.
func synthWord(r *rand.Rand, ins *adl.Insn) (uint64, map[string]uint64, error) {
	word := ins.Match
	vals := make(map[string]uint64)
	referenced := make(map[string]bool)
	for _, tok := range ins.AsmToks {
		if tok.Operand != nil {
			referenced[tok.Operand.Name] = true
		}
	}
	for _, o := range ins.Operands {
		var raw uint64
		if referenced[o.Name] {
			raw = synthOperand(r, o)
			vals[o.Name] = raw
		} else {
			raw = zeroOperand(o)
		}
		w, err := encodeValue(o, raw, word)
		if err != nil {
			return 0, nil, fmt.Errorf("%s operand %s raw %#x: %w", ins.Name, o.Name, raw, err)
		}
		word = w
	}
	return word, vals, nil
}

// zeroOperand is the raw value whose field items are all zero (constant
// items keep their mandated bits).
func zeroOperand(o *adl.Operand) uint64 {
	var v uint64
	for _, it := range o.Items {
		w := it.Bits()
		part := it.Val
		if it.Field != nil {
			part = 0
		}
		v = v << w
		if it.Field == nil {
			v |= part
		}
	}
	return v
}

// encodingBytes lays the word out in the architecture's byte order, the
// inverse of the decoder's word assembly.
func encodingBytes(a *adl.Arch, word uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		if a.Endian == adl.Little {
			out[i] = byte(word >> (8 * i))
		} else {
			out[i] = byte(word >> (8 * (n - 1 - i)))
		}
	}
	return out
}

// ---- program generation (layer 2) ----

type genMode int

const (
	modeReplay  genMode = iota // straight-line + branches, loads/stores allowed
	modeExplore                // pure ALU + branches: solver-friendly, no concretization
)

// renderOperand formats one operand value the way the disassembler does,
// except that pc-relative operands become a label reference.
func renderOperand(sb *strings.Builder, op *adl.Operand, v uint64, relLabel string) {
	switch {
	case op.Rel():
		sb.WriteString(relLabel)
	case op.Kind == adl.FReg:
		sb.WriteString(op.File.Regs[v].Name)
	case op.Signed():
		fmt.Fprintf(sb, "%d", bv.ToInt64(v, op.Bits()))
	default:
		fmt.Fprintf(sb, "%d", v)
	}
}

// renderInsn formats an instruction from its template with the given
// operand values, as decoder.Disasm does.
func renderInsn(ins *adl.Insn, vals map[string]uint64, relLabel string) string {
	var sb strings.Builder
	ins.Render(&sb, func(sb *strings.Builder, o *adl.Operand) { renderOperand(sb, o, vals[o.Name], relLabel) })
	return sb.String()
}

// randomVals draws a random value for every template-referenced operand.
func randomVals(r *rand.Rand, ins *adl.Insn) map[string]uint64 {
	vals := make(map[string]uint64)
	for _, tok := range ins.AsmToks {
		if tok.Operand != nil {
			vals[tok.Operand.Name] = synthOperand(r, tok.Operand)
		}
	}
	return vals
}

// genProgram emits a random assembly program: a prologue reading k input
// bytes into registers, nBody labeled body instructions (forward
// branches only, so every program terminates), and a clean-exit
// epilogue. Labels sit on their own lines so the minimizer can drop any
// instruction line without orphaning a branch target.
func (g *archGen) genProgram(r *rand.Rand, mode genMode, nBody, k int) (string, bool) {
	if !g.scaf.ok {
		return "", false
	}
	pool := g.soup
	maxBranches := nBody
	if mode == modeExplore {
		pool = g.soupPure
		maxBranches = 4 // bounds the path count for full exploration
	}
	if len(pool) == 0 {
		return "", false
	}
	var sb strings.Builder
	for i := 0; i < k; i++ {
		dst := g.scaf.dataRegs[i%len(g.scaf.dataRegs)]
		for _, line := range g.scaf.read(i, dst) {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	branches := 0
	for i := 0; i < nBody; i++ {
		fmt.Fprintf(&sb, "L%d:\n", i)
		if len(g.branches) > 0 && branches < maxBranches && r.Intn(4) == 0 {
			ins := g.pick(r, g.branches)
			// Forward target: a later body label or the epilogue.
			t := i + 1 + r.Intn(nBody-i)
			label := "Lend"
			if t < nBody {
				label = fmt.Sprintf("L%d", t)
			}
			sb.WriteString(renderInsn(ins, randomVals(r, ins), label))
			branches++
		} else {
			ins := g.pick(r, pool)
			sb.WriteString(renderInsn(ins, randomVals(r, ins), ""))
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("Lend:\n")
	for _, line := range g.scaf.exit {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String(), true
}

// pick selects an instruction from a pool. Uniform by default; in
// coverage-guided mode the weight of an instruction grows with the
// number of execution layers (sym, conc) that have not covered it yet,
// so generation drifts toward its own blind spots while still sampling
// covered instructions (weight 1) often enough to keep programs varied.
func (g *archGen) pick(r *rand.Rand, pool []*adl.Insn) *adl.Insn {
	if !g.guided || g.cov == nil {
		return pool[r.Intn(len(pool))]
	}
	const boost = 8 // extra weight per uncovered execution layer
	total := 0
	for _, ins := range pool {
		total += g.weight(ins, boost)
	}
	n := r.Intn(total)
	for _, ins := range pool {
		n -= g.weight(ins, boost)
		if n < 0 {
			return ins
		}
	}
	return pool[len(pool)-1]
}

func (g *archGen) weight(ins *adl.Insn, boost int) int {
	w := 1
	if g.cov.Hits(cover.LSym, ins) == 0 {
		w += boost
	}
	// With identical subject/reference descriptions (the default) the
	// two bindings share one hit store, so the subject binding sees the
	// conc layer too; under a mutated reference this under-reports conc
	// coverage, which only makes guidance more eager, never wrong.
	if g.cov.Hits(cover.LConc, ins) == 0 {
		w += boost
	}
	return w
}

// coverFloor is this architecture's gating coverage fraction so far:
// min of decode, translate and the better execution layer, over
// instruction coverage — the same figure cover.ISAReport.Floor reports.
func (g *archGen) coverFloor() float64 {
	if g.cov == nil {
		return 0
	}
	frac := func(v *cover.ArchCov, insns []*adl.Insn, l cover.Layer) float64 {
		if len(insns) == 0 {
			return 1
		}
		n := 0
		for _, ins := range insns {
			if v.Hits(l, ins) > 0 {
				n++
			}
		}
		return float64(n) / float64(len(insns))
	}
	f := frac(g.cov, g.subj.Insns, cover.LDecode)
	if t := frac(g.cov, g.subj.Insns, cover.LTranslate); t < f {
		f = t
	}
	exec := frac(g.cov, g.subj.Insns, cover.LSym)
	if c := frac(g.rcov, g.ref.Insns, cover.LConc); c > exec {
		exec = c
	}
	if exec < f {
		f = exec
	}
	return f
}
