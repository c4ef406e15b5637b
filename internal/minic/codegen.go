package minic

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/adl"
	"repro/internal/bv"
)

// Compile translates a MiniC program to assembly for the named target
// architecture, one of Targets(). The program must define main (with no
// parameters); execution enters at `_start`, which sets up the stack,
// calls main, and exits through the trap convention.
func Compile(prog *Program, targetName string) (string, error) {
	b, err := backendFor(targetName)
	if err != nil {
		return "", err
	}
	if f := prog.Func("main"); f == nil {
		return "", fmt.Errorf("minic: no main function")
	} else if len(f.Params) != 0 {
		return "", fmt.Errorf("minic: main must take no parameters")
	}
	g := &gen{prog: prog, b: b}
	g.program()
	return g.out.String(), g.err
}

// CompileSource parses and compiles in one step.
func CompileSource(file, src, targetName string) (string, error) {
	prog, err := Parse(file, src)
	if err != nil {
		return "", err
	}
	return Compile(prog, targetName)
}

// backend is the stack machine's instruction selection for one target
// (derive.go). Expression values live on the stack; t0 and t1 hold
// operands, t2 a temporary, and sysret the function result.
type backend struct {
	name string
	w    int    // word bytes
	top  uint64 // initial stack top

	sp, fp, lr, arg, ret, trapReg *adl.Reg // lr: nil when calls push the return address
	t                             [3]*adl.Reg
	fixed                         map[byte]*adl.Reg // the registers of roles z, s and l

	addi, li, move, load, store, push, pop, shli *form // push, pop, shli optional
	loadAbs, storeAbs                            *form // only when the immediate holds a data label
	upper, low                                   *form // wide constants: upper part, then the low k bits
	jump, short, call, retf, trap                *form
	k                                            uint
	hi, lo                                       string // the assembler's split helpers for a label
	lowOr, indexed                               bool   // low bits ORed in; offsets hold any address
	bin                                          map[string]*form
	ops                                          map[string]func(*gen) // on t0 and t1; unary ones keyed "u-", "u!"
	zeq, zne                                     [2]*form              // [compare, branch] taken when t0 is (not) zero
}

type gen struct {
	prog   *Program
	b      *backend
	out    strings.Builder
	f      *Func
	labelN int
	err    error
}

func (g *gen) line(format string, args ...any) {
	fmt.Fprintf(&g.out, format+"\n", args...)
}

// i emits one instruction through its ADL template: roles a, b and c
// are regs, the immediate is imm unless the form fixes it.
func (g *gen) i(f *form, imm string, regs ...*adl.Reg) {
	g.out.WriteByte('\t')
	f.ins.Render(&g.out, func(sb *strings.Builder, o *adl.Operand) {
		switch r := f.bind[o]; {
		case o.Kind == adl.FReg && r <= 'c':
			sb.WriteString(regs[r-'a'].Name)
		case o.Kind == adl.FReg:
			sb.WriteString(g.b.fixed[r].Name)
		case f.imm != "":
			sb.WriteString(f.imm)
		default:
			sb.WriteString(imm)
		}
	})
	g.out.WriteByte('\n')
}

func (g *gen) label(prefix string) string {
	g.labelN++
	return fmt.Sprintf(".L%s%d", prefix, g.labelN)
}

func retLabel(f *Func) string { return "mc_" + f.Name + "_ret" }

// fnLabel prefixes user functions to avoid clashing with mnemonics and
// assembler keywords.
func fnLabel(name string) string { return "mc_" + name }

func globalLabel(name string) string { return "gv_" + name }

func (g *gen) program() {
	b := g.b
	g.line("// MiniC compiler output, target %s", b.name)
	g.line("_start:")
	g.loadConst(b.sp, int64(b.top))
	g.i(b.call, fnLabel("main"))
	g.trap(0)
	for _, f := range g.prog.Funcs {
		g.f = f
		g.line("")
		g.line("%s:", fnLabel(f.Name))
		g.prologue(f)
		g.stmts(f.Body)
		// Implicit return: int functions fall out with value 0.
		if !f.Void {
			g.pushConst(0)
		}
		g.ret(!f.Void)
		g.epilogue(f)
	}
	g.line("")
	for _, gl := range g.prog.Globals {
		g.line("%s:", globalLabel(gl.Name))
		for _, v := range gl.Init {
			g.line("\t.word %d", v)
		}
		if rest := gl.Size - len(gl.Init); rest > 0 {
			g.line("\t.space %d", rest*b.w)
		}
	}
}

func (g *gen) stmts(ss []Stmt) {
	for _, s := range ss {
		g.stmt(s)
	}
}

func (g *gen) stmt(s Stmt) {
	switch s := s.(type) {
	case *AssignStmt:
		if s.Index != nil {
			// The value goes to t2, or to t1 when label(index) needs
			// no base register.
			g.expr(s.Index)
			g.expr(s.Value)
			v := g.b.t[2]
			if g.b.indexed {
				v = g.b.t[1]
			}
			g.pop(v)
			g.elem(g.b.store, v, globalLabel(s.Name))
		} else {
			g.expr(s.Value)
			g.pop(g.b.t[0])
			g.slot(s.Name, g.b.store, g.b.storeAbs)
		}
	case *IfStmt:
		els := g.label("else")
		end := g.label("endif")
		g.expr(s.Cond)
		g.jumpIfZero(els)
		g.stmts(s.Then)
		if len(s.Else) > 0 {
			g.i(g.b.jump, end)
		}
		g.line("%s:", els)
		if len(s.Else) > 0 {
			g.stmts(s.Else)
			g.line("%s:", end)
		}
	case *WhileStmt:
		top := g.label("loop")
		end := g.label("endloop")
		g.line("%s:", top)
		g.expr(s.Cond)
		g.jumpIfZero(end)
		g.stmts(s.Body)
		g.i(g.b.jump, top)
		g.line("%s:", end)
	case *ReturnStmt:
		if s.Value != nil {
			g.expr(s.Value)
		}
		g.ret(s.Value != nil)
	case *ExprStmt:
		// Calls in statement position discard any result.
		if call, ok := s.X.(*CallExpr); ok {
			g.call(call, false)
			return
		}
		g.expr(s.X)
		g.addSP(g.b.w)
	}
}

func (g *gen) expr(e Expr) {
	switch e := e.(type) {
	case *NumExpr:
		g.pushConst(e.Val)
	case *VarExpr:
		g.slot(e.Name, g.b.load, g.b.loadAbs)
		g.push(g.b.t[0])
	case *IndexExpr:
		g.expr(e.Index)
		g.elem(g.b.load, g.b.t[0], globalLabel(e.Name))
		g.push(g.b.t[0])
	case *UnaryExpr:
		g.expr(e.X)
		g.pop(g.b.t[0])
		g.b.ops["u"+e.Op](g)
		g.push(g.b.t[0])
	case *BinExpr:
		switch e.Op {
		case "&&":
			fail := g.label("andf")
			end := g.label("ande")
			g.expr(e.X)
			g.jumpIfZero(fail)
			g.expr(e.Y)
			g.jumpIfZero(fail)
			g.pushConst(1)
			g.i(g.b.jump, end)
			g.line("%s:", fail)
			g.pushConst(0)
			g.line("%s:", end)
		case "||":
			taken := g.label("ort")
			check2 := g.label("or2")
			end := g.label("ore")
			g.expr(e.X)
			g.jumpIfZero(check2)
			g.i(g.b.jump, taken)
			g.line("%s:", check2)
			g.expr(e.Y)
			g.jumpIfZero(end + "f")
			g.line("%s:", taken)
			g.pushConst(1)
			g.i(g.b.jump, end)
			g.line("%sf:", end)
			g.pushConst(0)
			g.line("%s:", end)
		default:
			g.expr(e.X)
			g.expr(e.Y)
			g.pop(g.b.t[1])
			g.pop(g.b.t[0])
			g.b.ops[e.Op](g)
			g.push(g.b.t[0])
		}
	case *CallExpr:
		g.call(e, true)
	}
}

func (g *gen) call(e *CallExpr, wantValue bool) {
	switch e.Name {
	case "input":
		g.trap(1)
		g.push(g.b.ret)
		if !wantValue {
			g.addSP(g.b.w)
		}
		return
	case "output":
		g.expr(e.Args[0])
		g.pop(g.b.arg)
		g.trap(2)
		return
	case "exit":
		g.trap(0)
		return
	}
	for _, a := range e.Args {
		g.expr(a)
	}
	g.i(g.b.call, fnLabel(e.Name))
	if n := len(e.Args); n > 0 {
		g.addSP(n * g.b.w)
	}
	if wantValue && !g.prog.Func(e.Name).Void {
		g.push(g.b.ret)
	}
}

// ---- stack machine operations over the derived forms ----

func (g *gen) addSP(n int) { g.i(g.b.addi, strconv.Itoa(n), g.b.sp, g.b.sp) }

// push and pop fall back to an add-immediate and a store (a load and an
// add-immediate) when the target has no push (pop) instruction.
func (g *gen) push(r *adl.Reg) {
	if b := g.b; b.push != nil {
		g.i(b.push, "", r)
	} else {
		g.addSP(-b.w)
		g.i(b.store, "0", r, b.sp)
	}
}

func (g *gen) pop(r *adl.Reg) {
	if b := g.b; b.pop != nil {
		g.i(b.pop, "", r)
	} else {
		g.i(b.load, "0", r, b.sp)
		g.addSP(b.w)
	}
}

// loadConst puts v, modulo the word, in r: a small constant when the
// immediate holds it, else the upper part and, unless zero, the low k
// bits. Where the pair does not span the word, the upper part's top bit
// must be clear, whether the upper immediate zero- or sign-extends.
func (g *gen) loadConst(r *adl.Reg, v int64) {
	b, width := g.b, uint(8*g.b.w)
	u := bv.Trunc(uint64(v), width)
	if s, n := bv.ToInt64(u, width), b.li.immBits(); n >= width || s >= -1<<(n-1) && s < 1<<(n-1) {
		g.i(b.li, strconv.FormatInt(s, 10), r)
		return
	}
	lo := u & bv.Mask(b.k)
	if !b.lowOr {
		lo = bv.SExt(lo, b.k)
	}
	hi := bv.Trunc(u-lo, width) >> b.k
	if b.upper != nil && b.low != nil && (b.k+b.upper.immBits() >= width || hi>>(b.upper.immBits()-1) == 0) {
		g.i(b.upper, strconv.FormatUint(hi, 10), r)
		if lo != 0 {
			g.i(b.low, strconv.FormatInt(int64(lo), 10), r, r)
		}
	} else if g.err == nil {
		g.err = fmt.Errorf("minic: constant %d is out of range on %s", v, b.name)
	}
}

func (g *gen) pushConst(v int64) {
	g.loadConst(g.b.t[0], v)
	g.push(g.b.t[0])
}

// addr puts a label's address in r: a small constant under the
// near-data assumption, else the upper-immediate pair.
func (g *gen) addr(r *adl.Reg, label string) {
	if b := g.b; b.li.immBits() >= nearData {
		g.i(b.li, label, r)
	} else {
		g.i(b.upper, b.hi+"("+label+")", r)
		g.i(b.low, b.lo+"("+label+")", r, r)
	}
}

// slot loads or stores (f, or abs for a global) t0 at a variable. Args
// are pushed first to last and sit above the saved fp and the return
// address; locals sit below fp.
func (g *gen) slot(name string, f, abs *form) {
	b := g.b
	if i := slices.Index(g.f.Params, name); i >= 0 {
		g.i(f, strconv.Itoa((1+len(g.f.Params)-i)*b.w), b.t[0], b.fp)
	} else if i := slices.Index(g.f.Locals, name); i >= 0 {
		g.i(f, strconv.Itoa(-(i+1)*b.w), b.t[0], b.fp)
	} else if abs != nil {
		g.i(abs, globalLabel(name), b.t[0])
	} else {
		g.addr(b.t[1], globalLabel(name))
		g.i(f, "0", b.t[0], b.t[1])
	}
}

// elem pops an index into t0 and loads or stores (f) r at
// label+index*W. The scaling temporary is whichever of t1 and t2 does
// not hold r.
func (g *gen) elem(f *form, r *adl.Reg, label string) {
	b, t := g.b, g.b.t
	g.pop(t[0])
	if b.shli != nil {
		g.i(b.shli, "", t[0])
	} else {
		tmp := t[1]
		if r == t[1] {
			tmp = t[2]
		}
		g.loadConst(tmp, int64(bits.TrailingZeros(uint(b.w))))
		g.i(b.bin["<<"], "", t[0], tmp)
	}
	if b.indexed {
		g.i(f, label, r, t[0])
		return
	}
	g.addr(t[1], label)
	g.i(b.bin["+"], "", t[0], t[1])
	g.i(f, "0", r, t[0])
}

// materialize sets t0 to 1 when the [compare, branch] pair cb is taken,
// else to 0.
func (g *gen) materialize(prefix string, cb [2]*form) {
	t, e := g.label(prefix+"t"), g.label(prefix+"e")
	g.branch(cb, t)
	g.loadConst(g.b.t[0], 0)
	g.i(g.b.short, e)
	g.line("%s:", t)
	g.loadConst(g.b.t[0], 1)
	g.line("%s:", e)
}

// branch emits a [compare, branch] pair on t0 and t1 (or t0 and the
// compare's immediate).
func (g *gen) branch(cb [2]*form, label string) {
	if cb[0] != nil {
		g.i(cb[0], "", g.b.t[0], g.b.t[1])
	}
	g.i(cb[1], label, g.b.t[0], g.b.t[1])
}

// jumpIfZero pops the top of stack and jumps when it is zero; a short
// branch is inverted around a jump.
func (g *gen) jumpIfZero(label string) {
	g.pop(g.b.t[0])
	if g.b.zne[1] == nil {
		g.branch(g.b.zeq, label)
		return
	}
	skip := g.label("jz")
	g.branch(g.b.zne, skip)
	g.i(g.b.jump, label)
	g.line("%s:", skip)
}

// trap raises a trap, its code an immediate or in the code register.
func (g *gen) trap(code int) {
	if r := g.b.trapReg; r != nil {
		g.loadConst(r, int64(code))
	}
	g.i(g.b.trap, strconv.Itoa(code))
}

// ret pops the return value (when hasValue) into sysret and jumps to the
// epilogue.
func (g *gen) ret(hasValue bool) {
	if hasValue {
		g.pop(g.b.ret)
	}
	g.i(g.b.jump, retLabel(g.f))
}

// prologue builds the frame [locals][saved fp][return address][args]
// with fp at the saved fp: a link-register target saves lr and fp in
// one two-word allocation, a stack-call target pushes fp.
func (g *gen) prologue(f *Func) {
	b := g.b
	if b.lr != nil {
		g.addSP(-2 * b.w)
		g.i(b.store, strconv.Itoa(b.w), b.lr, b.sp)
		g.i(b.store, "0", b.fp, b.sp)
	} else {
		g.push(b.fp)
	}
	g.i(b.move, "", b.fp, b.sp)
	if n := len(f.Locals); n > 0 {
		g.addSP(-b.w * n)
	}
}

func (g *gen) epilogue(f *Func) {
	b := g.b
	g.line("%s:", retLabel(f))
	g.i(b.move, "", b.sp, b.fp)
	if b.lr != nil {
		g.i(b.load, "0", b.fp, b.sp)
		g.i(b.load, strconv.Itoa(b.w), b.lr, b.sp)
		g.addSP(2 * b.w)
	} else {
		g.pop(b.fp)
	}
	g.i(b.retf, "")
}
