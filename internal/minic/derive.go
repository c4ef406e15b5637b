package minic

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/arch"
	"repro/internal/adl"
	"repro/internal/asm"
	"repro/internal/bv"
	"repro/internal/rtl"
)

// The backend is derived from the architecture description by matching
// the checked semantics IR. show prints each instruction's semantics as
// canonical text with every register operand a placeholder. An operation
// is a list of patterns in that text, each tried against the
// instructions in declaration order; matching binds every register
// operand to the role at its place in the pattern: a, b, c (the
// registers the emitter passes, usually t0, t1, t2), z (the zero
// register), s (sp) or l (lr). In a pattern, I is either immediate.
//
// In the text, pc is p and pc plus the instruction's length n; i is an
// immediate sign-extended or as wide as its use, u one zero-extended;
// locals are inlined; [x] is memory at x; ?c{…}{…} a conditional; T(x) a
// trap; # anything else. Writes to registers outside the register files
// (flags) are left out, and so are three things no MiniC program can
// observe: a fault guarded by a condition, a divide's zero-divisor case,
// and the masking of a shift amount to the word's bit count. Flag
// meanings are not matched but run (flagBranch).

// form is a selected instruction: each register operand's role, and the
// immediate when the operation fixes it.
type form struct {
	ins  *adl.Insn
	bind map[*adl.Operand]byte
	imm  string
}

// immBits is the width of the form's immediate operand (0 if none).
func (f *form) immBits() uint {
	for _, o := range f.ins.Operands {
		if o.Kind != adl.FReg {
			return o.Bits()
		}
	}
	return 0
}

// reach is how far the immediate reaches as an offset or displacement:
// half its range, or everywhere when it is as wide as an address.
func (f *form) reach(addrBits uint) uint64 {
	if n := f.immBits(); n < addrBits {
		return 1 << (n - 1)
	}
	return math.MaxUint64
}

func isConst(e adl.Expr, v uint64) bool {
	c, ok := e.(*adl.ConstExpr)
	return ok && c.Val == v
}

// show prints ins's semantics as canonical text; register operand k is
// the byte 0x80+k.
func (d *deriver) show(ins *adl.Insn) string {
	locals := map[int]string{}
	names := map[*adl.Reg]string{d.a.PC: "p", d.b.sp: "s", d.b.lr: "l", d.b.fixed['z']: "z"}
	var ex func(e adl.Expr) string
	ex = func(e adl.Expr) string {
		switch e := e.(type) {
		case *adl.ConstExpr:
			return strconv.FormatInt(bv.ToInt64(e.Val, e.W), 10)
		case *adl.RegExpr:
			if n, ok := names[e.Reg]; ok {
				return n
			}
			return e.Reg.Name
		case *adl.RegOpExpr:
			return string([]byte{0x80 + byte(slices.Index(ins.Operands, e.Op))})
		case *adl.ImmExpr:
			return "i"
		case *adl.ExtendExpr:
			if _, ok := e.X.(*adl.ImmExpr); ok {
				return map[bool]string{true: "i", false: "u"}[e.Signed]
			}
		case *adl.LocalExpr:
			return locals[e.Idx]
		case *adl.UnExpr:
			return [...]string{"~", "-"}[e.Op] + ex(e.X)
		case *adl.BinExpr:
			if x, ok := e.X.(*adl.RegExpr); ok && x.Reg == d.a.PC && e.Op == adl.BAdd && isConst(e.Y, uint64(ins.Format.Bytes())) {
				return "n"
			}
			y := e.Y
			if m, ok := y.(*adl.BinExpr); ok && e.Op >= adl.BShl && m.Op == adl.BAnd && isConst(m.Y, uint64(e.Width()-1)) {
				y = m.X
			}
			return "(" + ex(e.X) + [...]string{"+", "-", "*", "/u", "%u", "/s", "%s", "&", "|", "^", "<<", ">>u", ">>s"}[e.Op] + ex(y) + ")"
		case *adl.CmpExpr:
			return "(" + ex(e.X) + [...]string{"==", "!=", "<u", "<=u", "<s", "<=s"}[e.Op] + ex(e.Y) + ")"
		case *adl.TernExpr:
			if f, ok := e.F.(*adl.BinExpr); ok && f.Op >= adl.BUDiv && f.Op <= adl.BSRem {
				return ex(f)
			} else if isConst(e.T, 1) && isConst(e.F, 0) {
				return ex(e.Cond)
			}
		case *adl.CatExpr:
			if isConst(e.Lo, 0) {
				return fmt.Sprintf("(%s<<%d)", ex(e.Hi), e.Lo.Width())
			}
		case *adl.LoadExpr:
			return "[" + ex(e.Addr) + "]"
		}
		return "#"
	}
	var stmts func(ss []adl.Stmt) string
	stmts = func(ss []adl.Stmt) string {
		var out []string
		for _, s := range ss {
			switch s := s.(type) {
			case *adl.LocalStmt:
				locals[s.Idx] = ex(s.Init)
			case *adl.AssignStmt:
				switch lv := s.LHS.(type) {
				case *adl.LocalLV:
					locals[lv.Idx] = ex(s.RHS)
				case *adl.RegOpLV:
					out = append(out, ex(&adl.RegOpExpr{Op: lv.Op})+"="+ex(s.RHS))
				case *adl.RegLV:
					if lv.Reg.File != nil || lv.Reg == d.a.PC {
						out = append(out, ex(&adl.RegExpr{Reg: lv.Reg})+"="+ex(s.RHS))
					}
				}
			case *adl.StoreStmt:
				out = append(out, "["+ex(s.Addr)+"]="+ex(s.Val))
			case *adl.IfStmt:
				if len(s.Then) == 1 && len(s.Else) == 0 {
					if _, fault := s.Then[0].(*adl.ErrorStmt); fault {
						continue
					}
				}
				out = append(out, "?"+ex(s.Cond)+"{"+stmts(s.Then)+"}{"+stmts(s.Else)+"}")
			case *adl.TrapStmt:
				out = append(out, "T("+ex(s.Code)+")")
			default:
				out = append(out, "#")
			}
		}
		return strings.Join(out, ";")
	}
	return stmts(ins.Sem)
}

// unify matches printed semantics against a pattern, binding every
// register operand of ins to a role.
func unify(ins *adl.Insn, got, pat string) (map[*adl.Operand]byte, bool) {
	if len(got) != len(pat) {
		return nil, false
	}
	var roles [128]byte // by operand index
	for i := range got {
		if c, p := got[i], pat[i]; c >= 0x80 {
			r := &roles[c-0x80]
			if *r != 0 && *r != p || !strings.ContainsRune("abczsl", rune(p)) {
				return nil, false
			}
			*r = p
		} else if c != p && !(p == 'I' && (c == 'i' || c == 'u')) {
			return nil, false
		}
	}
	bind := map[*adl.Operand]byte{}
	for k, o := range ins.Operands {
		if o.Kind == adl.FReg {
			if roles[k] == 0 {
				return nil, false
			}
			bind[o] = roles[k]
		}
	}
	return bind, true
}

type deriver struct {
	a    *adl.Arch
	b    *backend
	sems []string // show of each instruction
}

// probe is the concrete state compares and flag branches run on.
type probe map[*adl.Reg]uint64

func (p probe) ReadReg(r *adl.Reg) uint64     { return p[r] }
func (p probe) WriteReg(r *adl.Reg, v uint64) { p[r] = bv.Trunc(v, r.Width) }
func (probe) Load(uint64, uint) uint64        { return 0 }
func (probe) Store(uint64, uint, uint64)      {}

// all returns every instruction matching one of pats, pattern by
// pattern; imm fixes the immediate.
func (d *deriver) all(imm string, pats ...string) []*form {
	var out []*form
	for _, p := range pats {
		for i, ins := range d.a.Insns {
			if bind, ok := unify(ins, d.sems[i], p); ok {
				out = append(out, &form{ins, bind, imm})
			}
		}
	}
	return out
}

func (d *deriver) find(imm string, pats ...string) *form {
	return append(d.all(imm, pats...), nil)[0]
}

// or is f, or g when f is nil.
func or(f, g *form) *form {
	if f != nil {
		return f
	}
	return g
}

// flagBranch finds a compare — an instruction with no effect but on
// flags, over t0 and t1, or over t0 and the immediate 0 when imm — and a
// flag branch, whose only operand is its offset, that after the compare
// is taken exactly when rel holds of the compared values on every probe.
func (d *deriver) flagBranch(imm bool, rel func(x, y int64) bool) [2]*form {
	t, top := d.b.t, int64(1)<<(d.a.Bits-1)-1
	probes := [][2]int64{{-7, 3}, {100, -9}, {1, 1}, {3, -7}, {0, 5}, {-1, -1}, {top, -1}, {-top - 1, 1}}
	if imm {
		probes = [][2]int64{{0, 0}, {1, 0}, {-7, 0}, {100, 0}, {top, 0}}
	}
	m, sc := probe{}, &rtl.Scratch{}
	for ci, c := range d.a.Insns {
		if d.sems[ci] != "" || len(c.Operands) != 2 {
			continue
		}
		for _, roles := range []string{"ab", "ba"} {
			cf, ops := &form{ins: c, bind: map[*adl.Operand]byte{}}, rtl.Operands{}
			for _, o := range c.Operands {
				if r := roles[len(cf.bind)]; o.Kind == adl.FReg {
					cf.bind[o], ops[o.Name] = r, t[r-'a'].Index
				} else {
					cf.imm, ops[o.Name] = "0", 0
				}
			}
			if (cf.imm != "") != imm {
				break
			}
			for bi, br := range d.a.Insns {
				if len(br.Operands) != 1 || !br.Operands[0].Rel() || !strings.HasPrefix(d.sems[bi], "?") {
					continue
				}
				taken, bops := true, rtl.Operands{br.Operands[0].Name: 8}
				for _, p := range probes {
					m.WriteReg(t[0], uint64(p[0]))
					m.WriteReg(t[1], uint64(p[1]))
					rtl.ConcExecScratch(m, c, ops, sc)
					m.WriteReg(d.a.PC, 0)
					rtl.ConcExecScratch(m, br, bops, sc)
					taken = taken && (m[d.a.PC] == 8) == rel(p[0], p[1])
				}
				if taken {
					return [2]*form{cf, {ins: br}}
				}
			}
		}
	}
	return [2]*form{}
}

// backends derives each embedded architecture's backend on first use,
// once per process.
var backends = func() map[string]func() (*backend, error) {
	m := map[string]func() (*backend, error){}
	for _, n := range arch.Names() {
		m[n] = sync.OnceValues(func() (*backend, error) { return derive(arch.MustLoad(n)) })
	}
	return m
}()

func backendFor(name string) (*backend, error) {
	if f := backends[name]; f != nil {
		return f()
	}
	return nil, fmt.Errorf("minic: no code generator for architecture %q", name)
}

// Targets lists the embedded architectures whose description yields a
// MiniC backend.
func Targets() []string {
	var out []string
	for _, n := range arch.Names() {
		if _, err := backendFor(n); err == nil {
			out = append(out, n)
		}
	}
	return out
}

// nearData is the immediate width assumed to hold any data label: MiniC
// images start at address 0 and keep their data in the low 32 KiB.
const nearData = 16

// binOps are the MiniC binary operators and their signed effect on t0
// and t1 (roles a and b).
var binOps = [][2]string{
	{"+", "a+b"}, {"-", "a-b"}, {"*", "a*b"}, {"/", "a/sb"}, {"%", "a%sb"}, {"&", "a&b"}, {"|", "a|b"}, {"^", "a^b"},
	{"<<", "a<<b"}, {">>", "a>>sb"}, {"<", "a<sb"}, {">", "b<sa"}, {"<=", "a<=sb"}, {">=", "b<=sa"}, {"==", "a==b"}, {"!=", "a!=b"},
}

// derive selects the backend's instructions for a. The error names the
// first operation the description offers no instruction for.
func derive(a *adl.Arch) (*backend, error) {
	b := &backend{name: a.Name, w: int(a.Bits / 8), top: a.StackTop, lr: a.Reg("lr"), bin: map[string]*form{}, ops: map[string]func(*gen){}}
	for _, r := range []struct {
		p    **adl.Reg
		name string
	}{{&b.sp, "sp"}, {&b.fp, "fp"}, {&b.t[0], "t0"}, {&b.t[1], "t1"}, {&b.t[2], "t2"}, {&b.arg, "sysarg"}, {&b.ret, "sysret"}} {
		if *r.p = a.Reg(r.name); *r.p == nil {
			return nil, fmt.Errorf("minic: %s: no %s register", a.Name, r.name)
		}
	}
	if b.top == 0 {
		return nil, fmt.Errorf("minic: %s: no stack top", a.Name)
	}
	b.fixed = map[byte]*adl.Reg{'z': a.Reg("zero"), 's': b.sp, 'l': b.lr}
	d := &deriver{a: a, b: b}
	for _, ins := range a.Insns {
		d.sems = append(d.sems, d.show(ins))
	}
	var err error
	need := func(f *form, what string) *form {
		if f == nil && err == nil {
			err = fmt.Errorf("minic: %s: no instruction for %s", a.Name, what)
		}
		return f
	}
	t, w, addrBits := b.t, b.w, a.Space.AddrBits

	// Moves, constants and memory.
	b.addi = need(d.find("", "a=(a+i)"), "add-immediate")
	b.li = need(d.find("", "a=i", "a=(z+i)"), "small constant")
	b.move = need(or(d.find("", "a=b"), d.find("0", "a=(b+i)")), "register move")
	b.load = need(d.find("", "a=[(b+i)]"), "word load at register+offset")
	b.store = need(d.find("", "[(b+i)]=a"), "word store at register+offset")
	if err != nil {
		return nil, err
	}
	if k := b.li.immBits(); k < a.Bits {
		// Wide constants: an upper immediate above the small constant's
		// k bits, then the low bits ORed (zero-extended) or added
		// (sign-extended, the upper part rounding).
		b.k, b.upper, b.low, b.lowOr = k, d.find("", fmt.Sprintf("a=(I<<%d)", k)), d.find("", "a=(a|u)"), true
		if b.low == nil || b.low.immBits() != k {
			b.low, b.lowOr = b.addi, false
		}
		if b.low.immBits() != k {
			b.low = nil // no low part of the right width: wide constants are errors
		}
		b.hi, b.lo = asm.SplitHelpers(k, b.lowOr)
	}
	wide := func(f *form) *form {
		if f == nil || f.immBits() < nearData {
			return nil
		}
		return f
	}
	b.loadAbs = wide(d.find("", "a=[i]", "a=[(z+i)]"))
	b.storeAbs = wide(d.find("", "[i]=a", "[(z+i)]=a"))
	b.indexed = min(b.load.immBits(), b.store.immBits()) >= addrBits
	if (b.loadAbs == nil || b.storeAbs == nil || !b.indexed) && b.li.immBits() < nearData && (b.upper == nil || b.hi == "") {
		need(nil, "an address constant (upper-immediate pair)")
	}
	b.push = d.find("", fmt.Sprintf("s=(s-%d);[s]=a", w))
	b.pop = d.find("", fmt.Sprintf("a=[s];s=(s+%d)", w))
	b.shli = d.find(strconv.Itoa(bits.TrailingZeros(uint(w))), "a=(a<<I)")

	// Operators, with fallbacks keyed on what the description offers.
	unsigned := strings.NewReplacer("/s", "/u", ">>s", ">>u") // no signed divide or shift
	for _, o := range binOps {
		if f := or(d.find("", "a=("+o[1]+")"), d.find("", "a=("+unsigned.Replace(o[1])+")")); f != nil {
			b.bin[o[0]], b.ops[o[0]] = f, func(g *gen) { g.i(f, "", t[0], t[1]) }
		}
	}
	if b.ops["%"] == nil && b.bin["/"] != nil && b.bin["*"] != nil && b.bin["-"] != nil { // x - (x/y)*y
		b.ops["%"] = func(g *gen) {
			g.i(b.move, "", t[2], t[0])
			g.i(b.bin["/"], "", t[2], t[1])
			g.i(b.bin["*"], "", t[2], t[1])
			g.i(b.bin["-"], "", t[0], t[2])
		}
	}
	seqz, snez, flip := d.find("1", "a=(a<uI)"), d.find("", "a=(z<ua)"), d.find("1", "a=(a^I)")
	for name, fs := range map[string][2]*form{"<=": {b.bin[">"], flip}, ">=": {b.bin["<"], flip}, "==": {b.bin["-"], seqz}, "!=": {b.bin["-"], snez}} {
		if b.ops[name] == nil && fs[0] != nil && fs[1] != nil {
			b.ops[name] = func(g *gen) { g.i(fs[0], "", t[0], t[1]); g.i(fs[1], "", t[0]) }
		}
	}
	for name, rel := range map[string]func(x, y int64) bool{ // no set-less-than: compare and flag branches
		"<": func(x, y int64) bool { return x < y }, ">": func(x, y int64) bool { return x > y },
		"<=": func(x, y int64) bool { return x <= y }, ">=": func(x, y int64) bool { return x >= y },
		"==": func(x, y int64) bool { return x == y }, "!=": func(x, y int64) bool { return x != y },
	} {
		if b.ops[name] != nil {
			continue
		}
		if cb := d.flagBranch(false, rel); cb[1] != nil {
			b.ops[name] = func(g *gen) { g.materialize("c", cb) }
		}
	}
	for _, o := range binOps {
		if b.ops[o[0]] == nil {
			need(nil, "operator "+o[0])
		}
	}

	// Branches on zero: a register-compare branch, else a compare with
	// zero and a flag branch. A short branch — one reaching less far
	// than a register+offset displacement — is inverted around a jump.
	zeroBranch := func(rel string, eq bool) [2]*form {
		if f := d.find("", "?(a"+rel+"z){p=(p+i)}{}"); f != nil {
			return [2]*form{nil, f}
		}
		return d.flagBranch(true, func(x, _ int64) bool { return (x == 0) == eq })
	}
	b.zeq = zeroBranch("==", true)
	if need(b.zeq[1], "branch if zero") != nil && b.zeq[1].reach(addrBits) < b.load.reach(addrBits) {
		b.zne = zeroBranch("!=", false)
		need(b.zne[1], "branch if not zero")
	}
	neg := need(d.find("", "a=-a", "a=(z-a)"), "negation")
	b.ops["u-"] = func(g *gen) { g.i(neg, "", t[0]) }
	b.ops["u!"] = func(g *gen) { g.materialize("n", b.zeq) }
	if seqz != nil {
		b.ops["u!"] = func(g *gen) { g.i(seqz, "", t[0]) }
	}

	// Control transfer: the jump that reaches farthest and the shortest
	// one; a call through lr, else one pushing the return address.
	for _, f := range d.all("", "p=(p+i)", "p=i", "z=n;p=(p+i)") {
		if b.jump == nil || f.reach(addrBits) > b.jump.reach(addrBits) {
			b.jump = f
		}
		if b.short == nil || f.ins.Format.Width < b.short.ins.Format.Width {
			b.short = f
		}
	}
	need(b.jump, "jump")
	if b.lr != nil {
		b.call = d.find("", "l=n;p=(p+i)", "l=n;p=i")
		b.retf = or(d.find("", "p=l"), d.find("0", "p=((l+i)&-2);z=n"))
	}
	if b.call == nil || b.retf == nil {
		b.lr = nil // the return address lives on the stack
		b.call = d.find("", fmt.Sprintf("s=(s-%d);[s]=n;p=(p+i)", w), fmt.Sprintf("s=(s-%d);[s]=n;p=i", w))
		b.retf = d.find("", fmt.Sprintf("p=[s];s=(s+%d)", w))
	}
	need(b.call, "subroutine call")
	need(b.retf, "return")

	// The trap: its code an immediate, or a register.
	b.trap = d.find("", "T(I)")
	for i, ins := range a.Insns {
		code, ok := strings.CutPrefix(d.sems[i], "T(")
		if r := a.Reg(strings.TrimSuffix(code, ")")); ok && r != nil && b.trap == nil {
			b.trap, b.trapReg = &form{ins: ins}, r
		}
	}
	need(b.trap, "system trap")
	return b, err
}
