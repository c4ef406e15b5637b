package adl

import (
	"errors"
	"fmt"
	"strings"
)

// Load parses and checks an ADL source file, returning the architecture
// model. The file argument is used only for error messages.
func Load(file, src string) (*Arch, error) {
	ast, err := parse(file, src)
	if err != nil {
		return nil, err
	}
	c := &checker{file: file}
	return c.check(ast)
}

type checker struct {
	file string
	arch *Arch
}

func (c *checker) errf(line int, format string, args ...any) error {
	return &Error{File: c.file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (c *checker) check(f *astFile) (*Arch, error) {
	a := &Arch{
		Name:       f.name,
		Bits:       32,
		Endian:     Little,
		regByName:  make(map[string]*Reg),
		fileByName: make(map[string]*RegFile),
	}
	c.arch = a

	// Pass 1: architecture-level declarations.
	stackLine := 0
	for _, d := range f.decls {
		var err error
		switch d := d.(type) {
		case astBits:
			if d.n < 8 || d.n > 64 {
				err = c.errf(d.line, "bits must be between 8 and 64")
			}
			a.Bits = d.n
		case astEndian:
			if d.little {
				a.Endian = Little
			} else {
				a.Endian = Big
			}
		case astReg:
			err = c.declReg(d)
		case astAlias:
			err = c.declAlias(d)
		case astHardwire:
			if r := a.regByName[d.name]; r == nil {
				err = c.errf(d.line, "hardwire target %s is not a register", d.name)
			} else if r == a.PC {
				err = c.errf(d.line, "the pc register cannot be hardwired to zero")
			} else {
				r.Zero = true
			}
		case astStack:
			a.StackTop, stackLine = d.top, d.line
		case astSpace:
			err = c.declSpace(d)
		case astPseudo:
			err = c.declPseudo(d)
		case astFormat:
			err = c.declFormat(d)
		}
		if err != nil {
			return nil, err
		}
	}
	if a.PC == nil {
		return nil, c.errf(1, "architecture %s declares no [pc] register", a.Name)
	}
	if stackLine != 0 && (a.StackTop == 0 || a.StackTop>>(a.Bits-1)>>1 != 0) {
		return nil, c.errf(stackLine, "stack top %#x is outside the %d-bit address space", a.StackTop, a.Bits)
	}
	if a.Space == nil {
		a.Space = &Space{Name: "mem", AddrBits: a.Bits, CellBits: 8}
	}

	// Pass 2: instructions.
	for _, d := range f.decls {
		ins, ok := d.(astInsn)
		if !ok {
			continue
		}
		if err := c.declInsn(ins); err != nil {
			return nil, err
		}
	}
	if len(a.Insns) == 0 {
		return nil, c.errf(1, "architecture %s declares no instructions", a.Name)
	}
	return a, c.checkEncodings()
}

func (c *checker) addReg(name string, width uint, line int) (*Reg, error) {
	if _, dup := c.arch.regByName[name]; dup {
		return nil, c.errf(line, "register %s redeclared", name)
	}
	r := &Reg{Name: name, Width: width, Num: len(c.arch.Regs)}
	c.arch.Regs = append(c.arch.Regs, r)
	c.arch.regByName[name] = r
	return r, nil
}

// splitIndexed splits a register-range endpoint like "r15" into its
// alphabetic prefix and numeric suffix.
func splitIndexed(name string) (prefix string, idx uint64, ok bool) {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	if i == len(name) || i == 0 {
		return "", 0, false
	}
	var v uint64
	for _, ch := range name[i:] {
		v = v*10 + uint64(ch-'0')
	}
	return name[:i], v, true
}

// maxFileRegs bounds a register file, so that a short description
// cannot demand an unbounded model.
const maxFileRegs = 1024

func (c *checker) declReg(d astReg) error {
	if d.width < 1 || d.width > 64 {
		return c.errf(d.line, "register width must be 1..64")
	}
	if d.hiName != "" {
		// Register file r0..rN.
		loPre, loIdx, ok1 := splitIndexed(d.loName)
		hiPre, hiIdx, ok2 := splitIndexed(d.hiName)
		if !ok1 || !ok2 || loPre != hiPre || hiIdx < loIdx {
			return c.errf(d.line, "malformed register range %s..%s", d.loName, d.hiName)
		}
		if loIdx != 0 {
			return c.errf(d.line, "register files must start at index 0 (got %s)", d.loName)
		}
		if hiIdx >= maxFileRegs {
			return c.errf(d.line, "register file %s has more than %d registers", loPre, maxFileRegs)
		}
		if len(d.attrs) > 0 || len(d.subs) > 0 {
			return c.errf(d.line, "register files cannot carry attributes or subfields")
		}
		if _, dup := c.arch.fileByName[loPre]; dup {
			return c.errf(d.line, "register file %s redeclared", loPre)
		}
		rf := &RegFile{Name: loPre, Width: d.width}
		for i := loIdx; i <= hiIdx; i++ {
			r, err := c.addReg(fmt.Sprintf("%s%d", loPre, i), d.width, d.line)
			if err != nil {
				return err
			}
			r.File = rf
			r.Index = i
			rf.Regs = append(rf.Regs, r)
		}
		c.arch.RegFiles = append(c.arch.RegFiles, rf)
		c.arch.fileByName[loPre] = rf
		return nil
	}
	r, err := c.addReg(d.loName, d.width, d.line)
	if err != nil {
		return err
	}
	for _, s := range d.subs {
		if s.hi < s.lo || s.hi >= d.width {
			return c.errf(s.line, "subfield %s [%d..%d] out of range for width %d", s.name, s.hi, s.lo, d.width)
		}
		if _, dup := r.Sub(s.name); dup {
			return c.errf(s.line, "subfield %s redeclared", s.name)
		}
		r.Subs = append(r.Subs, SubField{Name: s.name, Hi: s.hi, Lo: s.lo})
	}
	for _, attr := range d.attrs {
		switch attr {
		case "pc":
			if c.arch.PC != nil {
				return c.errf(d.line, "multiple [pc] registers")
			}
			if r.Width != c.arch.Bits {
				return c.errf(d.line, "[pc] register must have the machine width %d", c.arch.Bits)
			}
			c.arch.PC = r
		case "sp":
			if c.arch.SP != nil {
				return c.errf(d.line, "multiple [sp] registers")
			}
			c.arch.SP = r
		case "zero":
			r.Zero = true
		default:
			return c.errf(d.line, "unknown register attribute %q", attr)
		}
	}
	return nil
}

func (c *checker) declAlias(d astAlias) error {
	tgt := c.arch.regByName[d.target]
	if tgt == nil {
		return c.errf(d.line, "alias target %s is not a register", d.target)
	}
	if _, dup := c.arch.regByName[d.name]; dup {
		return c.errf(d.line, "alias %s collides with an existing register", d.name)
	}
	c.arch.regByName[d.name] = tgt
	if d.name == "sp" && c.arch.SP == nil {
		c.arch.SP = tgt
	}
	return nil
}

func (c *checker) declSpace(d astSpace) error {
	if c.arch.Space != nil {
		return c.errf(d.line, "multiple memory spaces are not supported")
	}
	if d.cellBits != 8 {
		return c.errf(d.line, "only 8-bit memory cells are supported")
	}
	if d.addrBits != c.arch.Bits {
		return c.errf(d.line, "memory address width %d must equal the machine width %d", d.addrBits, c.arch.Bits)
	}
	c.arch.Space = &Space{Name: d.name, AddrBits: d.addrBits, CellBits: d.cellBits}
	return nil
}

func (c *checker) declFormat(d astFormat) error {
	for _, f := range c.arch.Formats {
		if f.Name == d.name {
			return c.errf(d.line, "format %s redeclared", d.name)
		}
	}
	if d.width%8 != 0 || d.width == 0 || d.width > 64 {
		return c.errf(d.line, "format width must be a positive multiple of 8, at most 64")
	}
	f := &Format{Name: d.name, Width: d.width}
	pos := d.width
	seen := map[string]bool{}
	for _, fd := range d.fields {
		if fd.bits == 0 || fd.bits > pos {
			return c.errf(fd.line, "field %s: %d bits does not fit the remaining %d", fd.name, fd.bits, pos)
		}
		if seen[fd.name] {
			return c.errf(fd.line, "field %s redeclared", fd.name)
		}
		seen[fd.name] = true
		field := &Field{Name: fd.name, Hi: pos - 1, Lo: pos - fd.bits}
		switch fd.kind {
		case "reg":
			rf := c.arch.fileByName[fd.file]
			if rf == nil {
				return c.errf(fd.line, "field %s: unknown register file %q", fd.name, fd.file)
			}
			if uint64(len(rf.Regs)) < uint64(1)<<fd.bits {
				return c.errf(fd.line, "field %s: %d bits can index %d registers but file %s has only %d",
					fd.name, fd.bits, 1<<fd.bits, rf.Name, len(rf.Regs))
			}
			field.Kind, field.File = FReg, rf
		case "simm":
			field.Kind = FSImm
		case "uimm":
			field.Kind = FUImm
		}
		f.Fields = append(f.Fields, field)
		pos -= fd.bits
	}
	if pos != 0 {
		return c.errf(d.line, "format %s: fields cover %d of %d bits", d.name, d.width-pos, d.width)
	}
	c.arch.Formats = append(c.arch.Formats, f)
	return nil
}

func (c *checker) declPseudo(d astPseudo) error {
	tmpl := d.template
	if tmpl == "" {
		tmpl = d.name
	}
	ps := &Pseudo{Expansion: d.expansion, Line: d.line}
	// Tokenize the template exactly like instruction templates.
	tmpl = strings.TrimSpace(tmpl)
	sp := strings.IndexAny(tmpl, " \t")
	params := map[string]bool{}
	if sp < 0 {
		ps.Mnemonic = tmpl
	} else {
		ps.Mnemonic = tmpl[:sp]
		rest := tmpl[sp:]
		i := 0
		for i < len(rest) {
			switch {
			case rest[i] == ' ' || rest[i] == '\t':
				i++
			case rest[i] == '%':
				i++
				start := i
				for i < len(rest) && isIdentPart(rest[i]) {
					i++
				}
				if start == i {
					return c.errf(d.line, "pseudo %s: stray %% in template", d.name)
				}
				name := rest[start:i]
				if params[name] {
					return c.errf(d.line, "pseudo %s: parameter %%%s repeated", d.name, name)
				}
				params[name] = true
				ps.Toks = append(ps.Toks, PseudoTok{Param: name})
			default:
				start := i
				for i < len(rest) && rest[i] != '%' && rest[i] != ' ' && rest[i] != '\t' {
					i++
				}
				ps.Toks = append(ps.Toks, PseudoTok{Lit: rest[start:i]})
			}
		}
	}
	if ps.Mnemonic != d.name {
		return c.errf(d.line, "pseudo %s: template mnemonic %q must match the pseudo name", d.name, ps.Mnemonic)
	}
	// Every %name in the expansion must be a template parameter.
	for i := 0; i < len(d.expansion); i++ {
		if d.expansion[i] != '%' {
			continue
		}
		j := i + 1
		for j < len(d.expansion) && isIdentPart(d.expansion[j]) {
			j++
		}
		if j == i+1 {
			return c.errf(d.line, "pseudo %s: stray %% in expansion", d.name)
		}
		if !params[d.expansion[i+1:j]] {
			return c.errf(d.line, "pseudo %s: expansion references unknown parameter %%%s", d.name, d.expansion[i+1:j])
		}
		i = j - 1
	}
	// The mnemonic must not collide with a real instruction... it may:
	// real templates are tried first, pseudos only when none matches.
	c.arch.Pseudos = append(c.arch.Pseudos, ps)
	return nil
}

// ---- instructions ----

type insnChecker struct {
	c      *checker
	ins    *Insn
	format *Format
	locals map[string]*LocalExpr
	nLocal int
	line   int
}

// errNeedWidth is an internal sentinel: an unsized literal was found in a
// position with no width expectation.
var errNeedWidth = errors.New("width needed")

func (c *checker) declInsn(d astInsn) error {
	for _, i := range c.arch.Insns {
		if i.Name == d.name {
			return c.errf(d.line, "instruction %s redeclared", d.name)
		}
	}
	format := (*Format)(nil)
	for _, f := range c.arch.Formats {
		if f.Name == d.format {
			format = f
			break
		}
	}
	if format == nil {
		return c.errf(d.line, "instruction %s: unknown format %s", d.name, d.format)
	}
	ins := &Insn{Name: d.name, Format: format, Line: d.line}

	// Encoding matches.
	matched := map[string]bool{}
	for _, m := range d.matches {
		f := format.Field(m.field)
		if f == nil {
			return c.errf(m.line, "match on unknown field %s", m.field)
		}
		if matched[m.field] {
			return c.errf(m.line, "field %s matched twice", m.field)
		}
		matched[m.field] = true
		if m.value >= 1<<f.Bits() && f.Bits() < 64 {
			return c.errf(m.line, "match value %#x does not fit field %s (%d bits)", m.value, m.field, f.Bits())
		}
		mask := (uint64(1)<<f.Bits() - 1) << f.Lo
		ins.Mask |= mask
		ins.Match |= m.value << f.Lo
	}

	ic := &insnChecker{c: c, ins: ins, format: format, locals: map[string]*LocalExpr{}, line: d.line}

	// Explicit operand declarations.
	for _, od := range d.operands {
		if err := ic.declOperand(od, matched); err != nil {
			return err
		}
	}
	// Assembly template.
	if err := ic.parseTemplate(d.template, matched); err != nil {
		return err
	}
	// Semantics.
	body, err := ic.stmts(d.body, matched)
	if err != nil {
		return err
	}
	ins.Sem = body
	c.arch.Insns = append(c.arch.Insns, ins)
	return nil
}

func (ic *insnChecker) declOperand(od astOperand, matched map[string]bool) error {
	c := ic.c
	if ic.ins.Operand(od.name) != nil {
		return c.errf(od.line, "operand %s redeclared", od.name)
	}
	op := &Operand{Name: od.name}
	if len(od.items) == 0 {
		// The operand is the field of the same name.
		f := ic.format.Field(od.name)
		if f == nil {
			return c.errf(od.line, "operand %s names no field of format %s", od.name, ic.format.Name)
		}
		if err := ic.bindField(op, f, matched, od.line); err != nil {
			return err
		}
	} else {
		op.Kind = FSImm // composed operands default to signed immediates
		for _, it := range od.items {
			if it.field == "" {
				if it.width == 0 || it.val >= 1<<it.width {
					return c.errf(it.line, "constant item %d:%d malformed", it.val, it.width)
				}
				op.Items = append(op.Items, CatItem{Val: it.val, Width: it.width})
				continue
			}
			f := ic.format.Field(it.field)
			if f == nil {
				return c.errf(it.line, "operand %s: unknown field %s", od.name, it.field)
			}
			if f.Kind == FReg {
				return c.errf(it.line, "operand %s: register field %s cannot be concatenated", od.name, it.field)
			}
			if matched[it.field] {
				return c.errf(it.line, "operand %s: field %s is fixed by the encoding match", od.name, it.field)
			}
			op.Items = append(op.Items, CatItem{Field: f})
		}
		if op.Bits() > 64 {
			return c.errf(od.line, "operand %s wider than 64 bits", od.name)
		}
	}
	for _, attr := range od.attrs {
		switch attr {
		case "rel":
			op.Attrs |= AttrRel
		case "signed":
			op.Attrs |= AttrSigned
		case "unsigned":
			op.Kind = FUImm
		default:
			return c.errf(od.line, "unknown operand attribute %q", attr)
		}
	}
	ic.ins.Operands = append(ic.ins.Operands, op)
	return nil
}

func (ic *insnChecker) bindField(op *Operand, f *Field, matched map[string]bool, line int) error {
	if matched[f.Name] {
		return ic.c.errf(line, "field %s is fixed by the encoding match and cannot be an operand", f.Name)
	}
	op.Items = []CatItem{{Field: f}}
	switch f.Kind {
	case FReg:
		op.Kind, op.File = FReg, f.File
	case FSImm:
		op.Kind = FSImm
	default:
		op.Kind = FUImm
	}
	return nil
}

// lookupOperand resolves a name to an operand, creating an implicit
// single-field operand on first use.
func (ic *insnChecker) lookupOperand(name string, matched map[string]bool, line int) (*Operand, error) {
	if op := ic.ins.Operand(name); op != nil {
		return op, nil
	}
	f := ic.format.Field(name)
	if f == nil {
		return nil, nil
	}
	op := &Operand{Name: name}
	if err := ic.bindField(op, f, matched, line); err != nil {
		return nil, err
	}
	ic.ins.Operands = append(ic.ins.Operands, op)
	return op, nil
}

func (ic *insnChecker) parseTemplate(tmpl string, matched map[string]bool) error {
	c := ic.c
	tmpl = strings.TrimSpace(tmpl)
	sp := strings.IndexAny(tmpl, " \t")
	if sp < 0 {
		ic.ins.Mnemonic = tmpl
	} else {
		ic.ins.Mnemonic = tmpl[:sp]
		rest := tmpl[sp:]
		i := 0
		for i < len(rest) {
			switch {
			case rest[i] == ' ' || rest[i] == '\t':
				i++
			case rest[i] == '%':
				i++
				start := i
				for i < len(rest) && (isIdentPart(rest[i])) {
					i++
				}
				name := rest[start:i]
				if name == "" {
					return c.errf(ic.line, "template: stray %% in %q", tmpl)
				}
				op, err := ic.lookupOperand(name, matched, ic.line)
				if err != nil {
					return err
				}
				if op == nil {
					return c.errf(ic.line, "template references unknown operand %%%s", name)
				}
				ic.ins.AsmToks = append(ic.ins.AsmToks, AsmTok{Operand: op})
			default:
				start := i
				for i < len(rest) && rest[i] != '%' && rest[i] != ' ' && rest[i] != '\t' {
					i++
				}
				ic.ins.AsmToks = append(ic.ins.AsmToks, AsmTok{Lit: rest[start:i]})
			}
		}
	}
	if ic.ins.Mnemonic == "" {
		return c.errf(ic.line, "empty assembly template")
	}
	return nil
}

// ---- semantics checking ----

func (ic *insnChecker) stmts(body []astStmt, matched map[string]bool) ([]Stmt, error) {
	var out []Stmt
	for _, s := range body {
		st, err := ic.stmt(s, matched)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func (ic *insnChecker) stmt(s astStmt, matched map[string]bool) (Stmt, error) {
	c := ic.c
	switch s := s.(type) {
	case astAssign:
		lv, err := ic.lvalue(s.lhs, matched)
		if err != nil {
			return nil, err
		}
		rhs, err := ic.expr(s.rhs, lvWidth(lv), matched)
		if err != nil {
			return nil, err
		}
		if rhs.Width() == 0 {
			return nil, c.errf(s.line, "cannot assign a boolean; use cond ? 1 : 0")
		}
		if rhs.Width() != lvWidth(lv) {
			return nil, c.errf(s.line, "assignment width mismatch: %d-bit target, %d-bit value", lvWidth(lv), rhs.Width())
		}
		return &AssignStmt{LHS: lv, RHS: rhs}, nil
	case astIf:
		cond, err := ic.expr(s.cond, 0, matched)
		if err != nil {
			return nil, err
		}
		if cond.Width() != 0 {
			return nil, c.errf(s.line, "if condition must be boolean (use != 0)")
		}
		then, err := ic.stmts(s.then, matched)
		if err != nil {
			return nil, err
		}
		els, err := ic.stmts(s.els, matched)
		if err != nil {
			return nil, err
		}
		return &IfStmt{Cond: cond, Then: then, Else: els}, nil
	case astLocal:
		if _, dup := ic.locals[s.name]; dup {
			return nil, c.errf(s.line, "local %s redeclared", s.name)
		}
		init, err := ic.expr(s.init, s.width, matched)
		if err != nil {
			if errors.Is(err, errNeedWidth) {
				return nil, c.errf(s.line, "local %s: cannot infer width; declare one (local %s : 32 = ...)", s.name, s.name)
			}
			return nil, err
		}
		if init.Width() == 0 {
			return nil, c.errf(s.line, "local %s: boolean initializer; use cond ? 1 : 0", s.name)
		}
		if s.width != 0 && init.Width() != s.width {
			return nil, c.errf(s.line, "local %s: declared %d bits but initializer has %d", s.name, s.width, init.Width())
		}
		le := &LocalExpr{Name: s.name, Idx: ic.nLocal, W: init.Width()}
		ic.nLocal++
		ic.locals[s.name] = le
		return &LocalStmt{Name: s.name, Idx: le.Idx, W: le.W, Init: init}, nil
	case astCallStmt:
		switch s.name {
		case "halt":
			return &HaltStmt{}, nil
		case "error":
			return &ErrorStmt{Msg: s.msg}, nil
		case "trap":
			if len(s.args) != 1 {
				return nil, c.errf(s.line, "trap takes one argument")
			}
			code, err := ic.expr(s.args[0], ic.c.arch.Bits, matched)
			if err != nil {
				return nil, err
			}
			return &TrapStmt{Code: code}, nil
		case "store":
			if len(s.args) != 3 {
				return nil, c.errf(s.line, "store takes (addr, cells, value)")
			}
			addr, err := ic.expr(s.args[0], ic.c.arch.Bits, matched)
			if err != nil {
				return nil, err
			}
			if addr.Width() != ic.c.arch.Space.AddrBits {
				return nil, c.errf(s.line, "store address must be %d bits, got %d", ic.c.arch.Space.AddrBits, addr.Width())
			}
			cells, err := ic.constArg(s.args[1], matched)
			if err != nil {
				return nil, err
			}
			w := uint(cells) * ic.c.arch.Space.CellBits
			if cells == 0 || w > 64 {
				return nil, c.errf(s.line, "store of %d cells unsupported", cells)
			}
			val, err := ic.expr(s.args[2], w, matched)
			if err != nil {
				return nil, err
			}
			if val.Width() != w {
				return nil, c.errf(s.line, "store value must be %d bits, got %d", w, val.Width())
			}
			return &StoreStmt{Addr: addr, Cells: uint(cells), Val: val}, nil
		}
		return nil, c.errf(s.line, "unknown statement %s(...)", s.name)
	}
	return nil, fmt.Errorf("adl: unhandled statement %T", s)
}

func lvWidth(lv LValue) uint {
	switch lv := lv.(type) {
	case *RegLV:
		return lv.Reg.Width
	case *RegOpLV:
		return lv.Op.File.Width
	case *SubLV:
		return lv.Hi - lv.Lo + 1
	case *LocalLV:
		return lv.W
	}
	return 0
}

func (ic *insnChecker) lvalue(e astExpr, matched map[string]bool) (LValue, error) {
	c := ic.c
	switch e := e.(type) {
	case astName:
		if le, ok := ic.locals[e.name]; ok {
			return &LocalLV{Name: le.Name, Idx: le.Idx, W: le.W}, nil
		}
		op, err := ic.lookupOperand(e.name, matched, e.line)
		if err != nil {
			return nil, err
		}
		if op != nil {
			if op.Kind != FReg {
				return nil, c.errf(e.line, "operand %s is an immediate and cannot be assigned", e.name)
			}
			return &RegOpLV{Op: op}, nil
		}
		if r := c.arch.Reg(e.name); r != nil {
			return &RegLV{Reg: r}, nil
		}
		return nil, c.errf(e.line, "unknown assignment target %s", e.name)
	case astDotName:
		r := c.arch.Reg(e.base)
		if r == nil {
			return nil, c.errf(e.line, "unknown register %s", e.base)
		}
		sub, ok := r.Sub(e.sub)
		if !ok {
			return nil, c.errf(e.line, "register %s has no subfield %s", e.base, e.sub)
		}
		return &SubLV{Reg: r, Hi: sub.Hi, Lo: sub.Lo}, nil
	}
	return nil, c.errf(e.pos(), "expression is not assignable")
}

// constArg evaluates an argument that must be a plain integer literal.
func (ic *insnChecker) constArg(e astExpr, _ map[string]bool) (uint64, error) {
	if n, ok := e.(astNum); ok && n.width == 0 {
		return n.val, nil
	}
	return 0, ic.c.errf(e.pos(), "expected a plain integer literal")
}

// expr type-checks an expression. want is the expected bit width for
// unsized literals (0 = no expectation; a bare literal then yields
// errNeedWidth).
func (ic *insnChecker) expr(e astExpr, want uint, matched map[string]bool) (Expr, error) {
	c := ic.c
	switch e := e.(type) {
	case astNum:
		w := e.width
		if w == 0 {
			w = want
		}
		if w == 0 {
			return nil, fmt.Errorf("%w: %s", errNeedWidth, c.errf(e.line, "cannot infer literal width; write value:width"))
		}
		if w > 64 {
			return nil, c.errf(e.line, "literal width %d exceeds 64", w)
		}
		if w < 64 && e.val >= 1<<w {
			return nil, c.errf(e.line, "literal %#x does not fit %d bits", e.val, w)
		}
		return &ConstExpr{W: w, Val: e.val}, nil

	case astName:
		if le, ok := ic.locals[e.name]; ok {
			return le, nil
		}
		op, err := ic.lookupOperand(e.name, matched, e.line)
		if err != nil {
			return nil, err
		}
		if op != nil {
			if op.Kind == FReg {
				return &RegOpExpr{Op: op}, nil
			}
			return &ImmExpr{Op: op}, nil
		}
		if r := c.arch.Reg(e.name); r != nil {
			return &RegExpr{Reg: r}, nil
		}
		return nil, c.errf(e.line, "unknown name %s", e.name)

	case astDotName:
		r := c.arch.Reg(e.base)
		if r == nil {
			return nil, c.errf(e.line, "unknown register %s", e.base)
		}
		sub, ok := r.Sub(e.sub)
		if !ok {
			return nil, c.errf(e.line, "register %s has no subfield %s", e.base, e.sub)
		}
		return &SubExpr{Reg: r, Hi: sub.Hi, Lo: sub.Lo}, nil

	case astUnary:
		switch e.op {
		case "!":
			x, err := ic.expr(e.x, 0, matched)
			if err != nil {
				return nil, err
			}
			if x.Width() != 0 {
				return nil, c.errf(e.line, "! needs a boolean operand")
			}
			return &BoolExpr{Op: LNot, X: x}, nil
		default:
			x, err := ic.expr(e.x, want, matched)
			if err != nil {
				return nil, err
			}
			if x.Width() == 0 {
				return nil, c.errf(e.line, "%s needs a bit-vector operand", e.op)
			}
			op := UNot
			if e.op == "-" {
				op = UNeg
			}
			return &UnExpr{Op: op, X: x}, nil
		}

	case astBinary:
		return ic.binary(e, want, matched)

	case astTernary:
		cond, err := ic.expr(e.cond, 0, matched)
		if err != nil {
			return nil, err
		}
		if cond.Width() != 0 {
			return nil, c.errf(e.line, "?: condition must be boolean")
		}
		t, err := ic.expr(e.t, want, matched)
		if errors.Is(err, errNeedWidth) {
			f, ferr := ic.expr(e.f, want, matched)
			if ferr != nil {
				return nil, ferr
			}
			t, err = ic.expr(e.t, f.Width(), matched)
			if err != nil {
				return nil, err
			}
			return ic.mkTernary(e, cond, t, f)
		}
		if err != nil {
			return nil, err
		}
		f, err := ic.expr(e.f, t.Width(), matched)
		if err != nil {
			return nil, err
		}
		return ic.mkTernary(e, cond, t, f)

	case astCall:
		return ic.call(e, want, matched)
	}
	return nil, fmt.Errorf("adl: unhandled expression %T", e)
}

func (ic *insnChecker) mkTernary(e astTernary, cond, t, f Expr) (Expr, error) {
	if t.Width() == 0 || f.Width() == 0 || t.Width() != f.Width() {
		return nil, ic.c.errf(e.line, "?: arms must be bit-vectors of equal width (%d vs %d)", t.Width(), f.Width())
	}
	return &TernExpr{Cond: cond, T: t, F: f}, nil
}

var binOps = map[string]BinOp{
	"+": BAdd, "-": BSub, "*": BMul,
	"&": BAnd, "|": BOr, "^": BXor,
	"<<": BShl, ">>u": BLShr, ">>s": BAShr,
}

var cmpOps = map[string]CmpOp{
	"==": CEq, "!=": CNe,
	"<u": CULt, "<=u": CULe, "<s": CSLt, "<=s": CSLe,
}

// Swapped comparisons: a >u b is b <u a.
var cmpSwap = map[string]CmpOp{
	">u": CULt, ">=u": CULe, ">s": CSLt, ">=s": CSLe,
}

func (ic *insnChecker) binary(e astBinary, want uint, matched map[string]bool) (Expr, error) {
	c := ic.c
	if e.op == "&&" || e.op == "||" {
		x, err := ic.expr(e.x, 0, matched)
		if err != nil {
			return nil, err
		}
		y, err := ic.expr(e.y, 0, matched)
		if err != nil {
			return nil, err
		}
		if x.Width() != 0 || y.Width() != 0 {
			return nil, c.errf(e.line, "%s needs boolean operands", e.op)
		}
		op := LAnd
		if e.op == "||" {
			op = LOr
		}
		return &BoolExpr{Op: op, X: x, Y: y}, nil
	}

	_, isCmp := cmpOps[e.op]
	_, isSwap := cmpSwap[e.op]
	opWant := want
	if isCmp || isSwap {
		opWant = 0 // comparisons do not inherit the outer width expectation
	}
	x, err := ic.expr(e.x, opWant, matched)
	var y Expr
	if errors.Is(err, errNeedWidth) {
		y, err = ic.expr(e.y, opWant, matched)
		if err != nil {
			return nil, err
		}
		x, err = ic.expr(e.x, y.Width(), matched)
		if err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	} else {
		y, err = ic.expr(e.y, x.Width(), matched)
		if err != nil {
			return nil, err
		}
	}
	if x.Width() == 0 || y.Width() == 0 {
		return nil, c.errf(e.line, "%s needs bit-vector operands", e.op)
	}
	if x.Width() != y.Width() {
		return nil, c.errf(e.line, "%s width mismatch: %d vs %d (use sext/zext)", e.op, x.Width(), y.Width())
	}
	if op, ok := binOps[e.op]; ok {
		return &BinExpr{Op: op, X: x, Y: y}, nil
	}
	if op, ok := cmpOps[e.op]; ok {
		return &CmpExpr{Op: op, X: x, Y: y}, nil
	}
	if op, ok := cmpSwap[e.op]; ok {
		return &CmpExpr{Op: op, X: y, Y: x}, nil
	}
	return nil, c.errf(e.line, "unknown operator %s", e.op)
}

func (ic *insnChecker) call(e astCall, want uint, matched map[string]bool) (Expr, error) {
	c := ic.c
	argN := func(n int) error {
		if len(e.args) != n {
			return c.errf(e.line, "%s takes %d argument(s)", e.name, n)
		}
		return nil
	}
	switch e.name {
	case "sext", "zext":
		if err := argN(2); err != nil {
			return nil, err
		}
		w, err := ic.constArg(e.args[1], matched)
		if err != nil {
			return nil, err
		}
		x, err := ic.expr(e.args[0], 0, matched)
		if err != nil {
			return nil, err
		}
		if x.Width() == 0 {
			return nil, c.errf(e.line, "%s needs a bit-vector argument", e.name)
		}
		if uint(w) < x.Width() || w > 64 {
			return nil, c.errf(e.line, "%s to %d bits from %d is invalid", e.name, w, x.Width())
		}
		if uint(w) == x.Width() {
			return x, nil
		}
		return &ExtendExpr{X: x, W: uint(w), Signed: e.name == "sext"}, nil
	case "ext":
		if err := argN(3); err != nil {
			return nil, err
		}
		hi, err := ic.constArg(e.args[1], matched)
		if err != nil {
			return nil, err
		}
		lo, err := ic.constArg(e.args[2], matched)
		if err != nil {
			return nil, err
		}
		x, err := ic.expr(e.args[0], 0, matched)
		if err != nil {
			return nil, err
		}
		if x.Width() == 0 || hi < lo || uint(hi) >= x.Width() {
			return nil, c.errf(e.line, "ext(%d, %d) out of range for %d bits", hi, lo, x.Width())
		}
		return &ExtractExpr{X: x, Hi: uint(hi), Lo: uint(lo)}, nil
	case "cat":
		if len(e.args) < 2 {
			return nil, c.errf(e.line, "cat takes at least two arguments")
		}
		var acc Expr
		for _, a := range e.args {
			x, err := ic.expr(a, 0, matched)
			if err != nil {
				return nil, err
			}
			if x.Width() == 0 {
				return nil, c.errf(e.line, "cat needs bit-vector arguments")
			}
			if acc == nil {
				acc = x
			} else {
				if acc.Width()+x.Width() > 64 {
					return nil, c.errf(e.line, "cat result wider than 64 bits")
				}
				acc = &CatExpr{Hi: acc, Lo: x}
			}
		}
		return acc, nil
	case "load":
		if err := argN(2); err != nil {
			return nil, err
		}
		addr, err := ic.expr(e.args[0], c.arch.Bits, matched)
		if err != nil {
			return nil, err
		}
		if addr.Width() != c.arch.Space.AddrBits {
			return nil, c.errf(e.line, "load address must be %d bits, got %d", c.arch.Space.AddrBits, addr.Width())
		}
		cells, err := ic.constArg(e.args[1], matched)
		if err != nil {
			return nil, err
		}
		w := uint(cells) * c.arch.Space.CellBits
		if cells == 0 || w > 64 {
			return nil, c.errf(e.line, "load of %d cells unsupported", cells)
		}
		return &LoadExpr{Addr: addr, Cells: uint(cells), W: w}, nil
	case "udiv", "sdiv", "urem", "srem":
		if err := argN(2); err != nil {
			return nil, err
		}
		x, err := ic.expr(e.args[0], want, matched)
		if errors.Is(err, errNeedWidth) {
			y, yerr := ic.expr(e.args[1], 0, matched)
			if yerr != nil {
				return nil, yerr
			}
			x, err = ic.expr(e.args[0], y.Width(), matched)
			if err != nil {
				return nil, err
			}
			return ic.mkDiv(e, x, y)
		}
		if err != nil {
			return nil, err
		}
		y, err := ic.expr(e.args[1], x.Width(), matched)
		if err != nil {
			return nil, err
		}
		return ic.mkDiv(e, x, y)
	}
	return nil, c.errf(e.line, "unknown builtin %s", e.name)
}

func (ic *insnChecker) mkDiv(e astCall, x, y Expr) (Expr, error) {
	if x.Width() == 0 || x.Width() != y.Width() {
		return nil, ic.c.errf(e.line, "%s needs equal-width bit-vector operands", e.name)
	}
	op := map[string]BinOp{"udiv": BUDiv, "sdiv": BSDiv, "urem": BURem, "srem": BSRem}[e.name]
	return &BinExpr{Op: op, X: x, Y: y}, nil
}

// checkEncodings verifies that no two same-length instructions can match
// the same word.
func (c *checker) checkEncodings() error {
	ins := c.arch.Insns
	for i := 0; i < len(ins); i++ {
		if ins[i].Mask == 0 {
			return c.errf(ins[i].Line, "instruction %s has no encoding match bits", ins[i].Name)
		}
		for j := i + 1; j < len(ins); j++ {
			if ins[i].Format.Width != ins[j].Format.Width {
				continue // longest-first decoding resolves cross-length overlap
			}
			common := ins[i].Mask & ins[j].Mask
			if ins[i].Match&common == ins[j].Match&common {
				return c.errf(ins[j].Line, "instructions %s and %s have overlapping encodings",
					ins[i].Name, ins[j].Name)
			}
		}
	}
	return nil
}
