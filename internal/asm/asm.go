// Package asm implements the retargetable two-pass assembler. All
// architecture knowledge — mnemonics, operand shapes, encodings — comes
// from the ADL model: an instruction assembles by matching the token
// shape of its ADL assembly template and encoding operand values through
// the model's field mappings.
//
// Beyond instructions, the assembler supports labels, `.org`, `.word`,
// `.half`, `.byte`, `.space`, `.ascii`, `.asciz`, `.equ`, and `.entry`
// directives, and the address-split helper functions hi16/lo16 (upper and
// lower half-words) and hi20/lo12 (RISC-V-style %hi/%lo with rounding).
package asm

import (
	"fmt"
	"strings"

	"repro/internal/adl"
	"repro/internal/bv"
	"repro/internal/cover"
	"repro/internal/prog"
)

// Assembler assembles source text for one architecture.
type Assembler struct {
	arch *adl.Arch
	cov  *cover.ArchCov
}

// New returns an assembler for the architecture.
func New(a *adl.Arch) *Assembler { return &Assembler{arch: a} }

// SetCover attaches a coverage binding; every successfully encoded
// instruction is then recorded in the asm layer. Nil detaches.
func (a *Assembler) SetCover(v *cover.ArchCov) { a.cov = v }

// Error is a source-located assembler error.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// immRef is an unresolved immediate: an optional symbol plus a constant,
// optionally passed through an address-split function.
type immRef struct {
	sym string // "" for plain constants
	off int64
	fn  string // "", "hi16", "lo16", "hi20", "lo12"
}

// operandVal is a parsed operand before symbol resolution.
type operandVal struct {
	reg *adl.Reg // register operands
	imm immRef   // immediate operands
}

// item is one assembled unit recorded by pass 1.
type item struct {
	addr uint64
	line int

	ins *adl.Insn             // instruction items
	ops map[string]operandVal // instruction operand values

	data []byte   // raw data items (already final)
	refs []immRef // .word/.half refs resolved in pass 2
	refW uint     // byte width of each ref
}

// Assemble assembles src (file is used in error messages only).
func (as *Assembler) Assemble(file, src string) (*prog.Program, error) {
	a := &asmRun{
		as:   as,
		file: file,
		syms: map[string]uint64{},
	}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	return a.pass2()
}

type asmRun struct {
	as    *Assembler
	file  string
	syms  map[string]uint64
	items []item
	addr  uint64
	entry immRef
	line  int
}

func (a *asmRun) errf(format string, args ...any) error {
	return &Error{File: a.file, Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

func (a *asmRun) pass1(src string) error {
	for i, ln := range strings.Split(src, "\n") {
		a.line = i + 1
		if err := a.doLine(ln); err != nil {
			return err
		}
	}
	return nil
}

func (a *asmRun) doLine(ln string) error {
	toks, err := tokenize(ln)
	if err != nil {
		return a.errf("%s", err)
	}
	// Leading labels.
	for len(toks) >= 2 && toks[0].kind == tkIdent && toks[1].kind == tkPunct && toks[1].text == ":" {
		name := toks[0].text
		if _, dup := a.syms[name]; dup {
			return a.errf("symbol %s redefined", name)
		}
		a.syms[name] = a.addr
		toks = toks[2:]
	}
	if len(toks) == 0 {
		return nil
	}
	if toks[0].kind == tkIdent && strings.HasPrefix(toks[0].text, ".") {
		return a.directive(toks)
	}
	return a.instruction(toks)
}

func (a *asmRun) directive(toks []tok) error {
	name := toks[0].text
	args := toks[1:]
	switch name {
	case ".org":
		v, rest, err := a.parseImm(args)
		if err != nil || len(rest) != 0 {
			return a.errf(".org needs one constant address")
		}
		if v.sym != "" {
			return a.errf(".org address must be a constant")
		}
		a.addr = uint64(v.off)
		return nil
	case ".entry":
		v, rest, err := a.parseImm(args)
		if err != nil || len(rest) != 0 {
			return a.errf(".entry needs a symbol or address")
		}
		a.entry = v
		return nil
	case ".equ":
		if len(args) < 3 || args[0].kind != tkIdent || args[1].text != "," {
			return a.errf(".equ needs: .equ name, value")
		}
		v, rest, err := a.parseImm(args[2:])
		if err != nil || len(rest) != 0 || v.sym != "" {
			return a.errf(".equ value must be a constant")
		}
		if _, dup := a.syms[args[0].text]; dup {
			return a.errf("symbol %s redefined", args[0].text)
		}
		a.syms[args[0].text] = uint64(v.off)
		return nil
	case ".space":
		v, rest, err := a.parseImm(args)
		if err != nil || len(rest) != 0 || v.sym != "" || v.off < 0 {
			return a.errf(".space needs a non-negative constant")
		}
		a.items = append(a.items, item{addr: a.addr, line: a.line, data: make([]byte, v.off)})
		a.addr += uint64(v.off)
		return nil
	case ".ascii", ".asciz":
		if len(args) != 1 || args[0].kind != tkString {
			return a.errf("%s needs one string literal", name)
		}
		data := []byte(args[0].text)
		if name == ".asciz" {
			data = append(data, 0)
		}
		a.items = append(a.items, item{addr: a.addr, line: a.line, data: data})
		a.addr += uint64(len(data))
		return nil
	case ".byte", ".half", ".word":
		width := map[string]uint{".byte": 1, ".half": 2, ".word": 4}[name]
		if name == ".word" {
			width = a.as.arch.Bits / 8
		}
		var refs []immRef
		rest := args
		for {
			var v immRef
			var err error
			v, rest, err = a.parseImm(rest)
			if err != nil {
				return err
			}
			refs = append(refs, v)
			if len(rest) == 0 {
				break
			}
			if rest[0].text != "," {
				return a.errf("expected , between %s values", name)
			}
			rest = rest[1:]
		}
		a.items = append(a.items, item{addr: a.addr, line: a.line, refs: refs, refW: width})
		a.addr += uint64(len(refs)) * uint64(width)
		return nil
	}
	return a.errf("unknown directive %s", name)
}

func (a *asmRun) instruction(toks []tok) error {
	return a.instructionDepth(toks, 0)
}

func (a *asmRun) instructionDepth(toks []tok, depth int) error {
	if toks[0].kind != tkIdent {
		return a.errf("expected a mnemonic")
	}
	mnemonic := toks[0].text
	candidates := a.as.arch.InsnsByMnemonic(mnemonic)
	pseudos := a.as.arch.PseudosByMnemonic(mnemonic)
	if len(candidates) == 0 && len(pseudos) == 0 {
		return a.errf("unknown mnemonic %q", mnemonic)
	}
	var firstErr error
	for _, ins := range candidates {
		ops, err := a.matchTemplate(ins, toks[1:])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		a.items = append(a.items, item{addr: a.addr, line: a.line, ins: ins, ops: ops})
		a.addr += uint64(ins.Format.Bytes())
		return nil
	}
	// No real encoding matched: try pseudo instructions.
	if depth >= 4 {
		return a.errf("pseudo expansion of %q too deep", mnemonic)
	}
	for _, ps := range pseudos {
		params, ok := a.matchPseudo(ps, toks[1:])
		if !ok {
			continue
		}
		for _, line := range strings.Split(expandPseudo(ps.Expansion, params), ";") {
			sub, err := tokenize(line)
			if err != nil {
				return a.errf("pseudo %s: %s", mnemonic, err)
			}
			if len(sub) == 0 {
				continue
			}
			if err := a.instructionDepth(sub, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return firstErr
}

// matchPseudo matches a pseudo template, capturing the raw text of each
// parameter. Parameters capture greedily up to the next literal token of
// the template (or the end of the line).
func (a *asmRun) matchPseudo(ps *adl.Pseudo, toks []tok) (map[string]string, bool) {
	params := map[string]string{}
	rest := toks
	for ti, pt := range ps.Toks {
		if pt.Lit != "" {
			for _, ch := range pt.Lit {
				if len(rest) == 0 || rest[0].kind != tkPunct || rest[0].text != string(ch) {
					return nil, false
				}
				rest = rest[1:]
			}
			continue
		}
		// Find the delimiter: the first character of the next literal.
		var delim string
		for _, nt := range ps.Toks[ti+1:] {
			if nt.Lit != "" {
				delim = nt.Lit[:1]
				break
			}
		}
		var captured []string
		for len(rest) > 0 {
			if delim != "" && rest[0].kind == tkPunct && rest[0].text == delim {
				break
			}
			captured = append(captured, rest[0].text)
			rest = rest[1:]
		}
		if len(captured) == 0 {
			return nil, false
		}
		params[pt.Param] = strings.Join(captured, " ")
	}
	if len(rest) != 0 {
		return nil, false
	}
	return params, true
}

// expandPseudo substitutes %name parameter references in the expansion.
func expandPseudo(expansion string, params map[string]string) string {
	var sb strings.Builder
	for i := 0; i < len(expansion); i++ {
		if expansion[i] != '%' {
			sb.WriteByte(expansion[i])
			continue
		}
		j := i + 1
		for j < len(expansion) && isWordPart(expansion[j]) {
			j++
		}
		sb.WriteString(params[expansion[i+1:j]])
		i = j - 1
	}
	return sb.String()
}

// matchTemplate parses the operand tokens of one candidate instruction.
func (a *asmRun) matchTemplate(ins *adl.Insn, toks []tok) (map[string]operandVal, error) {
	ops := make(map[string]operandVal)
	rest := toks
	for _, at := range ins.AsmToks {
		if at.Operand == nil {
			// Literal: match it character by character against punctuation
			// tokens (a literal like "(" is a single token; "," likewise).
			for _, ch := range at.Lit {
				if len(rest) == 0 || rest[0].kind != tkPunct || rest[0].text != string(ch) {
					return nil, a.errf("%s: expected %q", ins.Mnemonic, at.Lit)
				}
				rest = rest[1:]
			}
			continue
		}
		op := at.Operand
		if op.Kind == adl.FReg {
			if len(rest) == 0 || rest[0].kind != tkIdent {
				return nil, a.errf("%s: expected a register for %%%s", ins.Mnemonic, op.Name)
			}
			r := a.as.arch.Reg(rest[0].text)
			if r == nil || r.File != op.File {
				return nil, a.errf("%s: %q is not a register of file %s", ins.Mnemonic, rest[0].text, op.File.Name)
			}
			ops[op.Name] = operandVal{reg: r}
			rest = rest[1:]
			continue
		}
		v, rem, err := a.parseImm(rest)
		if err != nil {
			return nil, err
		}
		ops[op.Name] = operandVal{imm: v}
		rest = rem
	}
	if len(rest) != 0 {
		return nil, a.errf("%s: trailing input %q", ins.Mnemonic, rest[0].text)
	}
	return ops, nil
}

// parseImm parses sym, number, -number, sym+number, sym-number, or
// fn(sym±number) where fn is an address-split helper.
func (a *asmRun) parseImm(toks []tok) (immRef, []tok, error) {
	var ref immRef
	if len(toks) == 0 {
		return ref, nil, a.errf("expected an immediate")
	}
	// Address-split helper call.
	if toks[0].kind == tkIdent && len(toks) >= 2 && toks[1].text == "(" {
		switch toks[0].text {
		case "hi16", "lo16", "hi20", "lo12":
			inner, rest, err := a.parseImm(toks[2:])
			if err != nil {
				return ref, nil, err
			}
			if len(rest) == 0 || rest[0].text != ")" {
				return ref, nil, a.errf("missing ) after %s(", toks[0].text)
			}
			if inner.fn != "" {
				return ref, nil, a.errf("nested address-split helpers")
			}
			inner.fn = toks[0].text
			return inner, rest[1:], nil
		}
	}
	neg := false
	if toks[0].kind == tkPunct && (toks[0].text == "-" || toks[0].text == "+") {
		neg = toks[0].text == "-"
		toks = toks[1:]
		if len(toks) == 0 {
			return ref, nil, a.errf("dangling sign")
		}
	}
	switch toks[0].kind {
	case tkNumber:
		ref.off = int64(toks[0].num)
	case tkIdent:
		if neg {
			return ref, nil, a.errf("cannot negate a symbol")
		}
		ref.sym = toks[0].text
	default:
		return ref, nil, a.errf("expected a number or symbol, found %q", toks[0].text)
	}
	if neg {
		ref.off = -ref.off
	}
	toks = toks[1:]
	// Optional ±constant tail after a symbol.
	if ref.sym != "" && len(toks) >= 2 && toks[0].kind == tkPunct &&
		(toks[0].text == "+" || toks[0].text == "-") && toks[1].kind == tkNumber {
		off := int64(toks[1].num)
		if toks[0].text == "-" {
			off = -off
		}
		ref.off += off
		toks = toks[2:]
	}
	return ref, toks, nil
}

// resolve computes the final value of an immRef.
func (a *asmRun) resolve(ref immRef, line int) (uint64, error) {
	v := uint64(ref.off)
	if ref.sym != "" {
		sv, ok := a.syms[ref.sym]
		if !ok {
			return 0, &Error{File: a.file, Line: line, Msg: fmt.Sprintf("undefined symbol %q", ref.sym)}
		}
		v = sv + uint64(ref.off)
	}
	switch ref.fn {
	case "hi16":
		v = v >> 16 & 0xffff
	case "lo16":
		v &= 0xffff
	case "hi20":
		v = (v + 0x800) >> 12 & 0xfffff
	case "lo12":
		v = bv.SExt(v&0xfff, 12) // low 12 bits, sign-adjusted for hi20 pairing
	}
	return v, nil
}

// SplitHelpers names the split helpers that build an address from an
// upper immediate above k low bits and a low part: hi16/lo16 when the
// low part is ORed in (zero-extended), hi20/lo12 when it is added
// (sign-extended, so the upper part rounds); "" when none splits so.
func SplitHelpers(k uint, or bool) (hi, lo string) {
	switch {
	case or && k == 16:
		return "hi16", "lo16"
	case !or && k == 12:
		return "hi20", "lo12"
	}
	return "", ""
}

func (a *asmRun) pass2() (*prog.Program, error) {
	p := &prog.Program{Arch: a.as.arch.Name, Symbols: a.syms}
	var cur *prog.Segment
	emit := func(addr uint64, data []byte) {
		if cur == nil || cur.Addr+uint64(len(cur.Data)) != addr {
			p.Segments = append(p.Segments, prog.Segment{Addr: addr})
			cur = &p.Segments[len(p.Segments)-1]
		}
		cur.Data = append(cur.Data, data...)
	}
	for _, it := range a.items {
		switch {
		case it.ins != nil:
			data, err := a.encode(it)
			if err != nil {
				return nil, err
			}
			emit(it.addr, data)
		case it.refs != nil:
			buf := make([]byte, 0, len(it.refs)*int(it.refW))
			for _, ref := range it.refs {
				v, err := a.resolve(ref, it.line)
				if err != nil {
					return nil, err
				}
				buf = append(buf, a.bytesOf(v, it.refW)...)
			}
			emit(it.addr, buf)
		default:
			emit(it.addr, it.data)
		}
	}
	// Entry point: .entry if given, else _start, else the first byte.
	switch {
	case a.entry.sym != "" || a.entry.off != 0:
		v, err := a.resolve(a.entry, 0)
		if err != nil {
			return nil, err
		}
		p.Entry = v
	default:
		if v, ok := a.syms["_start"]; ok {
			p.Entry = v
		} else if lo, _, ok := p.Bounds(); ok {
			p.Entry = lo
		}
	}
	return p, nil
}

func (a *asmRun) encode(it item) ([]byte, error) {
	word := it.ins.Match
	for _, op := range it.ins.Operands {
		v, seen := it.ops[op.Name]
		if !seen {
			// Operand never surfaced in the template: encode as zero.
			continue
		}
		var val uint64
		if op.Kind == adl.FReg {
			val = v.reg.Index
		} else {
			rv, err := a.resolve(v.imm, it.line)
			if err != nil {
				return nil, err
			}
			if op.Rel() {
				rv -= it.addr
			}
			val = rv
		}
		w, err := adl.EncodeOperand(op, val, word)
		if err != nil {
			return nil, &Error{File: a.file, Line: it.line, Msg: err.Error()}
		}
		word = w
	}
	a.as.cov.Hit(cover.LAsm, it.ins)
	return a.bytesOf(word, uint(it.ins.Format.Bytes())), nil
}

func (a *asmRun) bytesOf(v uint64, n uint) []byte {
	out := make([]byte, n)
	if a.as.arch.Endian == adl.Little {
		for i := range out {
			out[i] = byte(v >> (8 * uint(i)))
		}
	} else {
		for i := range out {
			out[i] = byte(v >> (8 * (n - 1 - uint(i))))
		}
	}
	return out
}

// ---- line tokenizer ----

type tokKind int

const (
	tkIdent tokKind = iota
	tkNumber
	tkString
	tkPunct
)

type tok struct {
	kind tokKind
	text string
	num  uint64
}

func tokenize(ln string) ([]tok, error) {
	var out []tok
	i := 0
	for i < len(ln) {
		c := ln[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == ';' || c == '#' || (c == '/' && i+1 < len(ln) && ln[i+1] == '/'):
			return out, nil // comment to end of line
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(ln) && ln[j] != '"' {
				if ln[j] == '\\' && j+1 < len(ln) {
					j++
					switch ln[j] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case '0':
						sb.WriteByte(0)
					default:
						sb.WriteByte(ln[j])
					}
				} else {
					sb.WriteByte(ln[j])
				}
				j++
			}
			if j >= len(ln) {
				return nil, fmt.Errorf("unterminated string")
			}
			out = append(out, tok{kind: tkString, text: sb.String()})
			i = j + 1
		case isWordStart(c):
			j := i
			for j < len(ln) && isWordPart(ln[j]) {
				j++
			}
			out = append(out, tok{kind: tkIdent, text: ln[i:j]})
			i = j
		case c >= '0' && c <= '9':
			j := i
			base := 10
			if c == '0' && j+1 < len(ln) && (ln[j+1] == 'x' || ln[j+1] == 'X') {
				base = 16
				j += 2
			} else if c == '0' && j+1 < len(ln) && (ln[j+1] == 'b' || ln[j+1] == 'B') {
				base = 2
				j += 2
			}
			var v uint64
			digits := 0
			for j < len(ln) {
				d := digitVal(ln[j])
				if d < 0 || d >= base {
					break
				}
				v = v*uint64(base) + uint64(d)
				digits++
				j++
			}
			if digits == 0 {
				return nil, fmt.Errorf("malformed number at %q", ln[i:])
			}
			out = append(out, tok{kind: tkNumber, num: v, text: ln[i:j]})
			i = j
		case strings.ContainsRune(",()+-:", rune(c)):
			out = append(out, tok{kind: tkPunct, text: string(c)})
			i++
		default:
			return nil, fmt.Errorf("unexpected character %q", c)
		}
	}
	return out, nil
}

func isWordStart(c byte) bool {
	return c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isWordPart(c byte) bool {
	return isWordStart(c) && c != '.' || c >= '0' && c <= '9' || c == '.'
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}
