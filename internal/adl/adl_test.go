package adl

import (
	"strings"
	"testing"
)

// miniSrc is a small but complete architecture exercising most language
// features: register files, aliases, subfields, multiple formats,
// composed operands, and all statement forms.
const miniSrc = `
arch mini
bits 16
endian big

reg g0 .. g3 : 16
reg pc : 16 [pc]
reg st : 4 { z = 0, n = 1, hi = 3 .. 2 }
alias acc = g0

space mem : addr 16 cell 8

format A : 16 { op:4, rd:2 reg(g), ra:2 reg(g), imm:8 simm }
format B : 16 { op:4, hiimm:4, rd:2 reg(g), pad:2, loimm:4 }

insn addi : A(op = 1) "addi %rd, %ra, %imm" {
	rd = ra + sext(imm, 16);
	st.z = rd == 0:16 ? 1:1 : 0:1;
}

insn ldw : A(op = 2) "ldw %rd, %imm(%ra)" {
	rd = load(ra + sext(imm, 16), 2);
}

insn stw : A(op = 3) "stw %rd, %imm(%ra)" {
	store(ra + sext(imm, 16), 2, rd);
}

insn brz : A(op = 4, rd = 0, ra = 0) "brz %imm"
	operand imm [rel]
{
	if (st.z == 1:1) { pc = pc + sext(imm, 16); }
}

insn weird : B(op = 5) "weird %rd, %val"
	operand val = hiimm ## loimm ## 0:1 [signed]
{
	local tmp : 16 = sext(val, 16);
	rd = tmp * 3:16;
	if (tmp <s 0:16) { trap(9:16); } else { halt(); }
}
`

func loadMini(t *testing.T) *Arch {
	t.Helper()
	a, err := Load("mini.adl", miniSrc)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMiniModel(t *testing.T) {
	a := loadMini(t)
	if a.Bits != 16 || a.Endian != Big {
		t.Errorf("bits/endian wrong: %d %v", a.Bits, a.Endian)
	}
	if len(a.RegFiles) != 1 || a.RegFiles[0].Name != "g" || len(a.RegFiles[0].Regs) != 4 {
		t.Fatalf("register file wrong: %+v", a.RegFiles)
	}
	if a.PC == nil || a.PC.Name != "pc" {
		t.Error("pc not resolved")
	}
	if a.Reg("acc") != a.Reg("g0") {
		t.Error("alias acc != g0")
	}
	st := a.Reg("st")
	if st == nil {
		t.Fatal("st missing")
	}
	if sub, ok := st.Sub("hi"); !ok || sub.Hi != 3 || sub.Lo != 2 {
		t.Errorf("subfield hi wrong: %+v", sub)
	}
	if got := a.Space.AddrBits; got != 16 {
		t.Errorf("space addr bits = %d", got)
	}
}

func TestFieldLayoutMSBFirst(t *testing.T) {
	a := loadMini(t)
	var f *Format
	for _, ff := range a.Formats {
		if ff.Name == "A" {
			f = ff
		}
	}
	// A : 16 { op:4, rd:2, ra:2, imm:8 } => op at [15:12], rd [11:10],
	// ra [9:8], imm [7:0].
	cases := map[string][2]uint{"op": {15, 12}, "rd": {11, 10}, "ra": {9, 8}, "imm": {7, 0}}
	for name, hl := range cases {
		fd := f.Field(name)
		if fd == nil || fd.Hi != hl[0] || fd.Lo != hl[1] {
			t.Errorf("field %s = [%d:%d], want [%d:%d]", name, fd.Hi, fd.Lo, hl[0], hl[1])
		}
	}
}

func TestMaskMatch(t *testing.T) {
	a := loadMini(t)
	var brz *Insn
	for _, i := range a.Insns {
		if i.Name == "brz" {
			brz = i
		}
	}
	// brz matches op=4, rd=0, ra=0: mask covers bits [15:12]+[11:10]+[9:8].
	wantMask := uint64(0xf<<12 | 0x3<<10 | 0x3<<8)
	if brz.Mask != wantMask {
		t.Errorf("mask = %#x, want %#x", brz.Mask, wantMask)
	}
	if brz.Match != uint64(4)<<12 {
		t.Errorf("match = %#x", brz.Match)
	}
}

func TestComposedOperand(t *testing.T) {
	a := loadMini(t)
	var weird *Insn
	for _, i := range a.Insns {
		if i.Name == "weird" {
			weird = i
		}
	}
	val := weird.Operand("val")
	if val == nil {
		t.Fatal("operand val missing")
	}
	if val.Bits() != 9 {
		t.Errorf("val width = %d, want 9 (4+4+1)", val.Bits())
	}
	if !val.Signed() {
		t.Error("val should print signed")
	}
	// Extraction: word with hiimm=0xA, loimm=0x5 => val = 0b1010_0101_0.
	// B : 16 {op:4, hiimm:4, rd:2, pad:2, loimm:4}: hiimm [11:8], loimm [3:0].
	word := uint64(0xA)<<8 | uint64(0x5)
	if got := ExtractOperand(val, word); got != 0b101001010 {
		t.Errorf("ExtractOperand = %#b, want 101001010", got)
	}
	// Encoding round-trips: the raw pattern 0b101001010 is the 9-bit
	// signed value -182, passed sign-extended.
	enc, err := EncodeOperand(val, encSigned(-182), 0)
	if err != nil {
		t.Fatal(err)
	}
	if enc != word {
		t.Errorf("EncodeOperand = %#x, want %#x", enc, word)
	}
	// A value with the constant bit set cannot encode.
	if _, err := EncodeOperand(val, 0b1, 0); err == nil {
		t.Error("encoding value with low bit set should fail")
	}
	// Out-of-range values are rejected.
	if _, err := EncodeOperand(val, 600, 0); err == nil {
		t.Error("encoding 600 into a 9-bit operand should fail")
	}
}

func TestTemplateTokens(t *testing.T) {
	a := loadMini(t)
	var ldw *Insn
	for _, i := range a.Insns {
		if i.Name == "ldw" {
			ldw = i
		}
	}
	if ldw.Mnemonic != "ldw" {
		t.Errorf("mnemonic %q", ldw.Mnemonic)
	}
	// "%rd, %imm(%ra)" => op(rd) lit(,) op(imm) lit(() op(ra) lit()).
	var shape []string
	for _, tok := range ldw.AsmToks {
		if tok.Operand != nil {
			shape = append(shape, "%"+tok.Operand.Name)
		} else {
			shape = append(shape, tok.Lit)
		}
	}
	want := []string{"%rd", ",", "%imm", "(", "%ra", ")"}
	if strings.Join(shape, " ") != strings.Join(want, " ") {
		t.Errorf("template tokens %v, want %v", shape, want)
	}
}

func TestSemanticsShape(t *testing.T) {
	a := loadMini(t)
	var addi *Insn
	for _, i := range a.Insns {
		if i.Name == "addi" {
			addi = i
		}
	}
	if len(addi.Sem) != 2 {
		t.Fatalf("addi has %d statements, want 2", len(addi.Sem))
	}
	as, ok := addi.Sem[0].(*AssignStmt)
	if !ok {
		t.Fatalf("first statement is %T", addi.Sem[0])
	}
	if _, ok := as.LHS.(*RegOpLV); !ok {
		t.Errorf("LHS is %T, want RegOpLV", as.LHS)
	}
	if as.RHS.Width() != 16 {
		t.Errorf("RHS width %d", as.RHS.Width())
	}
	// Second statement assigns the z subfield (1 bit wide).
	as2 := addi.Sem[1].(*AssignStmt)
	sub, ok := as2.LHS.(*SubLV)
	if !ok || sub.Hi != 0 || sub.Lo != 0 {
		t.Errorf("z assignment resolved to %#v", as2.LHS)
	}
}

func TestNumLocals(t *testing.T) {
	a := loadMini(t)
	for _, i := range a.Insns {
		n := NumLocals(i.Sem)
		if i.Name == "weird" && n != 1 {
			t.Errorf("weird locals = %d, want 1", n)
		}
		if i.Name == "addi" && n != 0 {
			t.Errorf("addi locals = %d, want 0", n)
		}
	}
}

// ---- error cases ----

func expectErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := Load("err.adl", src)
	if err == nil {
		t.Fatalf("expected error containing %q, got success", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

const header = `
arch e
bits 16
reg g0 .. g3 : 16
reg pc : 16 [pc]
space mem : addr 16 cell 8
format A : 16 { op:4, rd:2 reg(g), ra:2 reg(g), imm:8 simm }
`

func TestErrNoPC(t *testing.T) {
	expectErr(t, `
arch e
bits 16
reg g0 .. g3 : 16
format A : 16 { op:8, imm:8 simm }
insn nop : A(op = 0) "nop" { }
`, "no [pc] register")
}

func TestErrWidthMismatch(t *testing.T) {
	expectErr(t, header+`
insn bad : A(op = 1) "bad %rd, %imm" { rd = imm; }
`, "width mismatch")
}

func TestErrFieldOverflow(t *testing.T) {
	expectErr(t, `
arch e
bits 16
reg pc : 16 [pc]
format A : 16 { op:9, imm:8 simm }
insn nop : A(op = 0) "nop" { }
`, "does not fit")
}

func TestErrFormatUnderfilled(t *testing.T) {
	expectErr(t, `
arch e
bits 16
reg pc : 16 [pc]
format A : 16 { op:4, imm:8 simm }
insn nop : A(op = 0) "nop" { }
`, "fields cover")
}

func TestErrAmbiguousEncoding(t *testing.T) {
	expectErr(t, header+`
insn a : A(op = 1) "a %rd" { rd = rd; }
insn b : A(op = 1, rd = 0) "b" { pc = pc; }
`, "overlapping encodings")
}

func TestErrUnknownName(t *testing.T) {
	expectErr(t, header+`
insn a : A(op = 1) "a %rd" { rd = bogus; }
`, "unknown name")
}

func TestErrAssignImmediate(t *testing.T) {
	expectErr(t, header+`
insn a : A(op = 1) "a %imm" { imm = 3:8; }
`, "cannot be assigned")
}

func TestErrBooleanAssign(t *testing.T) {
	expectErr(t, header+`
insn a : A(op = 1) "a %rd, %ra" { rd = rd == ra; }
`, "cannot assign a boolean")
}

func TestErrLiteralTooWide(t *testing.T) {
	expectErr(t, header+`
insn a : A(op = 1) "a %rd" { rd = 0x12345:16; }
`, "does not fit")
}

func TestErrBareComparisonSuffix(t *testing.T) {
	expectErr(t, header+`
insn a : A(op = 1) "a %rd, %ra" { if (rd < ra) { halt(); } }
`, "signedness suffix")
}

func TestErrRegFileTooSmall(t *testing.T) {
	expectErr(t, `
arch e
bits 16
reg g0 .. g1 : 16
reg pc : 16 [pc]
format A : 16 { op:4, rd:4 reg(g), imm:8 simm }
insn nop : A(op = 0) "nop" { }
`, "can index")
}

func TestErrMatchTooWide(t *testing.T) {
	expectErr(t, header+`
insn a : A(op = 999) "a" { halt(); }
`, "does not fit field")
}

func TestErrDuplicateInsn(t *testing.T) {
	expectErr(t, header+`
insn a : A(op = 1) "a" { halt(); }
insn a : A(op = 2) "a" { halt(); }
`, "redeclared")
}

func TestLexerErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`arch e @`, "unexpected character"},
		{`arch e bits 0x`, "malformed numeric"},
		{"arch e insn a : A() \"unterminated", "unterminated string"},
	}
	for _, c := range cases {
		if _, err := Load("lex.adl", c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Load(%q) error %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestErrorHasPosition(t *testing.T) {
	_, err := Load("pos.adl", header+`
insn a : A(op = 1) "a %rd" { rd = bogus; }
`)
	if err == nil || !strings.Contains(err.Error(), "pos.adl:") {
		t.Errorf("error %v lacks file position", err)
	}
}

// encSigned converts a signed value to the uint64 two's-complement form
// EncodeOperand expects.
func encSigned(v int64) uint64 { return uint64(v) }

func TestPseudoDeclarations(t *testing.T) {
	a, err := Load("p.adl", header+`
insn addi2 : A(op = 1) "addi2 %rd, %ra, %imm" { rd = ra + sext(imm, 16); }
pseudo nop = "addi2 g0, g0, 0"
pseudo inc : "inc %rd" = "addi2 %rd, %rd, 1"
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pseudos) != 2 {
		t.Fatalf("pseudos = %d", len(a.Pseudos))
	}
	inc := a.PseudosByMnemonic("inc")
	if len(inc) != 1 || len(inc[0].Toks) != 1 || inc[0].Toks[0].Param != "rd" {
		t.Errorf("inc pseudo shape: %+v", inc)
	}
	if nop := a.PseudosByMnemonic("nop"); len(nop) != 1 || len(nop[0].Toks) != 0 {
		t.Errorf("nop pseudo shape: %+v", nop)
	}
}

func TestErrPseudoUnknownParam(t *testing.T) {
	expectErr(t, header+`
insn a : A(op = 1) "a %rd" { rd = rd; }
pseudo bad : "bad %x" = "a %y"
`, "unknown parameter")
}

func TestErrPseudoMnemonicMismatch(t *testing.T) {
	expectErr(t, header+`
insn a : A(op = 1) "a %rd" { rd = rd; }
pseudo bad : "other %x" = "a %x"
`, "must match")
}

func TestErrHardwireUnknown(t *testing.T) {
	expectErr(t, `
arch e
bits 16
reg pc : 16 [pc]
hardwire nope
format A : 16 { op:8, imm:8 simm }
insn nop : A(op = 0) "nop" { }
`, "not a register")
}

func TestErrHardwirePC(t *testing.T) {
	expectErr(t, `
arch e
bits 16
reg pc : 16 [pc]
hardwire pc
format A : 16 { op:8, imm:8 simm }
insn nop : A(op = 0) "nop" { }
`, "cannot be hardwired")
}

func TestHardwiredZeroInModel(t *testing.T) {
	a, err := Load("z.adl", `
arch e
bits 16
reg g0 .. g3 : 16
reg pc : 16 [pc]
hardwire g0
format A : 16 { op:4, rd:2 reg(g), ra:2 reg(g), imm:8 simm }
insn mv : A(op = 1) "mv %rd, %ra" { rd = ra; }
`)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Reg("g0").Zero {
		t.Error("g0 not marked zero")
	}
	if a.Reg("g1").Zero {
		t.Error("g1 wrongly marked zero")
	}
}

func TestStackTop(t *testing.T) {
	a, err := Load("s.adl", header+`
stack 0x7ff0
insn a : A(op = 1) "a %rd" { rd = rd; }
`)
	if err != nil {
		t.Fatal(err)
	}
	if a.StackTop != 0x7ff0 {
		t.Errorf("StackTop = %#x, want 0x7ff0", a.StackTop)
	}
}

func TestErrStackTopOutOfRange(t *testing.T) {
	expectErr(t, header+`
stack 0x10000
insn a : A(op = 1) "a %rd" { rd = rd; }
`, "outside the 16-bit address space")
	// The check sees the final width even when stack precedes bits.
	expectErr(t, "arch e\nstack 0x10000\n"+strings.TrimPrefix(header, "\narch e\n")+`
insn a : A(op = 1) "a %rd" { rd = rd; }
`, "outside the 16-bit address space")
}

func TestErrRegisterFileTooLarge(t *testing.T) {
	expectErr(t, `
arch e
bits 16
reg r0 .. r99999999 : 16
`, "more than 1024 registers")
}
