package adl

// Raw (unchecked) syntax tree produced by the parser. The checker in
// check.go resolves it into the Arch model and the typed semantics IR.

type astFile struct {
	name  string // architecture name
	decls []astDecl
}

type astDecl interface{ declNode() }

type astBits struct {
	n    uint
	line int
}

type astEndian struct {
	little bool
	line   int
}

// astReg declares either a single register (lo == hi == name) or a
// register file r0..r15.
type astReg struct {
	loName string
	hiName string // empty for a single register
	width  uint
	attrs  []string
	subs   []astSubField
	line   int
}

type astSubField struct {
	name string
	hi   uint
	lo   uint
	line int
}

type astAlias struct {
	name   string
	target string
	line   int
}

// astStack declares the initial stack top of generated code.
type astStack struct {
	top  uint64
	line int
}

// astHardwire marks a register as reading zero and discarding writes.
type astHardwire struct {
	name string
	line int
}

// astPseudo declares an assembler-level pseudo instruction:
//
//	pseudo nop = "addi r0, r0, 0"
//	pseudo inc : "inc %rd" = "addi %rd, %rd, 1"
type astPseudo struct {
	name      string
	template  string // empty = the bare mnemonic
	expansion string
	line      int
}

type astSpace struct {
	name     string
	addrBits uint
	cellBits uint
	line     int
}

type astFormat struct {
	name   string
	width  uint
	fields []astField
	line   int
}

type astField struct {
	name string
	bits uint
	kind string // "", "reg", "simm", "uimm"
	file string // register file for kind "reg"
	line int
}

type astInsn struct {
	name     string
	format   string
	matches  []astMatch
	template string
	operands []astOperand
	body     []astStmt
	line     int
}

type astMatch struct {
	field string
	value uint64
	line  int
}

// astOperand declares a derived or attributed operand:
//
//	operand off = imm12 ## imm11 ## imm10_5 ## imm4_1 ## 0:1 [rel]
//	operand imm [rel]
type astOperand struct {
	name  string
	items []astCatItem // empty when the operand is the field itself
	attrs []string
	line  int
}

type astCatItem struct {
	field string // field name, or "" for a constant item
	val   uint64
	width uint
	line  int
}

func (astBits) declNode()     {}
func (astEndian) declNode()   {}
func (astReg) declNode()      {}
func (astAlias) declNode()    {}
func (astHardwire) declNode() {}
func (astStack) declNode()    {}
func (astPseudo) declNode()   {}
func (astSpace) declNode()    {}
func (astFormat) declNode()   {}
func (astInsn) declNode()     {}

// ---- statements ----

type astStmt interface{ stmtNode() }

type astAssign struct {
	lhs  astExpr // must resolve to an lvalue
	rhs  astExpr
	line int
}

type astIf struct {
	cond astExpr
	then []astStmt
	els  []astStmt // nil if absent
	line int
}

type astLocal struct {
	name  string
	width uint // 0 = inferred
	init  astExpr
	line  int
}

// astCallStmt covers store(...), trap(...), halt(), error("...").
type astCallStmt struct {
	name string
	args []astExpr
	msg  string // for error()
	line int
}

func (astAssign) stmtNode()   {}
func (astIf) stmtNode()       {}
func (astLocal) stmtNode()    {}
func (astCallStmt) stmtNode() {}

// ---- expressions ----

type astExpr interface {
	exprNode()
	pos() int
}

type astNum struct {
	val   uint64
	width uint // 0 = unsized (inferred from context)
	line  int
}

type astName struct {
	name string
	line int
}

// astDotName is reg.subfield access.
type astDotName struct {
	base string
	sub  string
	line int
}

type astUnary struct {
	op   string // "~", "-", "!"
	x    astExpr
	line int
}

type astBinary struct {
	op string // "+", "-", "*", "&", "|", "^", "<<", ">>u", ">>s",
	// "==", "!=", "<u", "<s", "<=u", "<=s", ">u", ">s", ">=u", ">=s",
	// "&&", "||"
	x, y astExpr
	line int
}

type astTernary struct {
	cond, t, f astExpr
	line       int
}

type astCall struct {
	name string
	args []astExpr
	line int
}

func (e astNum) pos() int     { return e.line }
func (e astName) pos() int    { return e.line }
func (e astDotName) pos() int { return e.line }
func (e astUnary) pos() int   { return e.line }
func (e astBinary) pos() int  { return e.line }
func (e astTernary) pos() int { return e.line }
func (e astCall) pos() int    { return e.line }

func (astNum) exprNode()     {}
func (astName) exprNode()    {}
func (astDotName) exprNode() {}
func (astUnary) exprNode()   {}
func (astBinary) exprNode()  {}
func (astTernary) exprNode() {}
func (astCall) exprNode()    {}
