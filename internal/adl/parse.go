package adl

import "fmt"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	file string
	toks []token
	pos  int
}

func parse(file, src string) (*astFile, error) {
	toks, err := lex(file, src)
	if err != nil {
		return nil, err
	}
	p := &parser{file: file, toks: toks}
	return p.parseFile()
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(t token, format string, args ...any) error {
	return &Error{File: p.file, Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, p.errf(t, "expected %v, found %v %s", k, t.kind, quoted(t))
	}
	p.pos++
	return t, nil
}

func quoted(t token) string {
	if t.text != "" {
		return fmt.Sprintf("%q", t.text)
	}
	return ""
}

// keyword consumes an identifier with the given text.
func (p *parser) keyword(word string) (token, error) {
	t := p.cur()
	if t.kind != tIdent || t.text != word {
		return t, p.errf(t, "expected %q", word)
	}
	p.pos++
	return t, nil
}

func (p *parser) atKeyword(word string) bool {
	t := p.cur()
	return t.kind == tIdent && t.text == word
}

func (p *parser) parseFile() (*astFile, error) {
	if _, err := p.keyword("arch"); err != nil {
		return nil, err
	}
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	f := &astFile{name: name.text}
	for p.cur().kind != tEOF {
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		f.decls = append(f.decls, d)
	}
	return f, nil
}

func (p *parser) parseDecl() (astDecl, error) {
	t := p.cur()
	if t.kind != tIdent {
		return nil, p.errf(t, "expected a declaration keyword")
	}
	switch t.text {
	case "bits":
		p.pos++
		n, err := p.expect(tNumber)
		if err != nil {
			return nil, err
		}
		return astBits{n: uint(n.num), line: t.line}, nil
	case "endian":
		p.pos++
		w, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		switch w.text {
		case "little":
			return astEndian{little: true, line: t.line}, nil
		case "big":
			return astEndian{little: false, line: t.line}, nil
		}
		return nil, p.errf(w, "endian must be little or big")
	case "reg":
		return p.parseReg()
	case "alias":
		p.pos++
		name, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tAssign); err != nil {
			return nil, err
		}
		tgt, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		return astAlias{name: name.text, target: tgt.text, line: t.line}, nil
	case "pseudo":
		return p.parsePseudo()
	case "stack":
		p.pos++
		n, err := p.expect(tNumber)
		if err != nil {
			return nil, err
		}
		return astStack{top: n.num, line: t.line}, nil
	case "hardwire":
		p.pos++
		name, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		return astHardwire{name: name.text, line: t.line}, nil
	case "space":
		return p.parseSpace()
	case "format":
		return p.parseFormat()
	case "insn":
		return p.parseInsn()
	}
	return nil, p.errf(t, "unknown declaration %q", t.text)
}

func (p *parser) parseReg() (astDecl, error) {
	kw := p.next() // "reg"
	lo, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	d := astReg{loName: lo.text, line: kw.line}
	if p.cur().kind == tDotDot {
		p.pos++
		hi, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		d.hiName = hi.text
	}
	if _, err := p.expect(tColon); err != nil {
		return nil, err
	}
	w, err := p.expect(tNumber)
	if err != nil {
		return nil, err
	}
	d.width = uint(w.num)
	attrs, err := p.parseAttrs()
	if err != nil {
		return nil, err
	}
	d.attrs = attrs
	if p.cur().kind == tLBrace {
		p.pos++
		for {
			name, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tAssign); err != nil {
				return nil, err
			}
			hi, err := p.expect(tNumber)
			if err != nil {
				return nil, err
			}
			sub := astSubField{name: name.text, hi: uint(hi.num), lo: uint(hi.num), line: name.line}
			if p.cur().kind == tDotDot {
				p.pos++
				loBit, err := p.expect(tNumber)
				if err != nil {
					return nil, err
				}
				sub.lo = uint(loBit.num)
			}
			d.subs = append(d.subs, sub)
			if p.cur().kind == tComma {
				p.pos++
				continue
			}
			break
		}
		if _, err := p.expect(tRBrace); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *parser) parseAttrs() ([]string, error) {
	if p.cur().kind != tLBracket {
		return nil, nil
	}
	p.pos++
	var attrs []string
	for {
		a, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, a.text)
		if p.cur().kind == tComma {
			p.pos++
			continue
		}
		break
	}
	if _, err := p.expect(tRBracket); err != nil {
		return nil, err
	}
	return attrs, nil
}

func (p *parser) parsePseudo() (astDecl, error) {
	kw := p.next() // "pseudo"
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	d := astPseudo{name: name.text, line: kw.line}
	if p.cur().kind == tColon {
		p.pos++
		tmpl, err := p.expect(tString)
		if err != nil {
			return nil, err
		}
		d.template = tmpl.text
	}
	if _, err := p.expect(tAssign); err != nil {
		return nil, err
	}
	exp, err := p.expect(tString)
	if err != nil {
		return nil, err
	}
	d.expansion = exp.text
	return d, nil
}

func (p *parser) parseSpace() (astDecl, error) {
	kw := p.next() // "space"
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tColon); err != nil {
		return nil, err
	}
	if _, err := p.keyword("addr"); err != nil {
		return nil, err
	}
	a, err := p.expect(tNumber)
	if err != nil {
		return nil, err
	}
	if _, err := p.keyword("cell"); err != nil {
		return nil, err
	}
	c, err := p.expect(tNumber)
	if err != nil {
		return nil, err
	}
	return astSpace{name: name.text, addrBits: uint(a.num), cellBits: uint(c.num), line: kw.line}, nil
}

func (p *parser) parseFormat() (astDecl, error) {
	kw := p.next() // "format"
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tColon); err != nil {
		return nil, err
	}
	w, err := p.expect(tNumber)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	f := astFormat{name: name.text, width: uint(w.num), line: kw.line}
	for {
		fn, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tColon); err != nil {
			return nil, err
		}
		fw, err := p.expect(tNumber)
		if err != nil {
			return nil, err
		}
		fd := astField{name: fn.text, bits: uint(fw.num), line: fn.line}
		if p.cur().kind == tIdent {
			switch p.cur().text {
			case "reg":
				p.pos++
				if _, err := p.expect(tLParen); err != nil {
					return nil, err
				}
				file, err := p.expect(tIdent)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tRParen); err != nil {
					return nil, err
				}
				fd.kind, fd.file = "reg", file.text
			case "simm":
				p.pos++
				fd.kind = "simm"
			case "uimm":
				p.pos++
				fd.kind = "uimm"
			}
		}
		f.fields = append(f.fields, fd)
		if p.cur().kind == tComma {
			p.pos++
			continue
		}
		break
	}
	if _, err := p.expect(tRBrace); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) parseInsn() (astDecl, error) {
	kw := p.next() // "insn"
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tColon); err != nil {
		return nil, err
	}
	format, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	ins := astInsn{name: name.text, format: format.text, line: kw.line}
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	if p.cur().kind != tRParen {
		for {
			fn, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tAssign); err != nil {
				return nil, err
			}
			v, err := p.expect(tNumber)
			if err != nil {
				return nil, err
			}
			ins.matches = append(ins.matches, astMatch{field: fn.text, value: v.num, line: fn.line})
			if p.cur().kind == tComma {
				p.pos++
				continue
			}
			break
		}
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	tmpl, err := p.expect(tString)
	if err != nil {
		return nil, err
	}
	ins.template = tmpl.text
	for p.atKeyword("operand") {
		od, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		ins.operands = append(ins.operands, od)
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	ins.body = body
	return ins, nil
}

func (p *parser) parseOperand() (astOperand, error) {
	kw := p.next() // "operand"
	name, err := p.expect(tIdent)
	if err != nil {
		return astOperand{}, err
	}
	od := astOperand{name: name.text, line: kw.line}
	if p.cur().kind == tAssign {
		p.pos++
		for {
			item, err := p.parseCatItem()
			if err != nil {
				return astOperand{}, err
			}
			od.items = append(od.items, item)
			if p.cur().kind == tHashHash {
				p.pos++
				continue
			}
			break
		}
	}
	attrs, err := p.parseAttrs()
	if err != nil {
		return astOperand{}, err
	}
	od.attrs = attrs
	return od, nil
}

func (p *parser) parseCatItem() (astCatItem, error) {
	t := p.cur()
	switch t.kind {
	case tIdent:
		p.pos++
		return astCatItem{field: t.text, line: t.line}, nil
	case tNumber:
		p.pos++
		if _, err := p.expect(tColon); err != nil {
			return astCatItem{}, p.errf(t, "constant concat item needs an explicit width: value:width")
		}
		w, err := p.expect(tNumber)
		if err != nil {
			return astCatItem{}, err
		}
		return astCatItem{val: t.num, width: uint(w.num), line: t.line}, nil
	}
	return astCatItem{}, p.errf(t, "expected a field name or sized constant in operand concat")
}

// ---- statements ----

func (p *parser) parseBlock() ([]astStmt, error) {
	if _, err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	var stmts []astStmt
	for p.cur().kind != tRBrace {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.pos++ // consume }
	return stmts, nil
}

func (p *parser) parseStmt() (astStmt, error) {
	t := p.cur()
	if t.kind == tIdent {
		switch t.text {
		case "if":
			return p.parseIf()
		case "local":
			return p.parseLocal()
		case "store", "trap", "halt", "error":
			return p.parseCallStmt()
		}
	}
	// Assignment: lvalue = expr ;
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tAssign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	return astAssign{lhs: lhs, rhs: rhs, line: t.line}, nil
}

func (p *parser) parseIf() (astStmt, error) {
	kw := p.next() // "if"
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := astIf{cond: cond, then: then, line: kw.line}
	if p.atKeyword("else") {
		p.pos++
		if p.atKeyword("if") {
			inner, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.els = []astStmt{inner}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.els = els
		}
	}
	return st, nil
}

func (p *parser) parseLocal() (astStmt, error) {
	kw := p.next() // "local"
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	st := astLocal{name: name.text, line: kw.line}
	if p.cur().kind == tColon {
		p.pos++
		w, err := p.expect(tNumber)
		if err != nil {
			return nil, err
		}
		st.width = uint(w.num)
	}
	if _, err := p.expect(tAssign); err != nil {
		return nil, err
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	st.init = init
	return st, nil
}

func (p *parser) parseCallStmt() (astStmt, error) {
	kw := p.next()
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	st := astCallStmt{name: kw.text, line: kw.line}
	if kw.text == "error" {
		msg, err := p.expect(tString)
		if err != nil {
			return nil, err
		}
		st.msg = msg.text
	} else if p.cur().kind != tRParen {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.args = append(st.args, a)
			if p.cur().kind == tComma {
				p.pos++
				continue
			}
			break
		}
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	return st, nil
}

// ---- expressions (precedence climbing) ----
//
// Precedence, loosest first:
//
//	?:  ||  &&  cmp  |  ^  &  shift  addsub  mul  unary

func (p *parser) parseExpr() (astExpr, error) { return p.parseTernary() }

func (p *parser) parseTernary() (astExpr, error) {
	cond, err := p.parseOrOr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tQuestion {
		return cond, nil
	}
	q := p.next()
	t, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tColon); err != nil {
		return nil, err
	}
	f, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return astTernary{cond: cond, t: t, f: f, line: q.line}, nil
}

type binLevel struct {
	toks map[tokKind]string
}

var levels = []binLevel{
	{map[tokKind]string{tOrOr: "||"}},
	{map[tokKind]string{tAndAnd: "&&"}},
	{map[tokKind]string{
		tEq: "==", tNe: "!=",
		tLtU: "<u", tLtS: "<s", tLeU: "<=u", tLeS: "<=s",
		tGtU: ">u", tGtS: ">s", tGeU: ">=u", tGeS: ">=s",
	}},
	{map[tokKind]string{tPipe: "|"}},
	{map[tokKind]string{tCaret: "^"}},
	{map[tokKind]string{tAmp: "&"}},
	{map[tokKind]string{tShl: "<<", tShrU: ">>u", tShrS: ">>s"}},
	{map[tokKind]string{tPlus: "+", tMinus: "-"}},
	{map[tokKind]string{tStar: "*"}},
}

func (p *parser) parseOrOr() (astExpr, error) { return p.parseBin(0) }

func (p *parser) parseBin(level int) (astExpr, error) {
	if level >= len(levels) {
		return p.parseUnary()
	}
	x, err := p.parseBin(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		op, ok := levels[level].toks[p.cur().kind]
		if !ok {
			return x, nil
		}
		t := p.next()
		y, err := p.parseBin(level + 1)
		if err != nil {
			return nil, err
		}
		x = astBinary{op: op, x: x, y: y, line: t.line}
	}
}

func (p *parser) parseUnary() (astExpr, error) {
	t := p.cur()
	switch t.kind {
	case tTilde:
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return astUnary{op: "~", x: x, line: t.line}, nil
	case tMinus:
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return astUnary{op: "-", x: x, line: t.line}, nil
	case tBang:
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return astUnary{op: "!", x: x, line: t.line}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (astExpr, error) {
	t := p.cur()
	switch t.kind {
	case tNumber:
		p.pos++
		// Sized literal: value:width.
		if p.cur().kind == tColon {
			p.pos++
			w, err := p.expect(tNumber)
			if err != nil {
				return nil, err
			}
			return astNum{val: t.num, width: uint(w.num), line: t.line}, nil
		}
		return astNum{val: t.num, line: t.line}, nil
	case tLParen:
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tIdent:
		p.pos++
		if p.cur().kind == tLParen {
			// Builtin call.
			p.pos++
			call := astCall{name: t.text, line: t.line}
			if p.cur().kind != tRParen {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.args = append(call.args, a)
					if p.cur().kind == tComma {
						p.pos++
						continue
					}
					break
				}
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		if p.cur().kind == tDot {
			p.pos++
			sub, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			return astDotName{base: t.text, sub: sub.text, line: t.line}, nil
		}
		return astName{name: t.text, line: t.line}, nil
	}
	return nil, p.errf(t, "expected an expression, found %v %s", t.kind, quoted(t))
}
