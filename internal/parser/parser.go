// Package parser implements a recursive-descent parser for the MC
// language, producing the AST defined in package ast.
package parser

import (
	"strconv"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/source"
	"repro/internal/token"
)

// Parse parses a complete MC translation unit. On failure it returns the
// (possibly partial) program together with a non-nil error carrying all
// diagnostics.
func Parse(src string) (*ast.Program, error) {
	return ParseFile("", src)
}

// ParseFile is Parse with a file name attached to diagnostics.
func ParseFile(filename, src string) (*ast.Program, error) {
	errs := &source.ErrorList{File: filename}
	p := &parser{lex: lexer.New(src, errs), errs: errs}
	p.next()
	prog := p.parseProgram()
	prog.MaxID = p.lastID
	errs.Sort()
	return prog, errs.Err()
}

type parser struct {
	lex      *lexer.Lexer
	errs     *source.ErrorList
	tok      lexer.Token // current token
	ahead    lexer.Token // one-token lookahead buffer, valid when hasAhead
	hasAhead bool
	lastID   ast.ID // the last node ID handed out

	// Stacks of the call arguments and block statements being parsed;
	// each list is copied out at its exact length once complete.
	exprs []ast.Expr
	stmts []ast.Stmt

	// The most frequent nodes come from chunks.
	binaries chunks[ast.BinaryExpr]
	unaries  chunks[ast.UnaryExpr]
	ints     chunks[ast.IntLit]
	floats   chunks[ast.FloatLit]
	idents   chunks[ast.Ident]
	indexes  chunks[ast.IndexExpr]
	calls    chunks[ast.CallExpr]
	casts    chunks[ast.CastExpr]
	lvalues  chunks[ast.LValue]
	assigns  chunks[ast.AssignStmt]
}

// chunks hands out nodes of one type from arrays of growing length, so
// a large program costs one allocation per array rather than one per
// node. The nodes of an AST share its lifetime.
type chunks[T any] struct{ buf []T }

func (c *chunks[T]) new() *T {
	if len(c.buf) == cap(c.buf) {
		c.buf = make([]T, 0, min(max(2*cap(c.buf), 8), 512))
	}
	c.buf = c.buf[:len(c.buf)+1]
	return &c.buf[len(c.buf)-1]
}

func (p *parser) next() {
	if p.hasAhead {
		p.tok = p.ahead
		p.hasAhead = false
		return
	}
	p.tok = p.lex.Next()
}

// peek returns the token after the current one without consuming it.
func (p *parser) peek() lexer.Token {
	if !p.hasAhead {
		p.ahead = p.lex.Next()
		p.hasAhead = true
	}
	return p.ahead
}

// id hands out the next node ID.
func (p *parser) id() ast.ID {
	p.lastID++
	return p.lastID
}

func (p *parser) errorf(pos source.Pos, format string, args ...interface{}) {
	p.errs.Add(pos, format, args...)
}

// expect consumes the current token when it has kind k and reports an
// error (without consuming) otherwise. It returns the token either way.
func (p *parser) expect(k token.Kind) lexer.Token {
	t := p.tok
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		return t
	}
	p.next()
	return t
}

// got consumes the current token when it has kind k.
func (p *parser) got(k token.Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// sync skips tokens until a likely statement/declaration boundary, to
// recover from a parse error without cascading.
func (p *parser) sync() {
	for {
		switch p.tok.Kind {
		case token.EOF, token.SEMI, token.RBRACE:
			p.got(token.SEMI)
			return
		case token.INT, token.FLOAT, token.VOID, token.IF, token.WHILE,
			token.FOR, token.DO, token.RETURN, token.BREAK, token.CONTINUE:
			return
		}
		p.next()
	}
}

// ---------------------------------------------------------------------
// Declarations

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	for p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.INT, token.FLOAT, token.VOID:
			base := p.baseType()
			name := p.expect(token.IDENT)
			if p.tok.Kind == token.LPAREN {
				prog.Funcs = append(prog.Funcs, p.parseFuncRest(base, name))
			} else {
				if base == ast.VoidType {
					p.errorf(name.Pos, "variable %s cannot have type void", name.Lit)
					base = ast.IntType
				}
				prog.Globals = append(prog.Globals, p.parseVarRest(base, name))
			}
		default:
			p.errorf(p.tok.Pos, "expected declaration, found %s", p.tok)
			p.next()
			p.sync()
		}
	}
	return prog
}

func (p *parser) baseType() ast.BaseType {
	switch p.tok.Kind {
	case token.INT:
		p.next()
		return ast.IntType
	case token.FLOAT:
		p.next()
		return ast.FloatType
	case token.VOID:
		p.next()
		return ast.VoidType
	}
	p.errorf(p.tok.Pos, "expected type, found %s", p.tok)
	p.next()
	return ast.Invalid
}

// parseVarRest parses the remainder of a variable declaration after the
// base type and name have been consumed: optional array length, optional
// initializer, and the terminating semicolon.
func (p *parser) parseVarRest(base ast.BaseType, name lexer.Token) *ast.VarDecl {
	d := &ast.VarDecl{ID: p.id(), Name: name.Lit, Type: ast.Type{Base: base}, NamePos: name.Pos}
	if p.got(token.LBRACK) {
		lenTok := p.expect(token.INTLIT)
		n, err := strconv.Atoi(lenTok.Lit)
		if err != nil || n <= 0 {
			p.errorf(lenTok.Pos, "array length must be a positive integer literal")
			n = 1
		}
		d.Type.ArrayLen = n
		p.expect(token.RBRACK)
	}
	if p.got(token.ASSIGN) {
		if d.Type.IsArray() {
			p.errorf(p.tok.Pos, "arrays cannot have initializers")
		}
		d.Init = p.parseExpr()
	}
	p.expect(token.SEMI)
	return d
}

func (p *parser) parseFuncRest(result ast.BaseType, name lexer.Token) *ast.FuncDecl {
	f := &ast.FuncDecl{ID: p.id(), Name: name.Lit, Result: result, NamePos: name.Pos}
	p.expect(token.LPAREN)
	if p.tok.Kind != token.RPAREN {
		for {
			base := p.baseType()
			if base == ast.VoidType {
				p.errorf(p.tok.Pos, "parameters cannot have type void")
				base = ast.IntType
			}
			id := p.expect(token.IDENT)
			f.Params = append(f.Params, &ast.Param{ID: p.id(), Name: id.Lit, Type: base, NamePos: id.Pos})
			if !p.got(token.COMMA) {
				break
			}
		}
	}
	p.expect(token.RPAREN)
	f.Body = p.parseBlock()
	return f
}

// ---------------------------------------------------------------------
// Statements

func (p *parser) parseBlock() *ast.BlockStmt {
	b := &ast.BlockStmt{Brace: p.tok.Pos}
	p.expect(token.LBRACE)
	mark := len(p.stmts)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		before := p.tok
		p.stmts = append(p.stmts, p.parseStmt())
		if p.tok == before {
			// No progress — defensive against error loops.
			p.next()
		}
	}
	b.List = append([]ast.Stmt(nil), p.stmts[mark:]...)
	p.stmts = p.stmts[:mark]
	p.expect(token.RBRACE)
	return b
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.tok.Kind {
	case token.INT, token.FLOAT:
		// A declaration — unless this is a cast expression statement
		// like "int(f());" which MC does not allow at statement level,
		// so types always start declarations here.
		base := p.baseType()
		name := p.expect(token.IDENT)
		return &ast.DeclStmt{Decl: p.parseVarRest(base, name)}
	case token.LBRACE:
		return p.parseBlock()
	case token.IF:
		return p.parseIf()
	case token.WHILE:
		pos := p.tok.Pos
		p.next()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.WhileStmt{Cond: cond, Body: p.parseBlock(), While: pos}
	case token.DO:
		pos := p.tok.Pos
		p.next()
		body := p.parseBlock()
		p.expect(token.WHILE)
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return &ast.DoWhileStmt{Body: body, Cond: cond, Do: pos}
	case token.FOR:
		return p.parseFor()
	case token.RETURN:
		pos := p.tok.Pos
		p.next()
		var val ast.Expr
		if p.tok.Kind != token.SEMI {
			val = p.parseExpr()
		}
		p.expect(token.SEMI)
		return &ast.ReturnStmt{Value: val, Return: pos}
	case token.BREAK:
		pos := p.tok.Pos
		p.next()
		p.expect(token.SEMI)
		return &ast.BreakStmt{Break: pos}
	case token.CONTINUE:
		pos := p.tok.Pos
		p.next()
		p.expect(token.SEMI)
		return &ast.ContinueStmt{Continue: pos}
	case token.IDENT:
		if p.peek().Kind == token.LPAREN {
			call := p.parseExpr()
			p.expect(token.SEMI)
			return &ast.ExprStmt{X: call}
		}
		s := p.parseAssign()
		p.expect(token.SEMI)
		return s
	}
	p.errorf(p.tok.Pos, "expected statement, found %s", p.tok)
	p.sync()
	return &ast.BlockStmt{Brace: p.tok.Pos}
}

func (p *parser) parseIf() ast.Stmt {
	pos := p.tok.Pos
	p.next()
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseBlock()
	var els ast.Stmt
	if p.got(token.ELSE) {
		if p.tok.Kind == token.IF {
			els = p.parseIf()
		} else {
			els = p.parseBlock()
		}
	}
	return &ast.IfStmt{Cond: cond, Then: then, Else: els, If: pos}
}

func (p *parser) parseFor() ast.Stmt {
	pos := p.tok.Pos
	p.next()
	p.expect(token.LPAREN)
	f := &ast.ForStmt{For: pos}
	if p.tok.Kind != token.SEMI {
		f.Init = p.parseAssign()
	}
	p.expect(token.SEMI)
	if p.tok.Kind != token.SEMI {
		f.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if p.tok.Kind != token.RPAREN {
		f.Post = p.parseAssign()
	}
	p.expect(token.RPAREN)
	f.Body = p.parseBlock()
	return f
}

func (p *parser) parseAssign() *ast.AssignStmt {
	name := p.expect(token.IDENT)
	lv := p.lvalues.new()
	*lv = ast.LValue{ID: p.id(), Name: name.Lit, NamePos: name.Pos}
	if p.got(token.LBRACK) {
		lv.Index = p.parseExpr()
		p.expect(token.RBRACK)
	}
	p.expect(token.ASSIGN)
	s := p.assigns.new()
	*s = ast.AssignStmt{Target: lv, Value: p.parseExpr()}
	return s
}

// ---------------------------------------------------------------------
// Expressions

func (p *parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		prec := p.tok.Kind.Precedence()
		if prec < minPrec {
			return x
		}
		op := p.tok.Kind
		p.next()
		y := p.parseBinary(prec + 1)
		e := p.binaries.new()
		*e = ast.BinaryExpr{ID: p.id(), Op: op, X: x, Y: y}
		x = e
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch op := p.tok.Kind; op {
	case token.MINUS, token.NOT:
		pos := p.tok.Pos
		p.next()
		x := p.parseUnary()
		e := p.unaries.new()
		*e = ast.UnaryExpr{ID: p.id(), Op: op, X: x, OpPos: pos}
		return e
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() ast.Expr {
	switch p.tok.Kind {
	case token.INTLIT:
		t := p.tok
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf(t.Pos, "integer literal %s out of range", t.Lit)
		}
		e := p.ints.new()
		*e = ast.IntLit{ID: p.id(), Value: v, LitPos: t.Pos}
		return e
	case token.FLOATLIT:
		t := p.tok
		p.next()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid float literal %s", t.Lit)
		}
		e := p.floats.new()
		*e = ast.FloatLit{ID: p.id(), Value: v, LitPos: t.Pos}
		return e
	case token.INT, token.FLOAT:
		// Cast: int(expr) or float(expr).
		pos := p.tok.Pos
		to := ast.IntType
		if p.tok.Kind == token.FLOAT {
			to = ast.FloatType
		}
		p.next()
		p.expect(token.LPAREN)
		x := p.parseExpr()
		p.expect(token.RPAREN)
		e := p.casts.new()
		*e = ast.CastExpr{ID: p.id(), To: to, X: x, CastPo: pos}
		return e
	case token.IDENT:
		t := p.tok
		p.next()
		switch p.tok.Kind {
		case token.LPAREN:
			p.next()
			call := p.calls.new()
			*call = ast.CallExpr{ID: p.id(), Name: t.Lit, NamePos: t.Pos}
			mark := len(p.exprs)
			if p.tok.Kind != token.RPAREN {
				for {
					p.exprs = append(p.exprs, p.parseExpr())
					if !p.got(token.COMMA) {
						break
					}
				}
			}
			call.Args = append([]ast.Expr(nil), p.exprs[mark:]...)
			p.exprs = p.exprs[:mark]
			p.expect(token.RPAREN)
			return call
		case token.LBRACK:
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBRACK)
			e := p.indexes.new()
			*e = ast.IndexExpr{ID: p.id(), Name: t.Lit, Index: idx, NamePos: t.Pos}
			return e
		}
		e := p.idents.new()
		*e = ast.Ident{ID: p.id(), Name: t.Lit, NamePos: t.Pos}
		return e
	case token.LPAREN:
		p.next()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return x
	}
	p.errorf(p.tok.Pos, "expected expression, found %s", p.tok)
	t := p.tok
	p.next()
	return &ast.IntLit{ID: p.id(), Value: 0, LitPos: t.Pos}
}
