// Package lexer converts MC source text into a token stream.
package lexer

import (
	"strings"

	"repro/internal/source"
	"repro/internal/token"
)

// Token is a lexed token: its kind, literal spelling, and position.
type Token struct {
	Kind token.Kind
	Lit  string
	Pos  source.Pos
}

// String renders the token for debugging.
func (t Token) String() string {
	switch t.Kind {
	case token.IDENT, token.INTLIT, token.FLOATLIT, token.ILLEGAL:
		return t.Kind.String() + "(" + t.Lit + ")"
	}
	return t.Kind.String()
}

// Lexer scans MC source text. Create one with New and pull tokens with
// Next; after the input is exhausted Next returns EOF forever.
type Lexer struct {
	src  string
	off  int // byte offset of the next unread byte
	line int
	col  int
	errs *source.ErrorList
}

// New returns a Lexer over src reporting errors to errs. errs may be nil,
// in which case errors are silently represented as ILLEGAL tokens only.
func New(src string, errs *source.ErrorList) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, errs: errs}
}

func (l *Lexer) errorf(pos source.Pos, format string, args ...interface{}) {
	if l.errs != nil {
		l.errs.Add(pos, format, args...)
	}
}

func (l *Lexer) pos() source.Pos { return source.Pos{Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isLetter(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

// skipSpace consumes whitespace and comments (both // line comments and
// /* block comments */).
func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == '\n':
			l.off++
			l.line++
			l.col = 1
		case c == ' ' || c == '\t' || c == '\r':
			l.off++
			l.col++
		case c == '/' && l.peek2() == '/':
			n := strings.IndexByte(l.src[l.off:], '\n')
			if n < 0 {
				n = len(l.src) - l.off
			}
			l.off += n
			l.col += n
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token in the input.
func (l *Lexer) Next() Token {
	l.skipSpace()
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: token.EOF, Pos: pos}
	}
	c := l.peek()
	switch {
	case isLetter(c):
		start := l.off
		i := start + 1
		for i < len(l.src) && (isLetter(l.src[i]) || isDigit(l.src[i])) {
			i++
		}
		l.skip(i)
		lit := l.src[start:i]
		return Token{Kind: token.Lookup(lit), Lit: lit, Pos: pos}
	case isDigit(c):
		return l.number(pos)
	}
	l.advance()
	two := func(next byte, yes token.Kind, yesLit string, no token.Kind, noLit string) Token {
		if l.peek() == next {
			l.advance()
			return Token{Kind: yes, Lit: yesLit, Pos: pos}
		}
		return Token{Kind: no, Lit: noLit, Pos: pos}
	}
	switch c {
	case '+':
		return Token{Kind: token.PLUS, Lit: "+", Pos: pos}
	case '-':
		return Token{Kind: token.MINUS, Lit: "-", Pos: pos}
	case '*':
		return Token{Kind: token.STAR, Lit: "*", Pos: pos}
	case '/':
		return Token{Kind: token.SLASH, Lit: "/", Pos: pos}
	case '%':
		return Token{Kind: token.PERCENT, Lit: "%", Pos: pos}
	case '=':
		return two('=', token.EQ, "==", token.ASSIGN, "=")
	case '!':
		return two('=', token.NE, "!=", token.NOT, "!")
	case '<':
		return two('=', token.LE, "<=", token.LT, "<")
	case '>':
		return two('=', token.GE, ">=", token.GT, ">")
	case '&':
		if l.peek() == '&' {
			l.advance()
			return Token{Kind: token.AND, Lit: "&&", Pos: pos}
		}
		l.errorf(pos, "unexpected character %q (did you mean &&?)", string(c))
		return Token{Kind: token.ILLEGAL, Lit: "&", Pos: pos}
	case '|':
		if l.peek() == '|' {
			l.advance()
			return Token{Kind: token.OR, Lit: "||", Pos: pos}
		}
		l.errorf(pos, "unexpected character %q (did you mean ||?)", string(c))
		return Token{Kind: token.ILLEGAL, Lit: "|", Pos: pos}
	case '(':
		return Token{Kind: token.LPAREN, Lit: "(", Pos: pos}
	case ')':
		return Token{Kind: token.RPAREN, Lit: ")", Pos: pos}
	case '{':
		return Token{Kind: token.LBRACE, Lit: "{", Pos: pos}
	case '}':
		return Token{Kind: token.RBRACE, Lit: "}", Pos: pos}
	case '[':
		return Token{Kind: token.LBRACK, Lit: "[", Pos: pos}
	case ']':
		return Token{Kind: token.RBRACK, Lit: "]", Pos: pos}
	case ',':
		return Token{Kind: token.COMMA, Lit: ",", Pos: pos}
	case ';':
		return Token{Kind: token.SEMI, Lit: ";", Pos: pos}
	}
	l.errorf(pos, "unexpected character %q", string(c))
	return Token{Kind: token.ILLEGAL, Lit: string(c), Pos: pos}
}

// number scans an integer or floating literal. A literal is floating when
// it contains a '.' or an exponent part.
func (l *Lexer) number(pos source.Pos) Token {
	start := l.off
	i := l.digits(start)
	isFloat := false
	if i+1 < len(l.src) && l.src[i] == '.' && isDigit(l.src[i+1]) {
		isFloat = true
		i = l.digits(i + 1)
	}
	if i < len(l.src) && (l.src[i] == 'e' || l.src[i] == 'E') {
		// Exponent: e[+-]?digits. Only consume when well-formed.
		j := i + 1
		if j < len(l.src) && (l.src[j] == '+' || l.src[j] == '-') {
			j++
		}
		if j < len(l.src) && isDigit(l.src[j]) {
			isFloat = true
			i = l.digits(j)
		}
	}
	l.skip(i)
	lit := l.src[start:i]
	if isFloat {
		return Token{Kind: token.FLOATLIT, Lit: lit, Pos: pos}
	}
	return Token{Kind: token.INTLIT, Lit: lit, Pos: pos}
}

// digits returns the offset of the first non-digit at or after i.
func (l *Lexer) digits(i int) int {
	for i < len(l.src) && isDigit(l.src[i]) {
		i++
	}
	return i
}

// skip advances to offset i over bytes that hold no newline.
func (l *Lexer) skip(i int) {
	l.col += i - l.off
	l.off = i
}

// All lexes the entire input and returns the tokens including the final
// EOF token. It is a convenience for tests and tools.
func All(src string, errs *source.ErrorList) []Token {
	l := New(src, errs)
	var toks []Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}
