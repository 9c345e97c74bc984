// Package ast defines the abstract syntax tree of the MC language.
//
// MC is a small C-like language: int and float scalars, fixed-size
// one-dimensional arrays, functions, and structured control flow. It is
// deliberately simple — the point of this repository is the register
// allocator behind it — but rich enough to express realistic call-heavy
// and loop-heavy workloads.
package ast

import (
	"repro/internal/source"
	"repro/internal/token"
)

// Type is the source-level type of a declaration: a base kind plus an
// optional array length.
type Type struct {
	Base     BaseType
	ArrayLen int // 0 for scalars; > 0 for arrays
}

// BaseType enumerates the scalar base types of MC.
type BaseType int

// The base types. VoidType is only legal as a function result.
const (
	Invalid BaseType = iota
	IntType
	FloatType
	VoidType
)

// String returns the MC spelling of the base type.
func (b BaseType) String() string {
	switch b {
	case IntType:
		return "int"
	case FloatType:
		return "float"
	case VoidType:
		return "void"
	}
	return "invalid"
}

// IsArray reports whether t declares an array.
func (t Type) IsArray() bool { return t.ArrayLen > 0 }

// String renders the type as MC source, e.g. "int" or "float[16]".
func (t Type) String() string {
	if t.IsArray() {
		return t.Base.String() + "[" + itoa(t.ArrayLen) + "]"
	}
	return t.Base.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Node is implemented by every AST node.
type Node interface {
	Pos() source.Pos
}

// ID numbers a node within its program. The parser gives every
// expression, LValue, VarDecl, Param and FuncDecl its own ID in
// 1..Program.MaxID, so the type checker can record what it resolves
// in tables indexed by ID rather than in maps keyed by node. A node
// built by hand has ID 0.
type ID int

// NodeID returns the node's ID.
func (id ID) NodeID() ID { return id }

// ---------------------------------------------------------------------
// Program structure

// Program is a whole MC translation unit.
type Program struct {
	Globals []*VarDecl
	Funcs   []*FuncDecl
	// MaxID is the largest node ID in the program.
	MaxID ID
}

// FuncDecl is a function definition.
type FuncDecl struct {
	ID
	Name    string
	Result  BaseType // IntType, FloatType, or VoidType
	Params  []*Param
	Body    *BlockStmt
	NamePos source.Pos
}

// Pos returns the position of the function name.
func (d *FuncDecl) Pos() source.Pos { return d.NamePos }

// Param is a single function parameter. Parameters are always scalars.
type Param struct {
	ID
	Name    string
	Type    BaseType
	NamePos source.Pos
}

// Pos returns the position of the parameter name.
func (p *Param) Pos() source.Pos { return p.NamePos }

// VarDecl declares a global or local variable, optionally with a scalar
// initializer expression.
type VarDecl struct {
	ID
	Name    string
	Type    Type
	Init    Expr // nil when absent; nil for arrays
	NamePos source.Pos
}

// Pos returns the position of the declared name.
func (d *VarDecl) Pos() source.Pos { return d.NamePos }

// ---------------------------------------------------------------------
// Statements

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// BlockStmt is a brace-enclosed statement list with its own scope.
type BlockStmt struct {
	List  []Stmt
	Brace source.Pos
}

// DeclStmt wraps a local variable declaration as a statement.
type DeclStmt struct {
	Decl *VarDecl
}

// AssignStmt assigns Value to Target (a variable or array element).
type AssignStmt struct {
	Target *LValue
	Value  Expr
}

// LValue is an assignable location: a named variable, optionally indexed.
type LValue struct {
	ID
	Name    string
	Index   Expr // nil for scalars
	NamePos source.Pos
}

// Pos returns the position of the target name.
func (l *LValue) Pos() source.Pos { return l.NamePos }

// ExprStmt evaluates an expression for its side effects (a call).
type ExprStmt struct {
	X Expr
}

// IfStmt is an if/else statement; Else may be nil.
type IfStmt struct {
	Cond Expr
	Then *BlockStmt
	Else Stmt // *BlockStmt or *IfStmt, or nil
	If   source.Pos
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond  Expr
	Body  *BlockStmt
	While source.Pos
}

// DoWhileStmt is a do { } while (cond); loop.
type DoWhileStmt struct {
	Body *BlockStmt
	Cond Expr
	Do   source.Pos
}

// ForStmt is a C-style for loop. Init and Post may be nil and are
// restricted to assignments; Cond may be nil (infinite loop).
type ForStmt struct {
	Init *AssignStmt
	Cond Expr
	Post *AssignStmt
	Body *BlockStmt
	For  source.Pos
}

// ReturnStmt returns from the enclosing function; Value is nil in void
// functions.
type ReturnStmt struct {
	Value  Expr
	Return source.Pos
}

// BreakStmt exits the innermost loop.
type BreakStmt struct {
	Break source.Pos
}

// ContinueStmt jumps to the next iteration of the innermost loop.
type ContinueStmt struct {
	Continue source.Pos
}

func (*BlockStmt) stmtNode()    {}
func (*DeclStmt) stmtNode()     {}
func (*AssignStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*DoWhileStmt) stmtNode()  {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}

// Pos implementations for statements.
func (s *BlockStmt) Pos() source.Pos    { return s.Brace }
func (s *DeclStmt) Pos() source.Pos     { return s.Decl.Pos() }
func (s *AssignStmt) Pos() source.Pos   { return s.Target.Pos() }
func (s *ExprStmt) Pos() source.Pos     { return s.X.Pos() }
func (s *IfStmt) Pos() source.Pos       { return s.If }
func (s *WhileStmt) Pos() source.Pos    { return s.While }
func (s *DoWhileStmt) Pos() source.Pos  { return s.Do }
func (s *ForStmt) Pos() source.Pos      { return s.For }
func (s *ReturnStmt) Pos() source.Pos   { return s.Return }
func (s *BreakStmt) Pos() source.Pos    { return s.Break }
func (s *ContinueStmt) Pos() source.Pos { return s.Continue }

// ---------------------------------------------------------------------
// Expressions

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	NodeID() ID
	exprNode()
}

// IntLit is an integer literal.
type IntLit struct {
	ID
	Value  int64
	LitPos source.Pos
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	ID
	Value  float64
	LitPos source.Pos
}

// Ident references a scalar variable by name.
type Ident struct {
	ID
	Name    string
	NamePos source.Pos
}

// IndexExpr reads an array element: Name[Index].
type IndexExpr struct {
	ID
	Name    string
	Index   Expr
	NamePos source.Pos
}

// CallExpr calls a function by name.
type CallExpr struct {
	ID
	Name    string
	Args    []Expr
	NamePos source.Pos
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	ID
	Op   token.Kind
	X, Y Expr
}

// UnaryExpr applies unary minus or logical not.
type UnaryExpr struct {
	ID
	Op    token.Kind
	X     Expr
	OpPos source.Pos
}

// CastExpr converts between int and float, written int(x) or float(x).
type CastExpr struct {
	ID
	To     BaseType
	X      Expr
	CastPo source.Pos
}

func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*Ident) exprNode()      {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*CastExpr) exprNode()   {}

// Pos implementations for expressions.
func (e *IntLit) Pos() source.Pos     { return e.LitPos }
func (e *FloatLit) Pos() source.Pos   { return e.LitPos }
func (e *Ident) Pos() source.Pos      { return e.NamePos }
func (e *IndexExpr) Pos() source.Pos  { return e.NamePos }
func (e *CallExpr) Pos() source.Pos   { return e.NamePos }
func (e *BinaryExpr) Pos() source.Pos { return e.X.Pos() }
func (e *UnaryExpr) Pos() source.Pos  { return e.OpPos }
func (e *CastExpr) Pos() source.Pos   { return e.CastPo }
