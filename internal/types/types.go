// Package types implements the MC type checker. It resolves names,
// verifies type rules, and records the information the IR builder needs:
// the type of every expression and the symbol behind every name use.
//
// MC's conversion rules are a simplified C: int promotes implicitly to
// float in arithmetic, assignments, arguments, and returns; converting
// float to int always requires an explicit int(...) cast.
package types

import (
	"repro/internal/ast"
	"repro/internal/source"
	"repro/internal/token"
)

// ObjKind classifies a named program object.
type ObjKind int

// The object kinds.
const (
	BadObj ObjKind = iota
	GlobalVar
	LocalVar
	ParamVar
	FuncObj
)

// String names the kind for diagnostics.
func (k ObjKind) String() string {
	switch k {
	case GlobalVar:
		return "global"
	case LocalVar:
		return "local"
	case ParamVar:
		return "parameter"
	case FuncObj:
		return "function"
	}
	return "bad"
}

// Object is a resolved program entity: a variable, parameter, or
// function.
type Object struct {
	Name string
	Kind ObjKind
	Type ast.Type // for variables and parameters
	Sig  *FuncSig // for functions
	Decl ast.Node // declaring node
}

// FuncSig is a function's type: result and parameter base types.
type FuncSig struct {
	Result ast.BaseType
	Params []ast.BaseType
}

// Info carries the results of type checking, consumed by the IR
// builder. Its tables are indexed by node ID (ast.ID).
type Info struct {
	// Types records the type each expression evaluates to, before any
	// context-driven conversion.
	Types []ast.BaseType
	// Objects resolves every name-bearing node (Ident, IndexExpr,
	// LValue, CallExpr) to the object it uses, and every VarDecl,
	// Param and FuncDecl to the object it declares.
	Objects []*Object
	// FuncByName indexes the program's functions.
	FuncByName map[string]*ast.FuncDecl
}

// Check type-checks prog, whose node IDs must come from the parser,
// and returns the collected Info. The returned error, when non-nil, is
// a *source.ErrorList with every diagnostic.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Types:      make([]ast.BaseType, prog.MaxID+1),
			Objects:    make([]*Object, prog.MaxID+1),
			FuncByName: make(map[string]*ast.FuncDecl, len(prog.Funcs)),
		},
		errs:    &source.ErrorList{},
		globals: make(map[string]*Object, len(prog.Globals)+len(prog.Funcs)),
		locals:  make(map[string]binding),
	}
	c.checkProgram(prog)
	c.errs.Sort()
	return c.info, c.errs.Err()
}

type checker struct {
	info    *Info
	errs    *source.ErrorList
	globals map[string]*Object // globals and functions share a namespace

	// Per-function state. locals maps each name to its innermost
	// declaration; shadowed records, in declaration order, what each
	// declaration hid, and scopes where in it each open scope begins,
	// so closing a scope restores the bindings it shadowed.
	locals    map[string]binding
	shadowed  []shadow
	scopes    []int
	result    ast.BaseType
	loopDepth int
}

// binding is a name's innermost local declaration and the depth of the
// scope that declares it.
type binding struct {
	obj   *Object
	depth int
}

// shadow is the binding a declaration of name replaced, if it had one.
type shadow struct {
	name string
	prev binding
	had  bool
}

func (c *checker) errorf(pos source.Pos, format string, args ...interface{}) {
	c.errs.Add(pos, format, args...)
}

func (c *checker) checkProgram(prog *ast.Program) {
	// First pass: declare all globals and functions so calls may be
	// forward references.
	for _, g := range prog.Globals {
		if prev, ok := c.globals[g.Name]; ok {
			c.errorf(g.Pos(), "%s redeclared (previous declaration as %s)", g.Name, prev.Kind)
			continue
		}
		obj := &Object{Name: g.Name, Kind: GlobalVar, Type: g.Type, Decl: g}
		c.globals[g.Name] = obj
		c.info.Objects[g.ID] = obj
	}
	for _, f := range prog.Funcs {
		if prev, ok := c.globals[f.Name]; ok {
			c.errorf(f.Pos(), "%s redeclared (previous declaration as %s)", f.Name, prev.Kind)
			continue
		}
		sig := &FuncSig{Result: f.Result}
		if len(f.Params) > 0 {
			sig.Params = make([]ast.BaseType, len(f.Params))
			for i, p := range f.Params {
				sig.Params[i] = p.Type
			}
		}
		obj := &Object{Name: f.Name, Kind: FuncObj, Sig: sig, Decl: f}
		c.globals[f.Name] = obj
		c.info.Objects[f.ID] = obj
		c.info.FuncByName[f.Name] = f
	}
	// Global initializers must be constant-free of calls and of other
	// globals? MC allows literals and arithmetic on literals only; the
	// simplest sound rule: initializers are checked as expressions that
	// may reference previously declared globals but not call functions.
	for _, g := range prog.Globals {
		if g.Init != nil {
			t := c.checkExpr(g.Init)
			c.checkNoCalls(g.Init)
			c.assignable(g.Pos(), g.Type.Base, t, "initializer")
		}
	}
	for _, f := range prog.Funcs {
		c.checkFunc(f)
	}
}

func (c *checker) checkNoCalls(e ast.Expr) {
	switch e := e.(type) {
	case *ast.CallExpr:
		c.errorf(e.Pos(), "calls are not allowed in global initializers")
	case *ast.BinaryExpr:
		c.checkNoCalls(e.X)
		c.checkNoCalls(e.Y)
	case *ast.UnaryExpr:
		c.checkNoCalls(e.X)
	case *ast.CastExpr:
		c.checkNoCalls(e.X)
	case *ast.IndexExpr:
		c.checkNoCalls(e.Index)
	}
}

// Parameter-count limits: MC passes all arguments in registers, so a
// call's arguments are simultaneously live. The smallest register file
// the machine model supports is (6,4,0,0); capping parameters at that
// size keeps every call colorable in every configuration.
const (
	maxIntParams   = 6
	maxFloatParams = 4
)

func (c *checker) checkFunc(f *ast.FuncDecl) {
	c.scopes = c.scopes[:0]
	c.result = f.Result
	c.loopDepth = 0
	c.pushScope()
	ints, floats := 0, 0
	for _, p := range f.Params {
		if p.Type == ast.FloatType {
			floats++
		} else {
			ints++
		}
	}
	if ints > maxIntParams {
		c.errorf(f.Pos(), "function %s has %d int parameters; MC allows at most %d (arguments are passed in registers)", f.Name, ints, maxIntParams)
	}
	if floats > maxFloatParams {
		c.errorf(f.Pos(), "function %s has %d float parameters; MC allows at most %d (arguments are passed in registers)", f.Name, floats, maxFloatParams)
	}
	for _, p := range f.Params {
		obj := &Object{Name: p.Name, Kind: ParamVar, Type: ast.Type{Base: p.Type}, Decl: p}
		if !c.declare(obj) {
			c.errorf(p.Pos(), "duplicate parameter %s", p.Name)
		}
		c.info.Objects[p.ID] = obj
	}
	c.checkBlock(f.Body, false)
	c.popScope()
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, len(c.shadowed)) }

func (c *checker) popScope() {
	start := c.scopes[len(c.scopes)-1]
	for i := len(c.shadowed) - 1; i >= start; i-- {
		if s := c.shadowed[i]; s.had {
			c.locals[s.name] = s.prev
		} else {
			delete(c.locals, s.name)
		}
	}
	c.shadowed = c.shadowed[:start]
	c.scopes = c.scopes[:len(c.scopes)-1]
}

func (c *checker) declare(obj *Object) bool {
	prev, had := c.locals[obj.Name]
	if had && prev.depth == len(c.scopes) {
		return false
	}
	c.shadowed = append(c.shadowed, shadow{name: obj.Name, prev: prev, had: had})
	c.locals[obj.Name] = binding{obj: obj, depth: len(c.scopes)}
	return true
}

func (c *checker) lookup(name string) *Object {
	if b, ok := c.locals[name]; ok {
		return b.obj
	}
	return c.globals[name]
}

// assignable reports (and diagnoses) whether a value of type 'from' may
// flow into a location of type 'to' in the named context. int→float is
// implicit; float→int is not.
func (c *checker) assignable(pos source.Pos, to, from ast.BaseType, what string) bool {
	if from == ast.Invalid || to == ast.Invalid {
		return true // already diagnosed
	}
	if to == from {
		return true
	}
	if to == ast.FloatType && from == ast.IntType {
		return true
	}
	c.errorf(pos, "cannot use %s value as %s in %s (use an explicit cast)", from, to, what)
	return false
}

// ---------------------------------------------------------------------
// Statements

func (c *checker) checkBlock(b *ast.BlockStmt, newScope bool) {
	if newScope {
		c.pushScope()
		defer c.popScope()
	}
	for _, s := range b.List {
		c.checkStmt(s)
	}
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.checkBlock(s, true)
	case *ast.DeclStmt:
		d := s.Decl
		if d.Init != nil {
			t := c.checkExpr(d.Init)
			c.assignable(d.Pos(), d.Type.Base, t, "initializer")
		}
		obj := &Object{Name: d.Name, Kind: LocalVar, Type: d.Type, Decl: d}
		if !c.declare(obj) {
			c.errorf(d.Pos(), "%s redeclared in this block", d.Name)
		}
		c.info.Objects[d.ID] = obj
	case *ast.AssignStmt:
		to := c.checkLValue(s.Target)
		from := c.checkExpr(s.Value)
		c.assignable(s.Target.Pos(), to, from, "assignment")
	case *ast.ExprStmt:
		c.checkExpr(s.X)
	case *ast.IfStmt:
		c.condition(s.Cond)
		c.checkBlock(s.Then, true)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.WhileStmt:
		c.condition(s.Cond)
		c.loopDepth++
		c.checkBlock(s.Body, true)
		c.loopDepth--
	case *ast.DoWhileStmt:
		c.loopDepth++
		c.checkBlock(s.Body, true)
		c.loopDepth--
		c.condition(s.Cond)
	case *ast.ForStmt:
		c.pushScope()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.condition(s.Cond)
		}
		if s.Post != nil {
			c.checkStmt(s.Post)
		}
		c.loopDepth++
		c.checkBlock(s.Body, true)
		c.loopDepth--
		c.popScope()
	case *ast.ReturnStmt:
		if c.result == ast.VoidType {
			if s.Value != nil {
				c.errorf(s.Pos(), "void function cannot return a value")
				c.checkExpr(s.Value)
			}
			return
		}
		if s.Value == nil {
			c.errorf(s.Pos(), "missing return value (function returns %s)", c.result)
			return
		}
		t := c.checkExpr(s.Value)
		c.assignable(s.Pos(), c.result, t, "return")
	case *ast.BreakStmt:
		if c.loopDepth == 0 {
			c.errorf(s.Pos(), "break outside loop")
		}
	case *ast.ContinueStmt:
		if c.loopDepth == 0 {
			c.errorf(s.Pos(), "continue outside loop")
		}
	}
}

func (c *checker) condition(e ast.Expr) {
	t := c.checkExpr(e)
	if t != ast.IntType && t != ast.Invalid {
		c.errorf(e.Pos(), "condition must be int, found %s (use a comparison)", t)
	}
}

func (c *checker) checkLValue(lv *ast.LValue) ast.BaseType {
	obj := c.lookup(lv.Name)
	if obj == nil {
		c.errorf(lv.Pos(), "undefined: %s", lv.Name)
		return ast.Invalid
	}
	if obj.Kind == FuncObj {
		c.errorf(lv.Pos(), "cannot assign to function %s", lv.Name)
		return ast.Invalid
	}
	c.info.Objects[lv.ID] = obj
	if lv.Index != nil {
		if !obj.Type.IsArray() {
			c.errorf(lv.Pos(), "%s is not an array", lv.Name)
		}
		it := c.checkExpr(lv.Index)
		if it != ast.IntType && it != ast.Invalid {
			c.errorf(lv.Index.Pos(), "array index must be int, found %s", it)
		}
		return obj.Type.Base
	}
	if obj.Type.IsArray() {
		c.errorf(lv.Pos(), "cannot assign to array %s without an index", lv.Name)
	}
	return obj.Type.Base
}

// ---------------------------------------------------------------------
// Expressions

func (c *checker) checkExpr(e ast.Expr) ast.BaseType {
	t := c.exprType(e)
	c.info.Types[e.NodeID()] = t
	return t
}

func (c *checker) exprType(e ast.Expr) ast.BaseType {
	switch e := e.(type) {
	case *ast.IntLit:
		return ast.IntType
	case *ast.FloatLit:
		return ast.FloatType
	case *ast.Ident:
		obj := c.lookup(e.Name)
		if obj == nil {
			c.errorf(e.Pos(), "undefined: %s", e.Name)
			return ast.Invalid
		}
		if obj.Kind == FuncObj {
			c.errorf(e.Pos(), "%s is a function; call it", e.Name)
			return ast.Invalid
		}
		if obj.Type.IsArray() {
			c.errorf(e.Pos(), "array %s must be indexed", e.Name)
			return ast.Invalid
		}
		c.info.Objects[e.ID] = obj
		return obj.Type.Base
	case *ast.IndexExpr:
		obj := c.lookup(e.Name)
		if obj == nil {
			c.errorf(e.Pos(), "undefined: %s", e.Name)
			c.checkExpr(e.Index)
			return ast.Invalid
		}
		if obj.Kind == FuncObj || !obj.Type.IsArray() {
			c.errorf(e.Pos(), "%s is not an array", e.Name)
			c.checkExpr(e.Index)
			return ast.Invalid
		}
		c.info.Objects[e.ID] = obj
		it := c.checkExpr(e.Index)
		if it != ast.IntType && it != ast.Invalid {
			c.errorf(e.Index.Pos(), "array index must be int, found %s", it)
		}
		return obj.Type.Base
	case *ast.CallExpr:
		obj := c.lookup(e.Name)
		if obj == nil {
			c.errorf(e.Pos(), "undefined function: %s", e.Name)
			for _, a := range e.Args {
				c.checkExpr(a)
			}
			return ast.Invalid
		}
		if obj.Kind != FuncObj {
			c.errorf(e.Pos(), "%s is not a function", e.Name)
			for _, a := range e.Args {
				c.checkExpr(a)
			}
			return ast.Invalid
		}
		c.info.Objects[e.ID] = obj
		sig := obj.Sig
		if len(e.Args) != len(sig.Params) {
			c.errorf(e.Pos(), "%s expects %d arguments, got %d", e.Name, len(sig.Params), len(e.Args))
		}
		for i, a := range e.Args {
			at := c.checkExpr(a)
			if i < len(sig.Params) {
				c.assignable(a.Pos(), sig.Params[i], at, "argument")
			}
		}
		return sig.Result
	case *ast.BinaryExpr:
		xt := c.checkExpr(e.X)
		yt := c.checkExpr(e.Y)
		return c.binaryType(e, xt, yt)
	case *ast.UnaryExpr:
		xt := c.checkExpr(e.X)
		if xt == ast.Invalid {
			return ast.Invalid
		}
		switch e.Op {
		case token.MINUS:
			return xt
		case token.NOT:
			if xt != ast.IntType {
				c.errorf(e.Pos(), "operator ! requires int, found %s", xt)
				return ast.Invalid
			}
			return ast.IntType
		}
		return ast.Invalid
	case *ast.CastExpr:
		xt := c.checkExpr(e.X)
		if xt == ast.VoidType {
			c.errorf(e.Pos(), "cannot cast void value")
			return ast.Invalid
		}
		return e.To
	}
	return ast.Invalid
}

func (c *checker) binaryType(e *ast.BinaryExpr, xt, yt ast.BaseType) ast.BaseType {
	if xt == ast.Invalid || yt == ast.Invalid {
		return ast.Invalid
	}
	if xt == ast.VoidType || yt == ast.VoidType {
		c.errorf(e.Pos(), "void value used as operand of %s", e.Op)
		return ast.Invalid
	}
	switch e.Op {
	case token.PLUS, token.MINUS, token.STAR, token.SLASH:
		if xt == ast.FloatType || yt == ast.FloatType {
			return ast.FloatType
		}
		return ast.IntType
	case token.PERCENT:
		if xt != ast.IntType || yt != ast.IntType {
			c.errorf(e.Pos(), "operator %% requires int operands")
			return ast.Invalid
		}
		return ast.IntType
	case token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE:
		// Comparisons promote and yield int.
		return ast.IntType
	case token.AND, token.OR:
		if xt != ast.IntType || yt != ast.IntType {
			c.errorf(e.Pos(), "operator %s requires int operands", e.Op)
			return ast.Invalid
		}
		return ast.IntType
	}
	c.errorf(e.Pos(), "invalid binary operator %s", e.Op)
	return ast.Invalid
}
