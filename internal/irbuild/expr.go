package irbuild

import (
	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/token"
	"repro/internal/types"
)

// exprValue lowers e and returns a register of class want, inserting a
// conversion when the expression's own class differs.
func (b *builder) exprValue(e ast.Expr, want ir.Class) ir.Reg {
	outer := b.exprEpoch == 0
	if outer {
		b.beginExpr()
	}
	r := b.convert(b.lower(e), want, e)
	if outer {
		b.exprEpoch = 0
	}
	return r
}

// beginExpr starts a top-level expression: temporaries created until
// exprEpoch is reset to 0 may be retargeted.
func (b *builder) beginExpr() {
	b.lastEpoch++
	b.exprEpoch = b.lastEpoch
}

// exprInto lowers e into the existing register dst (of class want).
// When possible it retargets the instruction that produced the value,
// avoiding a move; otherwise it emits an explicit move. The moves that
// remain are exactly the copies the framework's coalescing phase exists
// to remove.
func (b *builder) exprInto(dst ir.Reg, e ast.Expr, want ir.Class) {
	outer := b.exprEpoch == 0
	if outer {
		b.beginExpr()
	}
	r := b.lower(e)
	r = b.convert(r, want, e)
	if !b.retarget(r, dst) {
		b.emit(ir.Instr{Op: ir.OpMove, Dst: dst, Args: b.args(r), Pos: e.Pos()})
	}
	if outer {
		b.exprEpoch = 0
	}
}

// retarget rewrites the defining instruction of r to write dst instead,
// when r is a temporary defined by the last instruction of the current
// block. It reports whether it succeeded.
func (b *builder) retarget(r, dst ir.Reg) bool {
	i := b.last[b.cur]
	if b.tempEpoch[r] != b.exprEpoch || i < 0 {
		return false
	}
	last := &b.code[i]
	if last.Dst != r {
		return false
	}
	last.Dst = dst
	return true
}

// exprStmtValue lowers a top-level expression statement (a call).
func (b *builder) exprStmtValue(e ast.Expr) {
	b.beginExpr()
	if call, ok := e.(*ast.CallExpr); ok {
		b.lowerCall(call, false)
	} else {
		b.lower(e)
	}
	b.exprEpoch = 0
}

// convert inserts an int<->float conversion when needed.
func (b *builder) convert(r ir.Reg, want ir.Class, e ast.Expr) ir.Reg {
	have := b.regClass[r]
	if have == want {
		return r
	}
	t := b.temp(want)
	op := ir.OpI2F
	if want == ir.ClassInt {
		op = ir.OpF2I
	}
	b.emit(ir.Instr{Op: op, Dst: t, Args: b.args(r), Pos: e.Pos()})
	return t
}

func (b *builder) lower(e ast.Expr) ir.Reg {
	switch e := e.(type) {
	case *ast.IntLit:
		t := b.temp(ir.ClassInt)
		b.emit(ir.Instr{Op: ir.OpConstInt, Dst: t, IntVal: e.Value, Pos: e.Pos()})
		return t
	case *ast.FloatLit:
		t := b.temp(ir.ClassFloat)
		b.emit(ir.Instr{Op: ir.OpConstFloat, Dst: t, FloatVal: e.Value, Pos: e.Pos()})
		return t
	case *ast.Ident:
		obj := b.info.Objects[e.ID]
		if obj.Kind == types.GlobalVar {
			sym := b.symbols[declID(obj)]
			t := b.temp(sym.Class)
			b.emit(ir.Instr{Op: ir.OpLoad, Dst: t, Sym: sym, Pos: e.Pos()})
			return t
		}
		return b.vars[declID(obj)]
	case *ast.IndexExpr:
		obj := b.info.Objects[e.ID]
		sym := b.symbols[declID(obj)]
		idx := b.lowerTo(e.Index, ir.ClassInt)
		t := b.temp(sym.Class)
		b.emit(ir.Instr{Op: ir.OpLoad, Dst: t, Sym: sym, Args: b.args(idx), Pos: e.Pos()})
		return t
	case *ast.CallExpr:
		return b.lowerCall(e, true)
	case *ast.CastExpr:
		r := b.lower(e.X)
		return b.convert(r, classOf(e.To), e)
	case *ast.UnaryExpr:
		return b.lowerUnary(e)
	case *ast.BinaryExpr:
		return b.lowerBinary(e)
	}
	// Unreachable for type-checked programs; produce a defined value.
	t := b.temp(ir.ClassInt)
	b.emit(ir.Instr{Op: ir.OpConstInt, Dst: t})
	return t
}

// lowerTo lowers e and converts to class want.
func (b *builder) lowerTo(e ast.Expr, want ir.Class) ir.Reg {
	return b.convert(b.lower(e), want, e)
}

func (b *builder) lowerCall(e *ast.CallExpr, wantResult bool) ir.Reg {
	obj := b.info.Objects[e.ID]
	sig := obj.Sig
	// Nested calls push their arguments above these and pop them
	// before returning, so this call's arguments stay contiguous.
	mark := len(b.callArgs)
	for i, a := range e.Args {
		want := ir.ClassInt
		if i < len(sig.Params) {
			want = classOf(sig.Params[i])
		}
		r := b.lowerTo(a, want)
		b.callArgs = append(b.callArgs, r)
	}
	args := b.args(b.callArgs[mark:]...)
	b.callArgs = b.callArgs[:mark]
	dst := ir.NoReg
	if wantResult && sig.Result != ast.VoidType {
		dst = b.temp(classOf(sig.Result))
	}
	b.emit(ir.Instr{Op: ir.OpCall, Dst: dst, Callee: e.Name, Args: args, Pos: e.Pos()})
	if dst == ir.NoReg && wantResult {
		// Void call in value position — checker reported it; recover.
		z := b.temp(ir.ClassInt)
		b.emit(ir.Instr{Op: ir.OpConstInt, Dst: z})
		return z
	}
	return dst
}

func (b *builder) lowerUnary(e *ast.UnaryExpr) ir.Reg {
	switch e.Op {
	case token.MINUS:
		x := b.lower(e.X)
		c := b.regClass[x]
		t := b.temp(c)
		op := ir.OpNeg
		if c == ir.ClassFloat {
			op = ir.OpFNeg
		}
		b.emit(ir.Instr{Op: op, Dst: t, Args: b.args(x), Pos: e.Pos()})
		return t
	case token.NOT:
		x := b.lowerTo(e.X, ir.ClassInt)
		z := b.zero(ir.ClassInt)
		t := b.temp(ir.ClassInt)
		b.emit(ir.Instr{Op: ir.OpICmp, Cond: ir.CondEQ, Dst: t, Args: b.args(x, z), Pos: e.Pos()})
		return t
	}
	return b.lower(e.X)
}

func (b *builder) lowerBinary(e *ast.BinaryExpr) ir.Reg {
	switch e.Op {
	case token.AND, token.OR:
		return b.lowerShortCircuit(e)
	}
	xt := b.info.Types[e.X.NodeID()]
	yt := b.info.Types[e.Y.NodeID()]
	isFloat := xt == ast.FloatType || yt == ast.FloatType
	operand := ir.ClassInt
	if isFloat {
		operand = ir.ClassFloat
	}
	x := b.lowerTo(e.X, operand)
	y := b.lowerTo(e.Y, operand)

	if cond, isCmp := cmpCond(e.Op); isCmp {
		t := b.temp(ir.ClassInt)
		op := ir.OpICmp
		if isFloat {
			op = ir.OpFCmp
		}
		b.emit(ir.Instr{Op: op, Cond: cond, Dst: t, Args: b.args(x, y), Pos: e.Pos()})
		return t
	}

	t := b.temp(operand)
	var op ir.Op
	switch e.Op {
	case token.PLUS:
		op = ir.OpAdd
	case token.MINUS:
		op = ir.OpSub
	case token.STAR:
		op = ir.OpMul
	case token.SLASH:
		op = ir.OpDiv
	case token.PERCENT:
		op = ir.OpRem
	default:
		op = ir.OpAdd
	}
	if isFloat {
		switch op {
		case ir.OpAdd:
			op = ir.OpFAdd
		case ir.OpSub:
			op = ir.OpFSub
		case ir.OpMul:
			op = ir.OpFMul
		case ir.OpDiv:
			op = ir.OpFDiv
		}
	}
	b.emit(ir.Instr{Op: op, Dst: t, Args: b.args(x, y), Pos: e.Pos()})
	return t
}

func cmpCond(k token.Kind) (ir.Cond, bool) {
	switch k {
	case token.EQ:
		return ir.CondEQ, true
	case token.NE:
		return ir.CondNE, true
	case token.LT:
		return ir.CondLT, true
	case token.LE:
		return ir.CondLE, true
	case token.GT:
		return ir.CondGT, true
	case token.GE:
		return ir.CondGE, true
	}
	return 0, false
}

// lowerShortCircuit lowers && and || with control flow, preserving C
// semantics (the right operand is evaluated only when needed). The
// result register is 0 or 1.
func (b *builder) lowerShortCircuit(e *ast.BinaryExpr) ir.Reg {
	// The result register must not be an expression temp of the current
	// block for retargeting purposes: it is defined in two blocks.
	result := b.newReg(ir.ClassInt, "")

	x := b.lowerTo(e.X, ir.ClassInt)
	br := b.emit(ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, Args: b.args(x), Pos: e.Pos()})

	// rhs block: result = (y != 0)
	rhs := b.startBlock()
	y := b.lowerTo(e.Y, ir.ClassInt)
	z := b.zero(ir.ClassInt)
	b.emit(ir.Instr{Op: ir.OpICmp, Cond: ir.CondNE, Dst: result, Args: b.args(y, z), Pos: e.Pos()})
	rhsJmp := b.emit(ir.Instr{Op: ir.OpJmp, Dst: ir.NoReg})

	// short block: result = 0 (for &&) or 1 (for ||)
	short := b.startBlock()
	shortVal := int64(0)
	if e.Op == token.OR {
		shortVal = 1
	}
	b.emit(ir.Instr{Op: ir.OpConstInt, Dst: result, IntVal: shortVal, Pos: e.Pos()})
	shortJmp := b.emit(ir.Instr{Op: ir.OpJmp, Dst: ir.NoReg})

	join := b.startBlock()
	if e.Op == token.AND {
		b.code[br].Then = rhs
		b.code[br].Else = short
	} else {
		b.code[br].Then = short
		b.code[br].Else = rhs
	}
	b.code[rhsJmp].Then = join
	b.code[shortJmp].Then = join
	return result
}
