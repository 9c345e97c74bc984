// Package irbuild lowers a type-checked MC AST into the IR of package
// ir. Scalar locals and parameters become virtual registers; global
// scalars and all arrays become memory symbols accessed with explicit
// loads and stores, which is how the register-allocation problem the
// paper studies is set up: every scalar computation value is a live
// range competing for registers.
package irbuild

import (
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/token"
	"repro/internal/types"
)

// Build lowers prog to IR. The info must come from a successful
// types.Check of the same program.
func Build(prog *ast.Program, info *types.Info) (*ir.Program, error) {
	b := &builder{
		info:    info,
		out:     &ir.Program{},
		symbols: make([]*ir.Symbol, prog.MaxID+1),
		vars:    make([]ir.Reg, prog.MaxID+1),
		scratch: scratchPool.Get().(*scratch),
	}
	defer scratchPool.Put(b.scratch)
	if err := b.globals(prog); err != nil {
		return nil, err
	}
	for i, fd := range prog.Funcs {
		// The parser numbers nodes in source order, so a function's
		// nodes take about the IDs up to the next function's; lowering
		// emits about one instruction per node.
		nodes := prog.MaxID - fd.ID
		if i+1 < len(prog.Funcs) {
			nodes = prog.Funcs[i+1].ID - fd.ID
		}
		if err := b.function(fd, int(nodes)); err != nil {
			return nil, err
		}
	}
	if err := b.out.Validate(); err != nil {
		return nil, fmt.Errorf("irbuild produced invalid IR: %w", err)
	}
	return b.out, nil
}

type builder struct {
	info *types.Info
	out  *ir.Program
	// symbols and vars are indexed by the ID of the declaring node
	// (see declID): the memory symbol of each global and local array,
	// and the register of each scalar local and parameter.
	symbols []*ir.Symbol
	vars    []ir.Reg

	// Per-function state. cur is the block being appended to.
	fn    *ir.Func
	cur   int
	loops []loopCtx
	// exprEpoch numbers the top-level expression being lowered (0 when
	// none is); see scratch.tempEpoch.
	exprEpoch, lastEpoch uint32

	*scratch
}

// scratch is the builder's working storage, reused by every function
// and, through scratchPool, by every Build; finish copies a function
// out of it at its exact size. Buffers may keep stale values past their
// length until the next function overwrites them.
type scratch struct {
	// code holds the function's instructions in the order they are
	// emitted, and owner[i] the block code[i] belongs to; last[blk] is
	// the index in code of block blk's last instruction, or -1 while it
	// has none. Lowering goes back to earlier blocks (a loop's condition
	// block, the ends of an if's arms), so a block's instructions need
	// not be contiguous in code; finish gathers them.
	code  []ir.Instr
	owner []int32
	last  []int32
	// operands holds the Args of every instruction.
	operands []ir.Reg
	// callArgs is a stack of the arguments of the calls being lowered.
	callArgs []ir.Reg
	// The function's registers: class, debug name, and the epoch of
	// the top-level expression whose lowering created it as a
	// temporary (0 for any other register). A temporary of the current
	// expression may be retargeted, which avoids a move for "x = a + b".
	regClass  []ir.Class
	regName   []string
	tempEpoch []uint32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

type loopCtx struct {
	breakTo    int
	continueTo int
}

func classOf(t ast.BaseType) ir.Class {
	if t == ast.FloatType {
		return ir.ClassFloat
	}
	return ir.ClassInt
}

// ---------------------------------------------------------------------
// Globals

func (b *builder) globals(prog *ast.Program) error {
	vals := make(map[*types.Object]constVal)
	for _, g := range prog.Globals {
		obj := b.info.Objects[g.ID]
		if obj == nil {
			return fmt.Errorf("missing object for global %s", g.Name)
		}
		sym := &ir.Symbol{
			Name:  g.Name,
			Class: classOf(g.Type.Base),
			Size:  g.Type.ArrayLen,
		}
		if g.Init != nil {
			v, err := b.evalConst(g.Init, vals)
			if err != nil {
				return err
			}
			v = v.convert(classOf(g.Type.Base))
			sym.InitInt = v.i
			sym.InitFloat = v.f
			vals[obj] = v
		} else {
			vals[obj] = constVal{class: sym.Class}
		}
		b.symbols[g.ID] = sym
		b.out.Globals = append(b.out.Globals, sym)
	}
	return nil
}

// constVal is a compile-time constant for global initializers.
type constVal struct {
	class ir.Class
	i     int64
	f     float64
}

func (v constVal) convert(to ir.Class) constVal {
	if v.class == to {
		return v
	}
	if to == ir.ClassFloat {
		return constVal{class: to, f: float64(v.i)}
	}
	return constVal{class: to, i: int64(v.f)}
}

func (b *builder) evalConst(e ast.Expr, vals map[*types.Object]constVal) (constVal, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return constVal{class: ir.ClassInt, i: e.Value}, nil
	case *ast.FloatLit:
		return constVal{class: ir.ClassFloat, f: e.Value}, nil
	case *ast.Ident:
		obj := b.info.Objects[e.ID]
		if v, ok := vals[obj]; ok {
			return v, nil
		}
		return constVal{}, fmt.Errorf("%s: global initializer references %s before its definition", e.Pos(), e.Name)
	case *ast.UnaryExpr:
		v, err := b.evalConst(e.X, vals)
		if err != nil {
			return constVal{}, err
		}
		switch e.Op {
		case token.MINUS:
			if v.class == ir.ClassFloat {
				return constVal{class: v.class, f: -v.f}, nil
			}
			return constVal{class: v.class, i: -v.i}, nil
		case token.NOT:
			if v.i == 0 {
				return constVal{class: ir.ClassInt, i: 1}, nil
			}
			return constVal{class: ir.ClassInt, i: 0}, nil
		}
	case *ast.CastExpr:
		v, err := b.evalConst(e.X, vals)
		if err != nil {
			return constVal{}, err
		}
		return v.convert(classOf(e.To)), nil
	case *ast.BinaryExpr:
		x, err := b.evalConst(e.X, vals)
		if err != nil {
			return constVal{}, err
		}
		y, err := b.evalConst(e.Y, vals)
		if err != nil {
			return constVal{}, err
		}
		return constBinary(e, x, y)
	}
	return constVal{}, fmt.Errorf("%s: unsupported expression in global initializer", e.Pos())
}

func constBinary(e *ast.BinaryExpr, x, y constVal) (constVal, error) {
	isFloat := x.class == ir.ClassFloat || y.class == ir.ClassFloat
	boolVal := func(ok bool) (constVal, error) {
		if ok {
			return constVal{class: ir.ClassInt, i: 1}, nil
		}
		return constVal{class: ir.ClassInt, i: 0}, nil
	}
	if isFloat {
		xf, yf := x.convert(ir.ClassFloat).f, y.convert(ir.ClassFloat).f
		switch e.Op {
		case token.PLUS:
			return constVal{class: ir.ClassFloat, f: xf + yf}, nil
		case token.MINUS:
			return constVal{class: ir.ClassFloat, f: xf - yf}, nil
		case token.STAR:
			return constVal{class: ir.ClassFloat, f: xf * yf}, nil
		case token.SLASH:
			if yf == 0 {
				return constVal{}, fmt.Errorf("%s: division by zero in global initializer", e.Pos())
			}
			return constVal{class: ir.ClassFloat, f: xf / yf}, nil
		case token.EQ:
			return boolVal(xf == yf)
		case token.NE:
			return boolVal(xf != yf)
		case token.LT:
			return boolVal(xf < yf)
		case token.LE:
			return boolVal(xf <= yf)
		case token.GT:
			return boolVal(xf > yf)
		case token.GE:
			return boolVal(xf >= yf)
		}
		return constVal{}, fmt.Errorf("%s: invalid float operator in global initializer", e.Pos())
	}
	xi, yi := x.i, y.i
	switch e.Op {
	case token.PLUS:
		return constVal{class: ir.ClassInt, i: xi + yi}, nil
	case token.MINUS:
		return constVal{class: ir.ClassInt, i: xi - yi}, nil
	case token.STAR:
		return constVal{class: ir.ClassInt, i: xi * yi}, nil
	case token.SLASH:
		if yi == 0 {
			return constVal{}, fmt.Errorf("%s: division by zero in global initializer", e.Pos())
		}
		return constVal{class: ir.ClassInt, i: xi / yi}, nil
	case token.PERCENT:
		if yi == 0 {
			return constVal{}, fmt.Errorf("%s: division by zero in global initializer", e.Pos())
		}
		return constVal{class: ir.ClassInt, i: xi % yi}, nil
	case token.EQ:
		return boolVal(xi == yi)
	case token.NE:
		return boolVal(xi != yi)
	case token.LT:
		return boolVal(xi < yi)
	case token.LE:
		return boolVal(xi <= yi)
	case token.GT:
		return boolVal(xi > yi)
	case token.GE:
		return boolVal(xi >= yi)
	case token.AND:
		return boolVal(xi != 0 && yi != 0)
	case token.OR:
		return boolVal(xi != 0 || yi != 0)
	}
	return constVal{}, fmt.Errorf("%s: invalid operator in global initializer", e.Pos())
}

// ---------------------------------------------------------------------
// Functions

// function lowers fd, whose body holds about nodes AST nodes.
func (b *builder) function(fd *ast.FuncDecl, nodes int) error {
	fn := &ir.Func{Name: fd.Name}
	if fd.Result != ast.VoidType {
		fn.HasResult = true
		fn.ResultClass = classOf(fd.Result)
	}
	b.fn = fn
	b.loops = b.loops[:0]
	if cap(b.code) < nodes {
		b.code, b.owner = make([]ir.Instr, 0, nodes), make([]int32, 0, nodes)
	}
	b.code, b.owner, b.last = b.code[:0], b.owner[:0], b.last[:0]
	b.operands = b.operands[:0]
	b.regClass, b.regName, b.tempEpoch = b.regClass[:0], b.regName[:0], b.tempEpoch[:0]
	b.cur = b.newBlock()

	if len(fd.Params) > 0 {
		fn.Params = make([]ir.Reg, len(fd.Params))
		for i, p := range fd.Params {
			r := b.newReg(classOf(p.Type), p.Name)
			fn.Params[i] = r
			b.vars[p.ID] = r
		}
	}

	b.stmtList(fd.Body.List)

	// Fall-off-the-end: supply an implicit return.
	if b.terminator(b.cur) == nil {
		b.implicitReturn()
	}
	b.finish(b.pruneUnreachable())
	b.out.AddFunc(fn)
	return nil
}

// pruneUnreachable finds the blocks reachable from the entry block and
// returns their new IDs: remap[blk] is block blk's, or -1 when it is
// dropped, and kept is how many stay. Lowering of break/return inside
// nested control flow can leave empty unreachable blocks behind.
func (b *builder) pruneUnreachable() (remap []int, kept int) {
	f := b.fn
	n := len(b.last)
	// Unterminated unreachable blocks would fail validation; terminate
	// them before reachability so their successors are known, then
	// drop them.
	for blk := 0; blk < n; blk++ {
		if b.terminator(blk) != nil {
			continue
		}
		if !f.HasResult {
			b.appendTo(blk, ir.Instr{Op: ir.OpRet, Dst: ir.NoReg})
			continue
		}
		// Cannot synthesize a value here without a register; mark
		// unreachable returns as returning a fresh zero.
		z := b.newReg(f.ResultClass, "")
		op := ir.OpConstInt
		if f.ResultClass == ir.ClassFloat {
			op = ir.OpConstFloat
		}
		b.appendTo(blk, ir.Instr{Op: op, Dst: z})
		b.appendTo(blk, ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, Args: b.args(z)})
	}

	reach := make([]bool, n)
	stack := []int{0}
	reach[0] = true
	visit := func(s int) {
		if !reach[s] {
			reach[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		t := &b.code[b.last[stack[len(stack)-1]]]
		stack = stack[:len(stack)-1]
		switch t.Op {
		case ir.OpJmp:
			visit(t.Then)
		case ir.OpBr:
			visit(t.Then)
			visit(t.Else)
		}
	}
	remap = make([]int, n)
	for blk := range remap {
		remap[blk] = -1
		if reach[blk] {
			remap[blk] = kept
			kept++
		}
	}
	return remap, kept
}

// finish gives the current function its registers and its kept blocks
// (see pruneUnreachable), renumbered and with branch targets fixed. It
// copies them out of the builder's scratch into exactly sized arrays of
// the function's own, each block's instructions in the order they were
// emitted.
func (b *builder) finish(remap []int, kept int) {
	f := b.fn
	f.NewRegs(b.regClass, b.regName)
	size := make([]int, kept)
	nArgs := 0
	for i, o := range b.owner {
		if k := remap[o]; k >= 0 {
			size[k]++
			nArgs += len(b.code[i].Args)
		}
	}
	blocks := make([]ir.Block, kept)
	f.Blocks = make([]*ir.Block, kept)
	for k := range blocks {
		blocks[k] = ir.Block{ID: k, Instrs: make([]ir.Instr, 0, size[k])}
		f.Blocks[k] = &blocks[k]
	}
	operands := make([]ir.Reg, nArgs)
	off := 0
	for i, o := range b.owner {
		k := remap[o]
		if k < 0 {
			continue
		}
		blk := &blocks[k]
		blk.Instrs = append(blk.Instrs, b.code[i])
		in := &blk.Instrs[len(blk.Instrs)-1]
		a := copy(operands[off:], in.Args)
		in.Args = operands[off : off+a : off+a]
		off += a
	}
	for k := range blocks {
		t := &blocks[k].Instrs[size[k]-1]
		switch t.Op {
		case ir.OpJmp:
			t.Then = remap[t.Then]
		case ir.OpBr:
			t.Then = remap[t.Then]
			t.Else = remap[t.Else]
		}
	}
	// Drop the scratch's references to this program's symbols and
	// source text (register names and callees are slices of it), so a
	// pooled builder does not keep a large request alive.
	clear(b.code)
	clear(b.regName)
}

// declID returns the ID of the node that declares obj, a variable or
// parameter.
func declID(obj *types.Object) ast.ID {
	switch d := obj.Decl.(type) {
	case *ast.VarDecl:
		return d.ID
	case *ast.Param:
		return d.ID
	}
	return 0
}

func (b *builder) implicitReturn() {
	if !b.fn.HasResult {
		b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg})
		return
	}
	z := b.zero(b.fn.ResultClass)
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, Args: b.args(z)})
}

func (b *builder) zero(c ir.Class) ir.Reg {
	t := b.temp(c)
	if c == ir.ClassFloat {
		b.emit(ir.Instr{Op: ir.OpConstFloat, Dst: t})
	} else {
		b.emit(ir.Instr{Op: ir.OpConstInt, Dst: t})
	}
	return t
}

// emit appends in to the current block and returns its index in
// b.code, where a branch's targets are patched once they exist.
func (b *builder) emit(in ir.Instr) int { return b.appendTo(b.cur, in) }

// appendTo appends in to block blk and returns its index in b.code.
func (b *builder) appendTo(blk int, in ir.Instr) int {
	if in.Args == nil {
		in.Args = []ir.Reg{}
	}
	b.code = append(b.code, in)
	b.owner = append(b.owner, int32(blk))
	i := len(b.code) - 1
	b.last[blk] = int32(i)
	return i
}

// terminator returns block blk's final instruction when it ends the
// block, and nil otherwise.
func (b *builder) terminator(blk int) *ir.Instr {
	i := b.last[blk]
	if i < 0 || !b.code[i].IsTerminator() {
		return nil
	}
	return &b.code[i]
}

// args returns regs as an instruction's operand list, stored in the
// builder's operand scratch until finish copies it out.
func (b *builder) args(regs ...ir.Reg) []ir.Reg {
	start := len(b.operands)
	b.operands = append(b.operands, regs...)
	return b.operands[start:len(b.operands):len(b.operands)]
}

// newReg allocates a fresh virtual register of the current function.
func (b *builder) newReg(c ir.Class, name string) ir.Reg {
	r := ir.Reg(len(b.regClass))
	b.regClass = append(b.regClass, c)
	b.regName = append(b.regName, name)
	b.tempEpoch = append(b.tempEpoch, 0)
	return r
}

// temp allocates a compiler temporary, marked as the current top-level
// expression's.
func (b *builder) temp(c ir.Class) ir.Reg {
	r := b.newReg(c, "")
	b.tempEpoch[r] = b.exprEpoch
	return r
}

// newBlock adds a fresh empty block to the current function and
// returns its ID.
func (b *builder) newBlock() int {
	b.last = append(b.last, -1)
	return len(b.last) - 1
}

// startBlock makes a fresh block current. The caller is responsible for
// having terminated the previous one (or accepting that it becomes
// unreachable and is pruned).
func (b *builder) startBlock() int {
	b.cur = b.newBlock()
	return b.cur
}

// jumpTo terminates the current block with a jump to target if it is not
// already terminated.
func (b *builder) jumpTo(target int) {
	if b.terminator(b.cur) == nil {
		b.emit(ir.Instr{Op: ir.OpJmp, Dst: ir.NoReg, Then: target})
	}
}

// ---------------------------------------------------------------------
// Statements

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.DeclStmt:
		b.declStmt(s.Decl)
	case *ast.AssignStmt:
		b.assign(s)
	case *ast.ExprStmt:
		b.exprStmtValue(s.X)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.WhileStmt:
		b.whileStmt(s)
	case *ast.DoWhileStmt:
		b.doWhileStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.ReturnStmt:
		b.returnStmt(s)
	case *ast.BreakStmt:
		if len(b.loops) > 0 {
			loopIdx := len(b.loops) - 1
			if b.terminator(b.cur) == nil {
				b.emit(ir.Instr{Op: ir.OpJmp, Dst: ir.NoReg, Then: breakSentinel - loopIdx})
			}
			b.startBlock()
		}
	case *ast.ContinueStmt:
		if len(b.loops) > 0 {
			b.jumpTo(b.loops[len(b.loops)-1].continueTo)
			b.startBlock()
		}
	}
}

func (b *builder) returnStmt(s *ast.ReturnStmt) {
	if s.Value == nil || !b.fn.HasResult {
		b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, Pos: s.Pos()})
	} else {
		v := b.exprValue(s.Value, b.fn.ResultClass)
		b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, Args: b.args(v), Pos: s.Pos()})
	}
	// Code following a return in the same block is unreachable; give it
	// a fresh block that pruning will remove if it stays empty.
	b.startBlock()
}

func (b *builder) declStmt(d *ast.VarDecl) {
	if d.Type.IsArray() {
		sym := &ir.Symbol{
			Name:  fmt.Sprintf("%s.%s.%d", b.fn.Name, d.Name, len(b.fn.Locals)),
			Class: classOf(d.Type.Base),
			Size:  d.Type.ArrayLen,
			Local: true,
		}
		b.fn.Locals = append(b.fn.Locals, sym)
		b.symbols[d.ID] = sym
		return
	}
	r := b.newReg(classOf(d.Type.Base), d.Name)
	b.vars[d.ID] = r
	if d.Init != nil {
		b.exprInto(r, d.Init, classOf(d.Type.Base))
	} else {
		// MC gives locals a defined zero value, keeping the language
		// deterministic for differential testing.
		if classOf(d.Type.Base) == ir.ClassFloat {
			b.emit(ir.Instr{Op: ir.OpConstFloat, Dst: r})
		} else {
			b.emit(ir.Instr{Op: ir.OpConstInt, Dst: r})
		}
	}
}

func (b *builder) assign(s *ast.AssignStmt) {
	obj := b.info.Objects[s.Target.ID]
	if obj == nil {
		return // checker already reported
	}
	targetClass := classOf(obj.Type.Base)
	if s.Target.Index != nil {
		sym := b.symbols[declID(obj)]
		idx := b.exprValue(s.Target.Index, ir.ClassInt)
		val := b.exprValue(s.Value, targetClass)
		b.emit(ir.Instr{Op: ir.OpStore, Dst: ir.NoReg, Sym: sym, Args: b.args(idx, val), Pos: s.Target.Pos()})
		return
	}
	switch obj.Kind {
	case types.GlobalVar:
		sym := b.symbols[declID(obj)]
		val := b.exprValue(s.Value, targetClass)
		b.emit(ir.Instr{Op: ir.OpStore, Dst: ir.NoReg, Sym: sym, Args: b.args(val), Pos: s.Target.Pos()})
	default:
		r := b.vars[declID(obj)]
		b.exprInto(r, s.Value, targetClass)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	cond := b.exprValue(s.Cond, ir.ClassInt)
	br := b.emit(ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, Args: b.args(cond)})

	thenBlk := b.startBlock()
	b.stmtList(s.Then.List)
	thenEnd := b.cur

	elseBlk, elseEnd := -1, -1
	if s.Else != nil {
		elseBlk = b.startBlock()
		b.stmt(s.Else)
		elseEnd = b.cur
	}

	join := b.startBlock()
	b.code[br].Then = thenBlk
	if elseBlk >= 0 {
		b.code[br].Else = elseBlk
	} else {
		b.code[br].Else = join
	}
	terminateInto := func(blk int) {
		if b.terminator(blk) == nil {
			b.appendTo(blk, ir.Instr{Op: ir.OpJmp, Dst: ir.NoReg, Then: join})
		}
	}
	terminateInto(thenEnd)
	if elseEnd >= 0 {
		terminateInto(elseEnd)
	}
}

func (b *builder) whileStmt(s *ast.WhileStmt) {
	condBlk := b.newBlock()
	b.jumpTo(condBlk)
	b.cur = condBlk
	cond := b.exprValue(s.Cond, ir.ClassInt)
	br := b.emit(ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, Args: b.args(cond)})

	body := b.startBlock()
	b.loops = append(b.loops, loopCtx{breakTo: -1, continueTo: condBlk})
	loopIdx := len(b.loops) - 1
	b.stmtList(s.Body.List)
	b.jumpTo(condBlk)

	exit := b.startBlock()
	b.code[br].Then = body
	b.code[br].Else = exit
	b.patchBreaks(loopIdx, exit)
	b.loops = b.loops[:loopIdx]
}

func (b *builder) doWhileStmt(s *ast.DoWhileStmt) {
	body := b.newBlock()
	b.jumpTo(body)
	b.cur = body

	condBlk := b.newBlock()
	b.loops = append(b.loops, loopCtx{breakTo: -1, continueTo: condBlk})
	loopIdx := len(b.loops) - 1
	b.stmtList(s.Body.List)
	b.jumpTo(condBlk)

	b.cur = condBlk
	cond := b.exprValue(s.Cond, ir.ClassInt)
	br := b.emit(ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, Args: b.args(cond)})

	exit := b.startBlock()
	b.code[br].Then = body
	b.code[br].Else = exit
	b.patchBreaks(loopIdx, exit)
	b.loops = b.loops[:loopIdx]
}

func (b *builder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.assign(s.Init)
	}
	condBlk := b.newBlock()
	b.jumpTo(condBlk)
	b.cur = condBlk

	br := -1
	if s.Cond != nil {
		cond := b.exprValue(s.Cond, ir.ClassInt)
		br = b.emit(ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, Args: b.args(cond)})
	}

	body := b.startBlock()
	if s.Cond == nil {
		// condBlk just falls through to body.
		b.appendTo(condBlk, ir.Instr{Op: ir.OpJmp, Dst: ir.NoReg, Then: body})
	}

	// The post block is the continue target.
	postBlk := b.newBlock()
	b.loops = append(b.loops, loopCtx{breakTo: -1, continueTo: postBlk})
	loopIdx := len(b.loops) - 1
	b.stmtList(s.Body.List)
	b.jumpTo(postBlk)

	b.cur = postBlk
	if s.Post != nil {
		b.assign(s.Post)
	}
	b.jumpTo(condBlk)

	exit := b.startBlock()
	if br >= 0 {
		b.code[br].Then = body
		b.code[br].Else = exit
	}
	b.patchBreaks(loopIdx, exit)
	b.loops = b.loops[:loopIdx]
}

// patchBreaks rewires the placeholder jumps emitted for break statements
// of loop loopIdx to the loop's exit block. Break jumps are emitted with
// target breakTo==-1 recorded in the loop context; since the exit block
// does not exist while the body is being lowered, break emits a jump to
// a sentinel that is fixed here.
func (b *builder) patchBreaks(loopIdx, exitID int) {
	for i := range b.code {
		in := &b.code[i]
		if in.Op == ir.OpJmp && in.Then == breakSentinel-loopIdx {
			in.Then = exitID
		}
	}
}

// breakSentinel encodes "break from loop i" as the out-of-range block id
// breakSentinel-i until patched.
const breakSentinel = -1000
