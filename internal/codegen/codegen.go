// Package codegen emits MIPS-flavored assembly for register-allocated
// programs: the final stage a compiler built on this allocator would
// ship. The output makes every cost the allocator reasoned about
// visible in the text — spill loads/stores against frame slots,
// caller-save saves/restores bracketing calls, callee-save
// saves/restores in prologue/epilogue — so a reader can audit an
// allocation decision by looking at the assembly.
//
// Register naming follows the MIPS convention adapted to the
// parameterized register file:
//
//	$t0..$tN    caller-save integer registers (allocated)
//	$s0..$sN    callee-save integer registers (allocated)
//	$ft*/$fs*   the float bank, same split
//	$a0..$a5    integer argument registers, $f12.. float arguments
//	$v0 / $fv0  integer / float results
//	$at, $fat   assembler temporaries (address computation)
//
// A few pseudo-instructions keep the text readable (li.s, seq/sne/...,
// mov.s); a real MIPS assembler expands each to a short fixed sequence.
// The output is documentation-quality assembly: semantics are executed
// and verified by the machine-level interpreter (package minterp), not
// by assembling this text.
package codegen

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/rewrite"
)

// Program emits assembly for every function of prog under plans (as
// produced by one Allocation), preceded by a data section for the
// globals. The text is appended into one buffer, and it is exactly
// Join(Data(prog), the Function texts of plans in sorted-name order):
// Data, Function and Program share one emitter, which keeps no state
// from one function to the next beyond its register-name table.
func Program(prog *ir.Program, plans map[string]*rewrite.FuncPlan, config machine.Config) string {
	names := make([]string, 0, len(plans))
	instrs := 0
	for name, plan := range plans {
		names = append(names, name)
		instrs += countInstrs(plan)
	}
	sort.Strings(names)
	e := newEmitter(config, 64*len(prog.Globals)+32*instrs+1024)
	e.data(prog)
	e.str(textHeader)
	for _, name := range names {
		e.function(plans[name])
	}
	return string(e.buf)
}

// Data emits the data section of prog: its globals.
func Data(prog *ir.Program) string {
	e := newEmitter(machine.Config{}, 64*len(prog.Globals)+16)
	e.data(prog)
	return string(e.buf)
}

// Function emits one allocated function under config, with the blank
// line that ends it in a program text.
func Function(plan *rewrite.FuncPlan, config machine.Config) string {
	e := newEmitter(config, 32*countInstrs(plan)+128)
	e.function(plan)
	return string(e.buf)
}

// Join assembles a program text from its data section and the texts of
// its functions in sorted-name order, as Program lays them out.
func Join(data string, funcs []string) string {
	n := len(data) + len(textHeader)
	for _, f := range funcs {
		n += len(f)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(data)
	b.WriteString(textHeader)
	for _, f := range funcs {
		b.WriteString(f)
	}
	return b.String()
}

// textHeader separates the data section from the functions.
const textHeader = "\n\t.text\n"

// countInstrs counts the instructions of plan's rewritten body, to size
// the text buffer: about 25-30 bytes of text per IR instruction.
func countInstrs(plan *rewrite.FuncPlan) int {
	n := 0
	for _, blk := range plan.Alloc.Fn.Blocks {
		n += len(blk.Instrs)
	}
	return n
}

// newEmitter returns an emitter for config with a text buffer of the
// given capacity.
func newEmitter(config machine.Config, capacity int) *emitter {
	e := &emitter{config: config, buf: make([]byte, 0, capacity)}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		e.regNames[c] = make([]string, config.Total(c)+1)
	}
	return e
}

// data appends the data section.
func (e *emitter) data(prog *ir.Program) {
	e.str("\t.data\n")
	for _, g := range prog.Globals {
		e.global(g)
	}
}

func (e *emitter) global(g *ir.Symbol) {
	switch {
	case g.IsArray():
		e.str(g.Name, ":\t.space ").num(g.Size*4).str("\t# ", g.Class.String(), "[").num(g.Size).str("]\n")
	case g.Class == ir.ClassFloat:
		e.str(g.Name, ":\t.float ")
		e.buf = strconv.AppendFloat(e.buf, g.InitFloat, 'g', -1, 64)
		e.str("\n")
	default:
		e.str(g.Name, ":\t.word ")
		e.buf = strconv.AppendInt(e.buf, g.InitInt, 10)
		e.str("\n")
	}
}

// RegName renders physical register pr of bank c under config. It is
// the only naming rule; NoPhysReg renders as $t-1 / $ft-1.
func RegName(config machine.Config, c ir.Class, pr machine.PhysReg) string {
	bank := "$"
	if c == ir.ClassFloat {
		bank = "$f"
	}
	if config.IsCallerSave(c, pr) {
		return bank + "t" + strconv.Itoa(int(pr))
	}
	return bank + "s" + strconv.Itoa(int(pr)-config.Caller[c])
}

// frame lays out a function's stack frame: spill slots and local
// arrays, the callee-save area, and per-call caller-save areas (one
// shared area sized for the largest call).
type frame struct {
	size      int
	slotOff   map[*ir.Symbol]int
	calleeOff int // start of the callee-save area
	callerOff int // start of the caller-save area
	raOff     int
}

func layoutFrame(plan *rewrite.FuncPlan) *frame {
	f := &frame{slotOff: make(map[*ir.Symbol]int)}
	off := 0
	for _, l := range plan.Alloc.Fn.Locals {
		f.slotOff[l] = off
		n := l.Size
		if n == 0 {
			n = 1
		}
		off += n * 4
	}
	f.calleeOff = off
	off += 4 * (len(plan.CalleeUsed[ir.ClassInt]) + len(plan.CalleeUsed[ir.ClassFloat]))
	maxSave := 0
	for _, cs := range plan.CallSaves {
		if n := cs.Count(); n > maxSave {
			maxSave = n
		}
	}
	f.callerOff = off
	off += 4 * maxSave
	f.raOff = off
	off += 4
	// Align to 8.
	f.size = (off + 7) &^ 7
	return f
}

// emitter appends assembly text into buf.
type emitter struct {
	buf    []byte
	config machine.Config
	// regNames[c][pr+1] names register pr of bank c once it has been
	// named; index 0 is NoPhysReg.
	regNames [ir.NumClasses][]string

	// The function being emitted.
	plan  *rewrite.FuncPlan
	fn    *ir.Func
	frame *frame
}

// Mnemonics indexed by register class, operation or condition; the IR
// validator keeps every class and condition in range.
var (
	storeOps = [ir.NumClasses]string{"sw", "s.s"}
	loadOps  = [ir.NumClasses]string{"lw", "l.s"}
	moveOps  = [ir.NumClasses]string{"move", "mov.s"}
	arithOps = [...]string{
		ir.OpAdd: "addu", ir.OpSub: "subu", ir.OpMul: "mul", ir.OpDiv: "div", ir.OpRem: "rem",
		ir.OpFAdd: "add.s", ir.OpFSub: "sub.s", ir.OpFMul: "mul.s", ir.OpFDiv: "div.s",
	}
	icmpOps = [...]string{
		ir.CondEQ: "seq", ir.CondNE: "sne", ir.CondLT: "slt",
		ir.CondLE: "sle", ir.CondGT: "sgt", ir.CondGE: "sge",
	}
	fcmpOps = [...]string{
		ir.CondEQ: "seq.s", ir.CondNE: "sne.s", ir.CondLT: "slt.s",
		ir.CondLE: "sle.s", ir.CondGT: "sgt.s", ir.CondGE: "sge.s",
	}
)

// str appends text.
func (e *emitter) str(parts ...string) *emitter {
	for _, p := range parts {
		e.buf = append(e.buf, p...)
	}
	return e
}

// num appends a decimal integer.
func (e *emitter) num(v int) *emitter {
	e.buf = strconv.AppendInt(e.buf, int64(v), 10)
	return e
}

// ins appends one instruction line: the mnemonic, then the operands
// separated by ", ".
func (e *emitter) ins(op string, operands ...string) {
	e.buf = append(e.buf, '\t')
	e.buf = append(e.buf, op...)
	for i, o := range operands {
		if i == 0 {
			e.buf = append(e.buf, ' ')
		} else {
			e.buf = append(e.buf, ", "...)
		}
		e.buf = append(e.buf, o...)
	}
	e.buf = append(e.buf, '\n')
}

// label appends the label of block id.
func (e *emitter) label(id int) *emitter {
	return e.str(".L", e.fn.Name, "_").num(id)
}

// name returns the name of physical register pr of bank c, building it
// on first use.
func (e *emitter) name(c ir.Class, pr machine.PhysReg) string {
	i := int(pr) + 1
	if i < 0 || i >= len(e.regNames[c]) {
		return RegName(e.config, c, pr)
	}
	if e.regNames[c][i] == "" {
		e.regNames[c][i] = RegName(e.config, c, pr)
	}
	return e.regNames[c][i]
}

func (e *emitter) reg(r ir.Reg) string {
	return e.name(e.fn.RegClass(r), e.plan.Alloc.Colors[r])
}

// stack appends one store or load per register of regs, int bank
// first, at consecutive words from off: ops[c] is the mnemonic for
// bank c.
func (e *emitter) stack(ops [ir.NumClasses]string, regs *[ir.NumClasses][]machine.PhysReg, off int, comment string) {
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		for _, pr := range regs[c] {
			e.str("\t", ops[c], " ", e.name(c, pr), ", ").num(off).str("($sp)", comment, "\n")
			off += 4
		}
	}
}

// function appends one function and the blank line that ends it.
func (e *emitter) function(plan *rewrite.FuncPlan) {
	e.plan, e.fn, e.frame = plan, plan.Alloc.Fn, layoutFrame(plan)
	fn := e.fn
	e.str("\t.globl ", fn.Name, "\n", fn.Name, ":\n")

	// Prologue: frame, return address, callee-save area, arguments.
	e.str("\taddiu $sp, $sp, -").num(e.frame.size).str("\n\tsw $ra, ").num(e.frame.raOff).str("($sp)\n")
	e.stack(storeOps, &plan.CalleeUsed, e.frame.calleeOff, "\t# callee-save")
	ai, af := 0, 0
	for _, p := range fn.Params {
		assigned := plan.Alloc.Colors[p] != machine.NoPhysReg
		if fn.RegClass(p) == ir.ClassFloat {
			if assigned {
				e.str("\tmov.s ", e.reg(p), ", $f").num(12 + af).str("\n")
			}
			af++
		} else {
			if assigned {
				e.str("\tmove ", e.reg(p), ", $a").num(ai).str("\n")
			}
			ai++
		}
	}

	for _, blk := range fn.Blocks {
		e.label(blk.ID).str(":\n")
		for i := range blk.Instrs {
			e.instr(blk, i, &blk.Instrs[i])
		}
	}
	e.str("\n")
}

func (e *emitter) epilogue() {
	e.stack(loadOps, &e.plan.CalleeUsed, e.frame.calleeOff, "\t# callee-restore")
	e.str("\tlw $ra, ").num(e.frame.raOff).str("($sp)\n\taddiu $sp, $sp, ").num(e.frame.size).str("\n\tjr $ra\n")
}

// index appends the address arithmetic of an array access: the index
// scaled into $at, plus $sp for a frame array.
func (e *emitter) index(in *ir.Instr) {
	if !in.Sym.IsArray() {
		return
	}
	e.ins("sll", "$at", e.reg(in.Args[0]), "2")
	if in.Sym.Local {
		e.ins("addu", "$at", "$at", "$sp")
	}
}

// mem ends the line of a load or store: its memory operand and spill
// annotation.
func (e *emitter) mem(in *ir.Instr) {
	sym := in.Sym
	switch {
	case sym.Local && sym.IsArray():
		e.num(e.frame.slotOff[sym]).str("($at)")
	case sym.Local:
		e.num(e.frame.slotOff[sym]).str("($sp)")
	case sym.IsArray():
		e.str(sym.Name, "($at)")
	default:
		e.str(sym.Name)
	}
	if sym.Spill {
		e.str("\t# spill")
	}
	e.str("\n")
}

func (e *emitter) instr(blk *ir.Block, idx int, in *ir.Instr) {
	switch in.Op {
	case ir.OpNop:
		e.ins("nop")
	case ir.OpConstInt:
		e.str("\tli ", e.reg(in.Dst), ", ")
		e.buf = strconv.AppendInt(e.buf, in.IntVal, 10)
		e.str("\n")
	case ir.OpConstFloat:
		e.str("\tli.s ", e.reg(in.Dst), ", ")
		e.buf = strconv.AppendFloat(e.buf, in.FloatVal, 'g', -1, 64)
		e.str("\n")
	case ir.OpMove:
		dst, src := e.reg(in.Dst), e.reg(in.Args[0])
		if dst == src {
			return // coalesced away
		}
		e.ins(moveOps[e.fn.RegClass(in.Dst)], dst, src)
	case ir.OpI2F:
		dst := e.reg(in.Dst)
		e.ins("mtc1", e.reg(in.Args[0]), dst)
		e.ins("cvt.s.w", dst, dst)
	case ir.OpF2I:
		e.ins("trunc.w.s", "$fat", e.reg(in.Args[0]))
		e.ins("mfc1", e.reg(in.Dst), "$fat")
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		e.ins(arithOps[in.Op], e.reg(in.Dst), e.reg(in.Args[0]), e.reg(in.Args[1]))
	case ir.OpNeg:
		e.ins("negu", e.reg(in.Dst), e.reg(in.Args[0]))
	case ir.OpFNeg:
		e.ins("neg.s", e.reg(in.Dst), e.reg(in.Args[0]))
	case ir.OpICmp:
		e.ins(icmpOps[in.Cond], e.reg(in.Dst), e.reg(in.Args[0]), e.reg(in.Args[1]))
	case ir.OpFCmp:
		e.ins(fcmpOps[in.Cond], e.reg(in.Dst), e.reg(in.Args[0]), e.reg(in.Args[1]))
	case ir.OpLoad:
		e.index(in)
		e.str("\t", loadOps[in.Sym.Class], " ", e.reg(in.Dst), ", ")
		e.mem(in)
	case ir.OpStore:
		e.index(in)
		e.str("\t", storeOps[in.Sym.Class], " ", e.reg(in.Args[len(in.Args)-1]), ", ")
		e.mem(in)
	case ir.OpCall:
		e.call(blk, idx, in)
	case ir.OpRet:
		if len(in.Args) == 1 {
			if e.fn.ResultClass == ir.ClassFloat {
				e.ins("mov.s", "$fv0", e.reg(in.Args[0]))
			} else {
				e.ins("move", "$v0", e.reg(in.Args[0]))
			}
		}
		e.epilogue()
	case ir.OpBr:
		e.str("\tbnez ", e.reg(in.Args[0]), ", ").label(in.Then).str("\n\tj ").label(in.Else).str("\n")
	case ir.OpJmp:
		e.str("\tj ").label(in.Then).str("\n")
	}
}

func (e *emitter) call(blk *ir.Block, idx int, in *ir.Instr) {
	cs := e.plan.CallSaves[[2]int{blk.ID, idx}]
	if cs != nil {
		e.stack(storeOps, &cs.Regs, e.frame.callerOff, "\t# caller-save")
	}
	ai, af := 0, 0
	for _, a := range in.Args {
		if e.fn.RegClass(a) == ir.ClassFloat {
			e.str("\tmov.s $f").num(12+af).str(", ", e.reg(a), "\n")
			af++
		} else {
			e.str("\tmove $a").num(ai).str(", ", e.reg(a), "\n")
			ai++
		}
	}
	e.ins("jal", in.Callee)
	if cs != nil {
		e.stack(loadOps, &cs.Regs, e.frame.callerOff, "\t# caller-restore")
	}
	if in.HasDst() {
		if e.fn.RegClass(in.Dst) == ir.ClassFloat {
			e.ins("mov.s", e.reg(in.Dst), "$fv0")
		} else {
			e.ins("move", e.reg(in.Dst), "$v0")
		}
	}
}
