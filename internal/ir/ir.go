// Package ir defines the three-address intermediate representation that
// the register allocators operate on.
//
// The IR is deliberately close to what the paper's cmcc compiler exposes
// to its allocator: a control-flow graph of basic blocks over an
// unbounded set of typed virtual registers, split into two register
// classes (integer and float) matching the MIPS banks. Scalar locals and
// parameters live in virtual registers; arrays and global scalars live
// in memory and are accessed with explicit loads and stores.
//
// The IR is not SSA: virtual registers may be redefined, and a live
// range is a virtual register (coalescing may later merge several).
package ir

import (
	"fmt"
	"strings"

	"repro/internal/source"
)

// Class is a register class (bank).
type Class int

// The register classes: the MIPS-like target has an integer bank and a
// float bank that are allocated independently.
const (
	ClassInt Class = iota
	ClassFloat
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassInt:
		return "int"
	case ClassFloat:
		return "float"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Reg identifies a virtual register within a function. NoReg means
// "absent" (e.g. the destination of a void call).
type Reg int

// NoReg is the absent register.
const NoReg Reg = -1

// Op is an IR operation.
type Op int

// The IR operations.
const (
	OpNop Op = iota

	// Constants.
	OpConstInt   // dst = IntVal
	OpConstFloat // dst = FloatVal

	// Copies and conversions.
	OpMove // dst = arg0 (same class)
	OpI2F  // dst(float) = float(arg0(int))
	OpF2I  // dst(int) = int(arg0(float)), truncating

	// Integer arithmetic.
	OpAdd // dst = arg0 + arg1
	OpSub
	OpMul
	OpDiv
	OpRem
	OpNeg // dst = -arg0

	// Float arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg

	// Comparisons; both yield an int 0/1.
	OpICmp // dst = arg0 <Cond> arg1 over ints
	OpFCmp // dst = arg0 <Cond> arg1 over floats

	// Memory. Sym names a global scalar, global array, or local
	// (frame) array. Arrays take an index operand, scalars do not.
	OpLoad  // dst = Sym[arg0?]
	OpStore // Sym[arg0?] = argN (value is the last operand)

	// Calls and control flow.
	OpCall // dst? = Callee(args...)
	OpRet  // return arg0?
	OpBr   // if arg0 != 0 goto Then else goto Else
	OpJmp  // goto Then
)

var opNames = [...]string{
	OpNop: "nop", OpConstInt: "const", OpConstFloat: "fconst",
	OpMove: "move", OpI2F: "i2f", OpF2I: "f2i",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpNeg:  "neg",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpLoad: "load", OpStore: "store",
	OpCall: "call", OpRet: "ret", OpBr: "br", OpJmp: "jmp",
}

// String names the operation.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Cond is a comparison condition for OpICmp/OpFCmp.
type Cond int

// The comparison conditions.
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
)

// String renders the condition as its C operator.
func (c Cond) String() string {
	switch c {
	case CondEQ:
		return "=="
	case CondNE:
		return "!="
	case CondLT:
		return "<"
	case CondLE:
		return "<="
	case CondGT:
		return ">"
	case CondGE:
		return ">="
	}
	return "?"
}

// Symbol is a memory-resident object: a global scalar, a global array,
// or a local (frame-allocated) array.
type Symbol struct {
	Name  string
	Class Class // element class
	Size  int   // 0 = scalar, > 0 = array length
	Local bool  // true for frame arrays and spill slots
	// Spill marks stack slots introduced by spill-code insertion, so
	// the cost accounting can attribute their loads/stores to spill
	// overhead.
	Spill bool

	// InitInt/InitFloat give the initial value for global scalars.
	InitInt   int64
	InitFloat float64
}

// IsArray reports whether the symbol is an array (takes an index).
func (s *Symbol) IsArray() bool { return s.Size > 0 }

// Instr is one IR instruction. Which fields are meaningful depends on Op;
// Validate in this package enforces the shapes.
type Instr struct {
	Op       Op
	Dst      Reg
	Args     []Reg
	IntVal   int64
	FloatVal float64
	Cond     Cond
	Sym      *Symbol
	Callee   string
	Then     int // Br: taken target; Jmp: target
	Else     int // Br: fall-through target
	Pos      source.Pos
}

// HasDst reports whether the instruction defines a register.
func (in *Instr) HasDst() bool { return in.Dst != NoReg }

// IsTerminator reports whether the instruction ends a block.
func (in *Instr) IsTerminator() bool {
	switch in.Op {
	case OpRet, OpBr, OpJmp:
		return true
	}
	return false
}

// Block is a basic block. Blocks are identified by their index in
// Func.Blocks; the entry block is index 0.
type Block struct {
	ID     int
	Instrs []Instr
}

// Terminator returns the block's final instruction, or nil for a
// malformed empty/unterminated block.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	in := &b.Instrs[len(b.Instrs)-1]
	if !in.IsTerminator() {
		return nil
	}
	return in
}

// Succs returns the IDs of the block's successor blocks.
func (b *Block) Succs() []int {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpRet:
		return nil
	case OpJmp:
		return []int{t.Then}
	case OpBr:
		if t.Then == t.Else {
			return []int{t.Then}
		}
		return []int{t.Then, t.Else}
	}
	return nil
}

// Func is a function in IR form.
type Func struct {
	Name   string
	Params []Reg // parameter virtual registers, in declaration order
	// HasResult and ResultClass describe the return value.
	HasResult   bool
	ResultClass Class

	Blocks []*Block
	Locals []*Symbol // frame arrays

	regClass []Class
	regName  []string
}

// NumRegs returns the number of virtual registers allocated so far.
func (f *Func) NumRegs() int { return len(f.regClass) }

// RegClass returns the class of virtual register r.
func (f *Func) RegClass(r Reg) Class { return f.regClass[r] }

// RegName returns the debug name of r ("" for compiler temporaries).
func (f *Func) RegName(r Reg) string {
	if int(r) < len(f.regName) {
		return f.regName[r]
	}
	return ""
}

// NewReg allocates a fresh virtual register of the given class. name is
// for debugging only and may be empty.
func (f *Func) NewReg(c Class, name string) Reg {
	r := Reg(len(f.regClass))
	f.regClass = append(f.regClass, c)
	f.regName = append(f.regName, name)
	return r
}

// NewRegs allocates len(classes) fresh virtual registers at once, as
// that many NewReg calls would: the i-th gets classes[i] and the debug
// name names[i], or "" past the end of names. The register tables are
// reallocated exactly once.
func (f *Func) NewRegs(classes []Class, names []string) {
	n := len(f.regClass) + len(classes)
	rc := make([]Class, n)
	copy(rc[copy(rc, f.regClass):], classes)
	rn := make([]string, n)
	copy(rn[copy(rn, f.regName):], names[:min(len(names), len(classes))])
	f.regClass, f.regName = rc, rn
}

// NewBlock appends a fresh empty block and returns it.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Clone returns a deep copy of the function: blocks and instructions
// are copied so the clone can be rewritten (spill code inserted, blocks
// appended) without touching the original. Symbols are shared — they
// are immutable — but the Locals slice itself is copied so the clone
// can grow it.
func (f *Func) Clone() *Func {
	c := &Func{
		Name:        f.Name,
		Params:      append([]Reg(nil), f.Params...),
		HasResult:   f.HasResult,
		ResultClass: f.ResultClass,
		Locals:      append([]*Symbol(nil), f.Locals...),
		regClass:    append([]Class(nil), f.regClass...),
		regName:     append([]string(nil), f.regName...),
	}
	c.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &Block{ID: b.ID, Instrs: make([]Instr, len(b.Instrs))}
		copy(nb.Instrs, b.Instrs)
		for j := range nb.Instrs {
			nb.Instrs[j].Args = append([]Reg(nil), nb.Instrs[j].Args...)
		}
		c.Blocks[i] = nb
	}
	return c
}

// Program is a whole compiled MC program in IR form.
type Program struct {
	Funcs      []*Func
	FuncByName map[string]*Func
	Globals    []*Symbol
}

// AddFunc appends f to the program and indexes it by name.
func (p *Program) AddFunc(f *Func) {
	if p.FuncByName == nil {
		p.FuncByName = make(map[string]*Func)
	}
	p.Funcs = append(p.Funcs, f)
	p.FuncByName[f.Name] = f
}

// ---------------------------------------------------------------------
// Printing

// String renders the function as readable IR for debugging and golden
// tests.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", f.regString(p), f.RegClass(p))
	}
	b.WriteString(")")
	if f.HasResult {
		fmt.Fprintf(&b, " %s", f.ResultClass)
	}
	b.WriteString(" {\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d:\n", blk.ID)
		for i := range blk.Instrs {
			fmt.Fprintf(&b, "\t%s\n", f.InstrString(&blk.Instrs[i]))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func (f *Func) regString(r Reg) string {
	if r == NoReg {
		return "_"
	}
	if n := f.RegName(r); n != "" {
		return fmt.Sprintf("v%d(%s)", int(r), n)
	}
	return fmt.Sprintf("v%d", int(r))
}

// InstrString renders one instruction.
func (f *Func) InstrString(in *Instr) string {
	var b strings.Builder
	if in.HasDst() {
		fmt.Fprintf(&b, "%s = ", f.regString(in.Dst))
	}
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpConstInt:
		fmt.Fprintf(&b, " %d", in.IntVal)
	case OpConstFloat:
		fmt.Fprintf(&b, " %g", in.FloatVal)
	case OpICmp, OpFCmp:
		fmt.Fprintf(&b, " %s %s %s", f.regString(in.Args[0]), in.Cond, f.regString(in.Args[1]))
		return b.String()
	case OpLoad:
		fmt.Fprintf(&b, " %s", in.Sym.Name)
		if len(in.Args) > 0 {
			fmt.Fprintf(&b, "[%s]", f.regString(in.Args[0]))
		}
		return b.String()
	case OpStore:
		fmt.Fprintf(&b, " %s", in.Sym.Name)
		if in.Sym.IsArray() {
			fmt.Fprintf(&b, "[%s]", f.regString(in.Args[0]))
		}
		fmt.Fprintf(&b, " <- %s", f.regString(in.Args[len(in.Args)-1]))
		return b.String()
	case OpCall:
		fmt.Fprintf(&b, " %s(", in.Callee)
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.regString(a))
		}
		b.WriteString(")")
		return b.String()
	case OpBr:
		fmt.Fprintf(&b, " %s, b%d, b%d", f.regString(in.Args[0]), in.Then, in.Else)
		return b.String()
	case OpJmp:
		fmt.Fprintf(&b, " b%d", in.Then)
		return b.String()
	}
	for _, a := range in.Args {
		fmt.Fprintf(&b, " %s", f.regString(a))
	}
	return b.String()
}

// String renders the whole program.
func (p *Program) String() string {
	var b strings.Builder
	for _, g := range p.Globals {
		if g.IsArray() {
			fmt.Fprintf(&b, "global %s %s[%d]\n", g.Class, g.Name, g.Size)
		} else if g.Class == ClassFloat {
			fmt.Fprintf(&b, "global %s %s = %g\n", g.Class, g.Name, g.InitFloat)
		} else {
			fmt.Fprintf(&b, "global %s %s = %d\n", g.Class, g.Name, g.InitInt)
		}
	}
	for _, f := range p.Funcs {
		b.WriteString(f.String())
	}
	return b.String()
}
