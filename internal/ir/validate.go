package ir

import "fmt"

// Validate checks structural well-formedness of the function: every
// block is terminated exactly at its end, branch targets exist, every
// register operand of every instruction is in range, with the classes
// each operation requires, compares name a known condition, and memory
// operations match their symbol's shape. It returns the first
// problem found.
func (f *Func) Validate() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("func %s: no blocks", f.Name)
	}
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("func %s: block %d has ID %d", f.Name, i, b.ID)
		}
		if len(b.Instrs) == 0 {
			return fmt.Errorf("func %s: block b%d is empty", f.Name, i)
		}
		for j := range b.Instrs {
			in := &b.Instrs[j]
			last := j == len(b.Instrs)-1
			if in.IsTerminator() != last {
				if last {
					return fmt.Errorf("func %s: b%d does not end in a terminator", f.Name, i)
				}
				return fmt.Errorf("func %s: b%d instr %d: terminator %s in block middle", f.Name, i, j, in.Op)
			}
			if err := f.validateInstr(in); err != nil {
				// Name only the op: rendering a malformed instruction
				// could index operands it lacks.
				return fmt.Errorf("func %s: b%d instr %d (%s): %w", f.Name, i, j, in.Op, err)
			}
		}
	}
	for _, p := range f.Params {
		if err := f.checkReg(p); err != nil {
			return fmt.Errorf("func %s: param: %w", f.Name, err)
		}
	}
	return nil
}

func (f *Func) checkReg(r Reg) error {
	if r < 0 || int(r) >= f.NumRegs() {
		return fmt.Errorf("register v%d out of range [0,%d)", int(r), f.NumRegs())
	}
	return nil
}

func (f *Func) checkClass(r Reg, c Class) error {
	if err := f.checkReg(r); err != nil {
		return err
	}
	if f.RegClass(r) != c {
		return fmt.Errorf("register v%d has class %s, want %s", int(r), f.RegClass(r), c)
	}
	return nil
}

func (f *Func) checkTarget(id int) error {
	if id < 0 || id >= len(f.Blocks) {
		return fmt.Errorf("branch target b%d out of range", id)
	}
	return nil
}

func checkCond(c Cond) error {
	if c < CondEQ || c > CondGE {
		return fmt.Errorf("unknown condition %d", int(c))
	}
	return nil
}

func (f *Func) validateInstr(in *Instr) error {
	wantArgs := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("want %d operands, have %d", n, len(in.Args))
		}
		return nil
	}
	binary := func(c Class) error {
		if err := wantArgs(2); err != nil {
			return err
		}
		if err := f.checkClass(in.Args[0], c); err != nil {
			return err
		}
		if err := f.checkClass(in.Args[1], c); err != nil {
			return err
		}
		return f.checkClass(in.Dst, c)
	}
	unary := func(from, to Class) error {
		if err := wantArgs(1); err != nil {
			return err
		}
		if err := f.checkClass(in.Args[0], from); err != nil {
			return err
		}
		return f.checkClass(in.Dst, to)
	}
	// Every register operand of every opcode must name a register of
	// the function: the allocator indexes its tables by them.
	if in.HasDst() {
		if err := f.checkReg(in.Dst); err != nil {
			return err
		}
	}
	for _, a := range in.Args {
		if err := f.checkReg(a); err != nil {
			return err
		}
	}
	switch in.Op {
	case OpNop:
		return nil
	case OpConstInt:
		if err := wantArgs(0); err != nil {
			return err
		}
		return f.checkClass(in.Dst, ClassInt)
	case OpConstFloat:
		if err := wantArgs(0); err != nil {
			return err
		}
		return f.checkClass(in.Dst, ClassFloat)
	case OpMove:
		if err := wantArgs(1); err != nil {
			return err
		}
		if err := f.checkReg(in.Dst); err != nil {
			return err
		}
		if f.RegClass(in.Dst) != f.RegClass(in.Args[0]) {
			return fmt.Errorf("move between classes %s and %s", f.RegClass(in.Args[0]), f.RegClass(in.Dst))
		}
		return nil
	case OpI2F:
		return unary(ClassInt, ClassFloat)
	case OpF2I:
		return unary(ClassFloat, ClassInt)
	case OpAdd, OpSub, OpMul, OpDiv, OpRem:
		return binary(ClassInt)
	case OpNeg:
		return unary(ClassInt, ClassInt)
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		return binary(ClassFloat)
	case OpFNeg:
		return unary(ClassFloat, ClassFloat)
	case OpICmp:
		if err := wantArgs(2); err != nil {
			return err
		}
		if err := checkCond(in.Cond); err != nil {
			return err
		}
		if err := f.checkClass(in.Args[0], ClassInt); err != nil {
			return err
		}
		if err := f.checkClass(in.Args[1], ClassInt); err != nil {
			return err
		}
		return f.checkClass(in.Dst, ClassInt)
	case OpFCmp:
		if err := wantArgs(2); err != nil {
			return err
		}
		if err := checkCond(in.Cond); err != nil {
			return err
		}
		if err := f.checkClass(in.Args[0], ClassFloat); err != nil {
			return err
		}
		if err := f.checkClass(in.Args[1], ClassFloat); err != nil {
			return err
		}
		return f.checkClass(in.Dst, ClassInt)
	case OpLoad:
		if in.Sym == nil {
			return fmt.Errorf("load without symbol")
		}
		if in.Sym.IsArray() {
			if err := wantArgs(1); err != nil {
				return err
			}
			if err := f.checkClass(in.Args[0], ClassInt); err != nil {
				return err
			}
		} else if err := wantArgs(0); err != nil {
			return err
		}
		return f.checkClass(in.Dst, in.Sym.Class)
	case OpStore:
		if in.Sym == nil {
			return fmt.Errorf("store without symbol")
		}
		if in.HasDst() {
			return fmt.Errorf("store must not define a register")
		}
		if in.Sym.IsArray() {
			if err := wantArgs(2); err != nil {
				return err
			}
			if err := f.checkClass(in.Args[0], ClassInt); err != nil {
				return err
			}
			return f.checkClass(in.Args[1], in.Sym.Class)
		}
		if err := wantArgs(1); err != nil {
			return err
		}
		return f.checkClass(in.Args[0], in.Sym.Class)
	case OpCall:
		if in.Callee == "" {
			return fmt.Errorf("call without callee")
		}
		return nil
	case OpRet:
		if len(in.Args) > 1 {
			return fmt.Errorf("ret with %d operands", len(in.Args))
		}
		if len(in.Args) == 1 {
			if !f.HasResult {
				return fmt.Errorf("value return from void function")
			}
			return f.checkClass(in.Args[0], f.ResultClass)
		}
		if f.HasResult {
			return fmt.Errorf("missing return value")
		}
		return nil
	case OpBr:
		if err := wantArgs(1); err != nil {
			return err
		}
		if err := f.checkClass(in.Args[0], ClassInt); err != nil {
			return err
		}
		if err := f.checkTarget(in.Then); err != nil {
			return err
		}
		return f.checkTarget(in.Else)
	case OpJmp:
		if err := wantArgs(0); err != nil {
			return err
		}
		return f.checkTarget(in.Then)
	}
	return fmt.Errorf("unknown op %v", in.Op)
}

// Validate checks every function in the program.
func (p *Program) Validate() error {
	seen := make(map[string]bool)
	for _, f := range p.Funcs {
		if seen[f.Name] {
			return fmt.Errorf("duplicate function %s", f.Name)
		}
		seen[f.Name] = true
		if err := f.Validate(); err != nil {
			return err
		}
		// Call targets must exist with matching shapes.
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op != OpCall {
					continue
				}
				callee := p.FuncByName[in.Callee]
				if callee == nil {
					return fmt.Errorf("func %s calls undefined %s", f.Name, in.Callee)
				}
				if len(in.Args) != len(callee.Params) {
					return fmt.Errorf("func %s calls %s with %d args, want %d",
						f.Name, in.Callee, len(in.Args), len(callee.Params))
				}
				for j, a := range in.Args {
					if f.RegClass(a) != callee.RegClass(callee.Params[j]) {
						return fmt.Errorf("func %s calls %s: arg %d class mismatch", f.Name, in.Callee, j)
					}
				}
				if in.HasDst() {
					if !callee.HasResult {
						return fmt.Errorf("func %s uses result of void %s", f.Name, in.Callee)
					}
					if f.RegClass(in.Dst) != callee.ResultClass {
						return fmt.Errorf("func %s calls %s: result class mismatch", f.Name, in.Callee)
					}
				}
			}
		}
	}
	return nil
}
