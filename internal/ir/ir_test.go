package ir

import (
	"strings"
	"testing"
)

// buildAddFunc constructs: func add(a, b int) int { return a + b }
func buildAddFunc() *Func {
	f := &Func{Name: "add", HasResult: true, ResultClass: ClassInt}
	a := f.NewReg(ClassInt, "a")
	b := f.NewReg(ClassInt, "b")
	f.Params = []Reg{a, b}
	t := f.NewReg(ClassInt, "")
	blk := f.NewBlock()
	blk.Instrs = []Instr{
		{Op: OpAdd, Dst: t, Args: []Reg{a, b}},
		{Op: OpRet, Dst: NoReg, Args: []Reg{t}},
	}
	return f
}

func TestValidateOK(t *testing.T) {
	f := buildAddFunc()
	if err := f.Validate(); err != nil {
		t.Fatalf("valid function rejected: %v", err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(f *Func)
		wants string
	}{
		{"empty block", func(f *Func) { f.NewBlock() }, "empty"},
		{"unterminated", func(f *Func) {
			f.Blocks[0].Instrs = f.Blocks[0].Instrs[:1]
		}, "terminator"},
		{"terminator in middle", func(f *Func) {
			f.Blocks[0].Instrs = append([]Instr{{Op: OpJmp, Dst: NoReg, Then: 0}}, f.Blocks[0].Instrs...)
		}, "in block middle"},
		{"class mismatch", func(f *Func) {
			x := f.NewReg(ClassFloat, "")
			f.Blocks[0].Instrs[0].Args[0] = x
		}, "class"},
		{"register out of range", func(f *Func) {
			f.Blocks[0].Instrs[0].Args[0] = Reg(99)
		}, "out of range"},
		{"bad branch target", func(f *Func) {
			cond := f.Blocks[0].Instrs[0].Dst
			f.Blocks[0].Instrs[1] = Instr{Op: OpBr, Dst: NoReg, Args: []Reg{cond}, Then: 7, Else: 0}
		}, "target"},
		{"void return of value", func(f *Func) {
			f.HasResult = false
		}, "value return"},
		{"store with dst", func(f *Func) {
			sym := &Symbol{Name: "g", Class: ClassInt}
			f.Blocks[0].Instrs[0] = Instr{Op: OpStore, Dst: f.Blocks[0].Instrs[0].Dst, Sym: sym, Args: []Reg{0}}
		}, "store must not define"},
		{"array load without index", func(f *Func) {
			sym := &Symbol{Name: "arr", Class: ClassInt, Size: 8}
			f.Blocks[0].Instrs[0] = Instr{Op: OpLoad, Dst: f.Blocks[0].Instrs[0].Dst, Sym: sym, Args: []Reg{}}
		}, "operands"},
		// Operands every opcode is checked for, and malformed shapes
		// whose error message must not index missing operands.
		{"nop with dst out of range", func(f *Func) {
			f.Blocks[0].Instrs = append([]Instr{{Op: OpNop, Dst: Reg(34)}}, f.Blocks[0].Instrs...)
		}, "v34 out of range"},
		{"nop with arg out of range", func(f *Func) {
			f.Blocks[0].Instrs = append([]Instr{{Op: OpNop, Dst: NoReg, Args: []Reg{7}}}, f.Blocks[0].Instrs...)
		}, "v7 out of range"},
		{"ret with dst out of range", func(f *Func) {
			f.Blocks[0].Instrs[1].Dst = Reg(9)
		}, "v9 out of range"},
		{"negative dst", func(f *Func) {
			f.Blocks[0].Instrs[0].Dst = Reg(-5)
		}, "v-5 out of range"},
		{"unknown condition", func(f *Func) {
			f.Blocks[0].Instrs[0].Op = OpICmp
			f.Blocks[0].Instrs[0].Cond = Cond(99)
		}, "unknown condition"},
		{"branch without operand", func(f *Func) {
			f.Blocks[0].Instrs[1] = Instr{Op: OpBr, Dst: NoReg}
		}, "operands"},
		{"load without symbol", func(f *Func) {
			f.Blocks[0].Instrs[0] = Instr{Op: OpLoad, Dst: f.Blocks[0].Instrs[0].Dst}
		}, "without symbol"},
	}
	for _, tc := range cases {
		f := buildAddFunc()
		tc.mut(f)
		err := f.Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wants) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wants)
		}
	}
}

func TestProgramValidateCallShapes(t *testing.T) {
	add := buildAddFunc()
	caller := &Func{Name: "main", HasResult: true, ResultClass: ClassInt}
	x := caller.NewReg(ClassInt, "")
	y := caller.NewReg(ClassInt, "")
	r := caller.NewReg(ClassInt, "")
	blk := caller.NewBlock()
	blk.Instrs = []Instr{
		{Op: OpConstInt, Dst: x, IntVal: 1},
		{Op: OpConstInt, Dst: y, IntVal: 2},
		{Op: OpCall, Dst: r, Callee: "add", Args: []Reg{x, y}},
		{Op: OpRet, Dst: NoReg, Args: []Reg{r}},
	}
	p := &Program{}
	p.AddFunc(add)
	p.AddFunc(caller)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	// Arity mismatch.
	blk.Instrs[2].Args = []Reg{x}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "1 args") {
		t.Errorf("arity mismatch not caught: %v", err)
	}
	blk.Instrs[2].Args = []Reg{x, y}

	// Unknown callee.
	blk.Instrs[2].Callee = "nope"
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("unknown callee not caught: %v", err)
	}
	blk.Instrs[2].Callee = "add"

	// Duplicate function.
	p2 := &Program{}
	p2.AddFunc(buildAddFunc())
	p2.Funcs = append(p2.Funcs, buildAddFunc())
	if err := p2.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate not caught: %v", err)
	}
}

func TestSuccs(t *testing.T) {
	f := &Func{Name: "f"}
	c := f.NewReg(ClassInt, "")
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b0.Instrs = []Instr{
		{Op: OpConstInt, Dst: c},
		{Op: OpBr, Dst: NoReg, Args: []Reg{c}, Then: 1, Else: 2},
	}
	b1.Instrs = []Instr{{Op: OpJmp, Dst: NoReg, Then: 2}}
	b2.Instrs = []Instr{{Op: OpRet, Dst: NoReg}}
	if s := b0.Succs(); len(s) != 2 || s[0] != 1 || s[1] != 2 {
		t.Errorf("br succs = %v", s)
	}
	if s := b1.Succs(); len(s) != 1 || s[0] != 2 {
		t.Errorf("jmp succs = %v", s)
	}
	if s := b2.Succs(); len(s) != 0 {
		t.Errorf("ret succs = %v", s)
	}
	// Br with equal targets deduplicates.
	b0.Instrs[1].Else = 1
	if s := b0.Succs(); len(s) != 1 {
		t.Errorf("same-target br succs = %v", s)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := buildAddFunc()
	c := f.Clone()
	// Mutating the clone must not touch the original.
	c.Blocks[0].Instrs[0].Args[0] = Reg(1)
	c.NewReg(ClassFloat, "extra")
	c.Blocks[0].Instrs = append(c.Blocks[0].Instrs, Instr{Op: OpNop})
	c.Locals = append(c.Locals, &Symbol{Name: "slot", Class: ClassInt, Local: true})

	if f.Blocks[0].Instrs[0].Args[0] != Reg(0) {
		t.Error("clone shares Args slices")
	}
	if f.NumRegs() != 3 {
		t.Errorf("clone shares register table: %d", f.NumRegs())
	}
	if len(f.Blocks[0].Instrs) != 2 {
		t.Error("clone shares instruction slices")
	}
	if len(f.Locals) != 0 {
		t.Error("clone shares Locals")
	}
	if err := f.Validate(); err != nil {
		t.Errorf("original invalid after clone mutation: %v", err)
	}
}

func TestStringRendering(t *testing.T) {
	f := buildAddFunc()
	out := f.String()
	for _, want := range []string{"func add(", "v0(a)", "v1(b)", "add", "ret"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
	p := &Program{Globals: []*Symbol{
		{Name: "g", Class: ClassInt, InitInt: 7},
		{Name: "arr", Class: ClassFloat, Size: 4},
	}}
	p.AddFunc(f)
	ps := p.String()
	if !strings.Contains(ps, "global int g = 7") || !strings.Contains(ps, "global float arr[4]") {
		t.Errorf("program rendering wrong:\n%s", ps)
	}
}

func TestSymbolIsArray(t *testing.T) {
	if (&Symbol{Size: 0}).IsArray() {
		t.Error("scalar reported as array")
	}
	if !(&Symbol{Size: 3}).IsArray() {
		t.Error("array reported as scalar")
	}
}

// TestNewRegsMatchesNewReg: adding registers in bulk gives the same
// classes and names as adding them one by one, after registers the
// function already has and with names running out early.
func TestNewRegsMatchesNewReg(t *testing.T) {
	classes := []Class{ClassInt, ClassFloat, ClassInt}
	names := []string{"x", ""}
	one, bulk := &Func{}, &Func{}
	one.NewReg(ClassFloat, "p")
	bulk.NewReg(ClassFloat, "p")
	for i, c := range classes {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		one.NewReg(c, name)
	}
	bulk.NewRegs(classes, names)
	if one.NumRegs() != bulk.NumRegs() {
		t.Fatalf("NumRegs %d, want %d", bulk.NumRegs(), one.NumRegs())
	}
	for r := Reg(0); int(r) < one.NumRegs(); r++ {
		if bulk.RegClass(r) != one.RegClass(r) || bulk.RegName(r) != one.RegName(r) {
			t.Errorf("v%d: %s %q, want %s %q", r, bulk.RegClass(r), bulk.RegName(r), one.RegClass(r), one.RegName(r))
		}
	}
	if r := bulk.NewReg(ClassInt, "y"); bulk.RegName(r) != "y" || int(r) != one.NumRegs() {
		t.Errorf("NewReg after NewRegs gave v%d named %q", r, bulk.RegName(r))
	}
}
