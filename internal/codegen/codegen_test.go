package codegen_test

import (
	"math"
	"strings"
	"testing"

	"repro"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/regalloc"
	"repro/internal/rewrite"
)

const src = `
int g = 7;
float scale = 0.5;
int table[8];

int helper(int v, float w) { return v + int(w); }

int work(int a, int b) {
	int keep = a * 3;
	int r = helper(b, scale);
	table[a % 8] = r;
	return keep + r;
}

int main() {
	int i; int s = 0;
	for (i = 0; i < 20; i = i + 1) { s = s + work(i, i + 1); }
	return s;
}`

func emit(t *testing.T, strat callcost.Strategy, cfg callcost.Config) string {
	t.Helper()
	prog, err := callcost.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pf, _, err := prog.Profile()
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := prog.Allocate(strat, cfg, pf)
	if err != nil {
		t.Fatal(err)
	}
	return codegen.Program(prog.IR, alloc.Plans, cfg)
}

func TestStructure(t *testing.T) {
	asm := emit(t, callcost.Chaitin(), callcost.NewConfig(6, 4, 2, 2))
	for _, want := range []string{
		"\t.data", "\t.text",
		"g:\t.word 7", "scale:\t.float 0.5", "table:\t.space 32",
		"\t.globl main", "main:", "work:", "helper:",
		"jal work", "jal helper",
		"jr $ra",
	} {
		if !strings.Contains(asm, want) {
			t.Errorf("assembly lacks %q", want)
		}
	}
	// Every function has exactly one prologue frame adjustment and each
	// return restores it.
	if strings.Count(asm, ".globl") != 3 {
		t.Errorf("expected 3 globl directives")
	}
}

func TestPrologueEpilogueBalanced(t *testing.T) {
	asm := emit(t, callcost.Chaitin(), callcost.NewConfig(6, 4, 2, 2))
	down := strings.Count(asm, "addiu $sp, $sp, -")
	up := 0
	for _, line := range strings.Split(asm, "\n") {
		s := strings.TrimSpace(line)
		if strings.HasPrefix(s, "addiu $sp, $sp, ") && !strings.Contains(s, "-") {
			up++
		}
	}
	if down == 0 {
		t.Fatal("no frame allocation")
	}
	if up < down {
		t.Errorf("frames allocated %d times but released %d times", down, up)
	}
	if strings.Count(asm, "sw $ra") != strings.Count(asm, "lw $ra") {
		t.Error("return-address save/restore unbalanced")
	}
}

func TestCalleeSavesMatchPlan(t *testing.T) {
	cfg := callcost.NewConfig(6, 4, 4, 4)
	prog, err := callcost.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pf, _, err := prog.Profile()
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := prog.Allocate(callcost.Chaitin(), cfg, pf)
	if err != nil {
		t.Fatal(err)
	}
	asm := codegen.Program(prog.IR, alloc.Plans, cfg)
	wantSaves := 0
	for _, plan := range alloc.Plans {
		wantSaves += len(plan.CalleeUsed[ir.ClassInt]) + len(plan.CalleeUsed[ir.ClassFloat])
	}
	if got := strings.Count(asm, "# callee-save"); got != wantSaves {
		t.Errorf("%d callee-save stores in assembly, plan requires %d", got, wantSaves)
	}
	// Restores appear once per save per return site; at least as many
	// as saves.
	if got := strings.Count(asm, "# callee-restore"); got < wantSaves {
		t.Errorf("%d callee restores < %d saves", got, wantSaves)
	}
}

func TestCallerSavesBracketCalls(t *testing.T) {
	cfg := callcost.NewConfig(6, 4, 0, 0) // no callee regs: crossing values use caller-save
	asm := emit(t, callcost.Chaitin(), cfg)
	saves := strings.Count(asm, "# caller-save")
	restores := strings.Count(asm, "# caller-restore")
	if saves == 0 {
		t.Fatal("expected caller saves at (6,4,0,0)")
	}
	if saves != restores {
		t.Errorf("caller saves %d != restores %d", saves, restores)
	}
}

func TestSpillAnnotations(t *testing.T) {
	// Force spilling with a high-pressure function.
	pressure := `
int f(int a, int b, int c) {
	int d = a + b; int e = b + c; int g2 = a + c;
	int h = d + e; int i = e + g2; int j = d + g2;
	return h + i + j + a + b + c + d + e + g2;
}
int main() { return f(1, 2, 3); }`
	prog, err := callcost.Compile(pressure)
	if err != nil {
		t.Fatal(err)
	}
	pf, _, err := prog.Profile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := callcost.NewConfig(6, 4, 0, 0)
	alloc, err := prog.Allocate(callcost.Chaitin(), cfg, pf)
	if err != nil {
		t.Fatal(err)
	}
	asm := codegen.Program(prog.IR, alloc.Plans, cfg)
	if !strings.Contains(asm, "# spill") {
		t.Skip("no spill at this pressure; nothing to check")
	}
	if !strings.Contains(asm, "($sp)\t# spill") {
		t.Error("spill accesses should target frame slots")
	}
}

func TestRegNames(t *testing.T) {
	cfg := callcost.NewConfig(6, 4, 3, 2)
	cases := []struct {
		class ir.Class
		pr    machine.PhysReg
		want  string
	}{
		{ir.ClassInt, 0, "$t0"},
		{ir.ClassInt, 5, "$t5"},
		{ir.ClassInt, 6, "$s0"},
		{ir.ClassInt, 8, "$s2"},
		{ir.ClassFloat, 0, "$ft0"},
		{ir.ClassFloat, 4, "$fs0"},
		{ir.ClassFloat, 5, "$fs1"},
		{ir.ClassInt, machine.NoPhysReg, "$t-1"},
		{ir.ClassFloat, machine.NoPhysReg, "$ft-1"},
	}
	for _, tc := range cases {
		if got := codegen.RegName(cfg, tc.class, tc.pr); got != tc.want {
			t.Errorf("RegName(%v, %d) = %q, want %q", tc.class, tc.pr, got, tc.want)
		}
	}
}

func TestImprovedUsesFewerCalleeSaves(t *testing.T) {
	// The allocation difference must be visible in the emitted text:
	// the improved allocator's assembly contains fewer callee-save
	// stores on this cold-crossing workload.
	cold := `
int check(int v) { return v % 17; }
int hot(int x) {
	int a = x * 3; int b = x + 11;
	if (a > 1000000) {
		int e1 = a + b; int e2 = a - b;
		e1 = check(e1) + e2;
		e2 = check(e2) + e1;
		return e1 + e2;
	}
	return a + b;
}
int main() {
	int i; int s = 0;
	for (i = 0; i < 100; i = i + 1) { s = s + hot(i); }
	return s;
}`
	prog, err := callcost.Compile(cold)
	if err != nil {
		t.Fatal(err)
	}
	pf, _, err := prog.Profile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := callcost.NewConfig(6, 4, 4, 4)
	base, err := prog.Allocate(callcost.Chaitin(), cfg, pf)
	if err != nil {
		t.Fatal(err)
	}
	impr, err := prog.Allocate(callcost.ImprovedAll(), cfg, pf)
	if err != nil {
		t.Fatal(err)
	}
	baseAsm := codegen.Program(prog.IR, base.Plans, cfg)
	imprAsm := codegen.Program(prog.IR, impr.Plans, cfg)
	b := strings.Count(baseAsm, "# callee-save")
	i := strings.Count(imprAsm, "# callee-save")
	if i >= b {
		t.Errorf("improved uses %d callee saves, base %d; expected fewer", i, b)
	}
}

// TestRareForms pins the text of forms the benchmark suite never
// emits: a nop, a frame array, special float constants, the extreme
// int constant, an unassigned register and a color past its bank.
func TestRareForms(t *testing.T) {
	fn := &ir.Func{Name: "rare", HasResult: true, ResultClass: ir.ClassFloat}
	i0 := fn.NewReg(ir.ClassInt, "i")
	f0 := fn.NewReg(ir.ClassFloat, "x")
	f1 := fn.NewReg(ir.ClassFloat, "")
	i1 := fn.NewReg(ir.ClassInt, "")
	fn.Params = []ir.Reg{i0}
	arr := &ir.Symbol{Name: "frame", Class: ir.ClassFloat, Size: 4, Local: true}
	fn.Locals = []*ir.Symbol{arr}
	fn.NewBlock().Instrs = []ir.Instr{
		{Op: ir.OpNop, Dst: ir.NoReg},
		{Op: ir.OpConstFloat, Dst: f0, FloatVal: math.Inf(1)},
		{Op: ir.OpConstFloat, Dst: f0, FloatVal: math.Inf(-1)},
		{Op: ir.OpConstFloat, Dst: f0, FloatVal: math.NaN()},
		{Op: ir.OpConstFloat, Dst: f0, FloatVal: math.Copysign(0, -1)},
		{Op: ir.OpConstFloat, Dst: f0, FloatVal: 1e21},
		{Op: ir.OpConstFloat, Dst: f0, FloatVal: 1.0 / 3},
		{Op: ir.OpConstInt, Dst: i1, IntVal: math.MinInt64},
		{Op: ir.OpStore, Dst: ir.NoReg, Args: []ir.Reg{i0, f0}, Sym: arr},
		{Op: ir.OpLoad, Dst: f1, Args: []ir.Reg{i1}, Sym: arr},
		{Op: ir.OpRet, Dst: ir.NoReg, Args: []ir.Reg{f1}},
	}
	plan := &rewrite.FuncPlan{
		Alloc:      &regalloc.FuncAlloc{Fn: fn, Colors: []machine.PhysReg{0, 5, machine.NoPhysReg, 9}},
		CalleeUsed: [ir.NumClasses][]machine.PhysReg{{6, 7}, {4}},
	}
	prog := &ir.Program{Globals: []*ir.Symbol{
		{Name: "big", Class: ir.ClassFloat, InitFloat: math.Inf(1)},
		{Name: "small", Class: ir.ClassFloat, InitFloat: 5e-324},
		{Name: "neg", Class: ir.ClassInt, InitInt: -3},
		{Name: "grid", Class: ir.ClassFloat, Size: 3},
	}}
	got := codegen.Program(prog, map[string]*rewrite.FuncPlan{"rare": plan}, machine.NewConfig(6, 4, 2, 2))
	if got != rareFormsWant {
		t.Errorf("assembly differs:\n--- got ---\n%s--- want ---\n%s", got, rareFormsWant)
	}
}

const rareFormsWant = `	.data
big:	.float +Inf
small:	.float 5e-324
neg:	.word -3
grid:	.space 12	# float[3]

	.text
	.globl rare
rare:
	addiu $sp, $sp, -32
	sw $ra, 28($sp)
	sw $s0, 16($sp)	# callee-save
	sw $s1, 20($sp)	# callee-save
	s.s $fs0, 24($sp)	# callee-save
	move $t0, $a0
.Lrare_0:
	nop
	li.s $fs1, +Inf
	li.s $fs1, -Inf
	li.s $fs1, NaN
	li.s $fs1, -0
	li.s $fs1, 1e+21
	li.s $fs1, 0.3333333333333333
	li $s3, -9223372036854775808
	sll $at, $t0, 2
	addu $at, $at, $sp
	s.s $fs1, 0($at)
	sll $at, $s3, 2
	addu $at, $at, $sp
	l.s $ft-1, 0($at)
	mov.s $fv0, $ft-1
	lw $s0, 16($sp)	# callee-restore
	lw $s1, 20($sp)	# callee-restore
	l.s $fs0, 24($sp)	# callee-restore
	lw $ra, 28($sp)
	addiu $sp, $sp, 32
	jr $ra

`
