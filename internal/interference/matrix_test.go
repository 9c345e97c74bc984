package interference

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// TestMatrixSizedByOccurringRegisters: the bit matrix is indexed by the
// registers that occur in the bank, not by every declared register, so
// a function declaring 400,000 unused registers gets a small matrix,
// and Interfere on an unused register reports false.
func TestMatrixSizedByOccurringRegisters(t *testing.T) {
	fn := &ir.Func{Name: "f", HasResult: true, ResultClass: ir.ClassInt}
	a, b, c := fn.NewReg(ir.ClassInt, "a"), fn.NewReg(ir.ClassInt, "b"), fn.NewReg(ir.ClassInt, "c")
	const unused = 400_000
	for i := 0; i < unused; i++ {
		fn.NewReg(ir.ClassInt, "")
	}
	blk := fn.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpConstInt, Dst: a, IntVal: 1},
		{Op: ir.OpConstInt, Dst: b, IntVal: 2},
		{Op: ir.OpAdd, Dst: c, Args: []ir.Reg{a, b}},
		{Op: ir.OpRet, Dst: ir.NoReg, Args: []ir.Reg{c}},
	}
	g := Build(fn, liveness.Compute(fn, cfg.New(fn)), ir.ClassInt)
	if n := g.matrix.Len(); n != 3 {
		t.Fatalf("matrix over %d registers, want the 3 that occur", n)
	}
	if !g.Interfere(a, b) {
		t.Error("a and b are live together but do not interfere")
	}
	if g.Interfere(a, ir.Reg(3+unused/2)) || g.Interfere(ir.Reg(3+unused-1), c) {
		t.Error("an unused register interferes")
	}
}
