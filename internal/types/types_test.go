package types

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func check(t *testing.T, src string) (*Info, error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return Check(prog)
}

func mustCheck(t *testing.T, src string) *Info {
	t.Helper()
	info, err := check(t, src)
	if err != nil {
		t.Fatalf("check error: %v", err)
	}
	return info
}

func wantErr(t *testing.T, src, sub string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("%q: expected error containing %q", src, sub)
	}
	if !strings.Contains(err.Error(), sub) {
		t.Fatalf("%q: error %q does not contain %q", src, err.Error(), sub)
	}
}

func TestValidProgram(t *testing.T) {
	mustCheck(t, `
int g = 10;
float scale = 2.5;
int data[64];

int helper(int x, float w) {
	float t = w * 2.0;
	if (x > 0) { return x + int(t); }
	return 0;
}

int main() {
	int i;
	int sum = 0;
	for (i = 0; i < 64; i = i + 1) {
		data[i] = helper(i, scale);
		sum = sum + data[i];
	}
	return sum;
}
`)
}

func TestUndefined(t *testing.T) {
	wantErr(t, `int f() { return nothere; }`, "undefined: nothere")
	wantErr(t, `int f() { nope(); return 0; }`, "undefined function: nope")
	wantErr(t, `int f() { x = 1; return 0; }`, "undefined: x")
}

func TestRedeclaration(t *testing.T) {
	wantErr(t, "int x; float x;", "redeclared")
	wantErr(t, "int x; int x() { return 0; }", "redeclared")
	wantErr(t, "int f() { return 0; } int f() { return 1; }", "redeclared")
	wantErr(t, "int f() { int a; int a; return 0; }", "redeclared in this block")
	wantErr(t, "int f(int a, float a) { return 0; }", "duplicate parameter")
}

func TestShadowingIsLegal(t *testing.T) {
	mustCheck(t, `
int x;
int f(int x) {
	{ float x = 1.0; x = x * 2.0; }
	return x;
}`)
}

func TestArrayRules(t *testing.T) {
	wantErr(t, "int a[4]; int f() { return a; }", "array a must be indexed")
	wantErr(t, "int x; int f() { return x[0]; }", "x is not an array")
	wantErr(t, "int a[4]; int f() { a = 1; return 0; }", "cannot assign to array")
	wantErr(t, "int a[4]; int f(float i) { return a[i]; }", "array index must be int")
	wantErr(t, "int a[4]; int f(float i) { a[i] = 1; return 0; }", "array index must be int")
	mustCheck(t, "float a[4]; int f(int i) { a[i] = 0.5; return int(a[i+1]); }")
}

func TestCallRules(t *testing.T) {
	wantErr(t, "int g(int x) { return x; } int f() { return g(); }", "expects 1 arguments, got 0")
	wantErr(t, "int g(int x) { return x; } int f() { return g(1, 2); }", "expects 1 arguments, got 2")
	wantErr(t, "int g(int x) { return x; } int f(float y) { return g(y); }", "cannot use float value as int in argument")
	wantErr(t, "int x; int f() { return x(); }", "x is not a function")
	wantErr(t, "int g() { return 0; } int f() { return g + 1; }", "g is a function")
	// int promotes to float implicitly.
	mustCheck(t, "float g(float x) { return x; } int f() { return int(g(3)); }")
}

func TestConversionRules(t *testing.T) {
	wantErr(t, "int f(float y) { int x = y; return x; }", "cannot use float value as int")
	wantErr(t, "int f(float y) { return y; }", "cannot use float value as int in return")
	mustCheck(t, "float f(int y) { return y; }")              // int -> float ok
	mustCheck(t, "int f(float y) { return int(y); }")         // explicit cast ok
	mustCheck(t, "float f(int y) { float x = y; return x; }") // promotion at init
}

func TestConditionMustBeInt(t *testing.T) {
	wantErr(t, "int f(float y) { if (y) { return 1; } return 0; }", "condition must be int")
	wantErr(t, "int f(float y) { while (y) { } return 0; }", "condition must be int")
	mustCheck(t, "int f(float y) { if (y > 0.0) { return 1; } return 0; }")
}

func TestOperatorRules(t *testing.T) {
	wantErr(t, "int f(float y) { return int(y % 2.0); }", "requires int operands")
	wantErr(t, "int f(float y) { return (y > 0.0) && y; }", "requires int operands")
	wantErr(t, "int f(float y) { return !y; }", "requires int")
	mustCheck(t, "int f(int y) { return y % 3 + (y > 1 && y < 5) - !y; }")
	// Mixed arithmetic promotes to float.
	info := mustCheck(t, "float f(int a, float b) { return a + b; }")
	_ = info
}

func TestVoidRules(t *testing.T) {
	wantErr(t, "void f() { return 1; }", "void function cannot return a value")
	wantErr(t, "int f() { return; }", "missing return value")
	wantErr(t, "void g() { } int f() { return g(); }", "cannot use void value")
	wantErr(t, "void g() { } int f() { return g() + 1; }", "void value used as operand")
	wantErr(t, "void g() { } int f() { return int(g()); }", "cannot cast void value")
	mustCheck(t, "void g() { return; } int f() { g(); return 0; }")
}

func TestBreakContinueOutsideLoop(t *testing.T) {
	wantErr(t, "int f() { break; return 0; }", "break outside loop")
	wantErr(t, "int f() { continue; return 0; }", "continue outside loop")
	mustCheck(t, "int f() { while (1) { if (1) { break; } continue; } return 0; }")
}

func TestGlobalInitializers(t *testing.T) {
	wantErr(t, "int g() { return 1; } int x = g();", "calls are not allowed in global initializers")
	wantErr(t, "float pi = 3.14; int x = pi;", "cannot use float value as int")
	mustCheck(t, "int a = 2; int b = a * 3 + 1; float c = b;")
}

func TestInfoRecordsTypes(t *testing.T) {
	prog, err := parser.Parse("float f(int a, float b) { return a + b * 2.0; }")
	if err != nil {
		t.Fatal(err)
	}
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Funcs[0].Body.List[0].(*ast.ReturnStmt)
	add := ret.Value.(*ast.BinaryExpr)
	if info.Types[add.ID] != ast.FloatType {
		t.Errorf("a + b*2.0 type = %v, want float", info.Types[add.ID])
	}
	if info.Types[add.X.NodeID()] != ast.IntType {
		t.Errorf("a type = %v, want int", info.Types[add.X.NodeID()])
	}
	if info.Types[add.Y.NodeID()] != ast.FloatType {
		t.Errorf("b*2.0 type = %v, want float", info.Types[add.Y.NodeID()])
	}
}

func TestInfoRecordsUses(t *testing.T) {
	prog, err := parser.Parse(`
int g;
int f(int p) {
	int l = p;
	g = l;
	return g;
}`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	assign := prog.Funcs[0].Body.List[1].(*ast.AssignStmt)
	obj := info.Objects[assign.Target.ID]
	if obj == nil || obj.Kind != GlobalVar || obj.Name != "g" {
		t.Errorf("target of g=l resolved to %+v, want global g", obj)
	}
	if v, ok := assign.Value.(*ast.Ident); ok {
		if got := info.Objects[v.ID]; got == nil || got.Kind != LocalVar {
			t.Errorf("l resolved to %+v, want local", got)
		}
	} else {
		t.Fatal("value should be an Ident")
	}
	if info.FuncByName["f"] == nil {
		t.Error("FuncByName missing f")
	}
}

func TestForScopesInitVariable(t *testing.T) {
	// The for-init assignment targets an outer variable; MC for-init is
	// an assignment, not a declaration, so the variable must exist.
	wantErr(t, "int f() { for (i = 0; i < 3; i = i + 1) { } return 0; }", "undefined: i")
	mustCheck(t, "int f() { int i; for (i = 0; i < 3; i = i + 1) { } return i; }")
}
