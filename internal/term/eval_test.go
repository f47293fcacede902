package term

// Tests of the concrete evaluator, the semantics both the solver's model
// reuse and the proof checker's model certificates rely on. Operands are
// variables, so the simplifying constructors keep the node and the
// evaluator (not constant folding) computes the value.

import (
	"strings"
	"testing"
)

func evalBV(t *testing.T, a *Assign, x *Term) uint64 {
	t.Helper()
	v, err := a.EvalBV(x)
	if err != nil {
		t.Fatalf("EvalBV(%v): %v", x, err)
	}
	return v
}

func evalBool(t *testing.T, a *Assign, x *Term) bool {
	t.Helper()
	v, err := a.EvalBool(x)
	if err != nil {
		t.Fatalf("EvalBool(%v): %v", x, err)
	}
	return v
}

func TestEvalBVOps(t *testing.T) {
	c := NewContext()
	x, y := c.VarBV("x", 8), c.VarBV("y", 8)
	for _, tc := range []struct {
		name   string
		term   *Term
		x, y   uint64
		want   uint64
		remark string
	}{
		{"udiv by zero", c.UDiv(x, y), 77, 0, 0xff, "all ones per SMT-LIB"},
		{"urem by zero", c.URem(x, y), 77, 0, 77, "the dividend per SMT-LIB"},
		{"udiv", c.UDiv(x, y), 200, 7, 28, ""},
		{"urem", c.URem(x, y), 200, 7, 4, ""},
		{"shl at width", c.Shl(x, y), 0xff, 8, 0, "shifts of width or more give 0"},
		{"shl past width", c.Shl(x, y), 0xff, 200, 0, ""},
		{"shl", c.Shl(x, y), 0x81, 1, 0x02, "bits shifted out are dropped"},
		{"lshr at width", c.LShr(x, y), 0xff, 8, 0, ""},
		{"lshr", c.LShr(x, y), 0x80, 7, 1, ""},
		{"ashr negative", c.AShr(x, y), 0x80, 3, 0xf0, "sign fills"},
		{"ashr negative past width", c.AShr(x, y), 0x80, 200, 0xff, "saturates at all ones"},
		{"ashr positive past width", c.AShr(x, y), 0x7f, 200, 0, "saturates at 0"},
		{"ashr positive", c.AShr(x, y), 0x70, 4, 0x07, ""},
		{"add wraps", c.Add(x, y), 0xf0, 0x20, 0x10, ""},
		{"sub wraps", c.Sub(x, y), 1, 2, 0xff, ""},
		{"mul wraps", c.Mul(x, y), 16, 17, 0x10, ""},
		{"neg", c.Neg(x), 1, 0, 0xff, ""},
		{"not", c.NotBV(x), 0x0f, 0, 0xf0, ""},
	} {
		a := NewAssign()
		a.BV["x"], a.BV["y"] = tc.x, tc.y
		if got := evalBV(t, a, tc.term); got != tc.want {
			t.Errorf("%s: x=%#x y=%#x gives %#x, want %#x %s", tc.name, tc.x, tc.y, got, tc.want, tc.remark)
		}
	}
}

func TestEvalWidthChanges(t *testing.T) {
	c := NewContext()
	x, y := c.VarBV("x", 8), c.VarBV("y", 4)
	a := NewAssign()
	a.BV["x"], a.BV["y"] = 0xa5, 0x3
	for _, tc := range []struct {
		name string
		term *Term
		want uint64
	}{
		{"sext negative", c.SExt(x, 16), 0xffa5},
		{"sext to 64", c.SExt(x, 64), 0xffffffffffffffa5},
		{"zext", c.ZExt(x, 16), 0x00a5},
		{"extract high nibble", c.Extract(x, 7, 4), 0xa},
		{"extract middle", c.Extract(x, 5, 2), 0x9},
		{"extract top bit", c.Extract(x, 7, 7), 1},
		{"concat", c.Concat(x, y), 0xa53},
		{"concat low first", c.Concat(y, x), 0x3a5},
	} {
		if got := evalBV(t, a, tc.term); got != tc.want {
			t.Errorf("%s: got %#x, want %#x", tc.name, got, tc.want)
		}
	}
	a.BV["x"] = 0x25
	if got := evalBV(t, a, c.SExt(x, 16)); got != 0x25 {
		t.Errorf("sext positive: got %#x, want 0x25", got)
	}
	// A variable's value is masked to its width: stray high bits in the
	// assignment never leak into the result.
	a.BV["x"] = 0x1a5
	if got := evalBV(t, a, c.ZExt(x, 16)); got != 0xa5 {
		t.Errorf("over-wide assignment: got %#x, want 0xa5", got)
	}
}

func TestEvalSignedPredicates(t *testing.T) {
	c := NewContext()
	x, y := c.VarBV("x", 8), c.VarBV("y", 8)
	a := NewAssign()
	a.BV["x"], a.BV["y"] = 0xff, 0x01 // -1 and 1 signed
	for _, tc := range []struct {
		name string
		term *Term
		want bool
	}{
		{"slt", c.Slt(x, y), true},
		{"sle", c.Sle(x, y), true},
		{"ult", c.Ult(x, y), false},
		{"ule", c.Ule(x, y), false},
		{"eq", c.Eq(x, y), false},
	} {
		if got := evalBool(t, a, tc.term); got != tc.want {
			t.Errorf("%s(-1, 1): got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEvalMemory(t *testing.T) {
	c := NewContext()
	m := c.VarMem("M")
	p, q := c.VarBV("p", 64), c.VarBV("q", 64)
	v, w := c.VarBV("v", 8), c.VarBV("w", 8)
	a := NewAssign()
	a.Mem["M"] = map[uint64]uint8{0x10: 0xaa, 0x11: 0xbb}
	a.BV["p"], a.BV["q"], a.BV["v"], a.BV["w"] = 0x10, 0x11, 0x01, 0x02

	// Store overlays: the newest store to an address wins, other
	// addresses fall through to the base contents, and untouched
	// addresses read as zero.
	s1 := c.Store(m, p, v)
	s2 := c.Store(s1, q, w)
	for _, tc := range []struct {
		name string
		term *Term
		want uint64
	}{
		{"base byte", c.Select(m, p), 0xaa},
		{"overlaid byte", c.Select(s2, p), 0x01},
		{"second overlay", c.Select(s2, q), 0x02},
		{"below overlays", c.Select(s1, q), 0xbb},
		{"absent address", c.Select(m, c.Add(p, c.BV(8, 64))), 0},
	} {
		if got := evalBV(t, a, tc.term); got != tc.want {
			t.Errorf("%s: got %#x, want %#x", tc.name, got, tc.want)
		}
	}
	// Later stores shadow earlier ones at the same (evaluated) address.
	a.BV["q"] = 0x10
	if got := evalBV(t, a, c.Select(s2, p)); got != 0x02 {
		t.Errorf("shadowed store: got %#x, want 0x02", got)
	}
	a.BV["q"] = 0x11

	// Memory equality over one base compares every overlaid address.
	for _, tc := range []struct {
		name string
		l, r *Term
		want bool
	}{
		{"store of the base byte", m, c.Store(m, p, c.Select(m, p)), true},
		{"store of another byte", m, s1, false},
		{"stores in either order", s2, c.Store(c.Store(m, q, w), p, v), true},
		{"different values", s2, c.Store(s1, q, v), false},
	} {
		if got := evalBool(t, a, c.Raw(KEq, 0, 0, "", 0, 0, tc.l, tc.r)); got != tc.want {
			t.Errorf("memory equality, %s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	// Memories over different bases are not comparable by evaluation.
	_, err := a.EvalBool(c.Raw(KEq, 0, 0, "", 0, 0, m, c.VarMem("N")))
	if err == nil || !strings.Contains(err.Error(), "different bases") {
		t.Errorf("memory equality across bases: got %v, want a different-bases error", err)
	}
}

// TestEvalMissingVariablesReadZero pins the total-assignment convention
// model reuse relies on: a variable the assignment does not mention
// reads as zero (false for Bool, zero bytes for memory), so a model
// found for one query can be evaluated against any other.
func TestEvalMissingVariablesReadZero(t *testing.T) {
	c := NewContext()
	a := NewAssign()
	if got := evalBV(t, a, c.Add(c.VarBV("x", 32), c.VarBV("y", 32))); got != 0 {
		t.Errorf("missing bv variables: got %d, want 0", got)
	}
	if evalBool(t, a, c.OrB(c.VarBool("b"), c.VarBool("d"))) {
		t.Error("missing bool variables read as true")
	}
	if got := evalBV(t, a, c.Select(c.VarMem("M"), c.VarBV("p", 64))); got != 0 {
		t.Errorf("missing memory: got %d, want 0", got)
	}
	if !evalBool(t, a, c.Eq(c.VarBV("x", 32), c.BV(0, 32))) {
		t.Error("x = 0 false under the empty assignment")
	}
}

func TestEvalSortErrors(t *testing.T) {
	c := NewContext()
	a := NewAssign()
	if _, err := a.EvalBool(c.VarBV("x", 8)); err == nil {
		t.Error("EvalBool of a bitvector accepted")
	}
	if _, err := a.EvalBV(c.VarBool("b")); err == nil {
		t.Error("EvalBV of a Bool accepted")
	}
}
