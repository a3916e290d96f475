package bv

import (
	"math/rand"
	"testing"

	"parserhawk/internal/sat"
)

func TestConstFolding(t *testing.T) {
	s := New()
	if !s.Value(s.True()) {
		t.Skip() // Value needs a model; establish one first
	}
}

func TestConstAndSolve(t *testing.T) {
	s := New()
	a := s.NewLit()
	s.Assert(s.And(a, s.True()))
	if s.Solve() != sat.Sat {
		t.Fatal("unsat?")
	}
	if !s.Value(a) {
		t.Error("a must be true")
	}
}

func TestMetricsCountGatesAndClauses(t *testing.T) {
	s := New()
	a, b := s.NewLit(), s.NewLit()
	g := s.And(a, b)
	if got := s.Metrics().Gates; got != 1 {
		t.Fatalf("gates=%d want 1", got)
	}
	// Cache hits and constant folding must not allocate new gates.
	if s.And(a, b) != g {
		t.Fatal("and cache broken")
	}
	s.And(a, s.True())
	if got := s.Metrics().Gates; got != 1 {
		t.Fatalf("gates=%d after cache hit + fold, want 1", got)
	}
	s.Assert(g)
	if s.Solve() != sat.Sat {
		t.Fatal("unsat?")
	}
	m := s.Metrics()
	if m.Clauses == 0 || m.Vars == 0 || m.Propagations == 0 {
		t.Errorf("metrics look dead: %+v", m)
	}
}

func TestAndOrXorTruthTables(t *testing.T) {
	// For every pair of free vars and every gate, enumerate models and
	// compare with Go's operators by asserting both polarities.
	type gate struct {
		name string
		mk   func(s *Solver, a, b Lit) Lit
		eval func(a, b bool) bool
	}
	gates := []gate{
		{"and", (*Solver).And, func(a, b bool) bool { return a && b }},
		{"or", (*Solver).Or, func(a, b bool) bool { return a || b }},
		{"xor", (*Solver).Xor, func(a, b bool) bool { return a != b }},
		{"iff", (*Solver).Iff, func(a, b bool) bool { return a == b }},
		{"implies", (*Solver).Implies, func(a, b bool) bool { return !a || b }},
	}
	for _, g := range gates {
		for av := 0; av < 2; av++ {
			for bvv := 0; bvv < 2; bvv++ {
				s := New()
				a, b := s.NewLit(), s.NewLit()
				out := g.mk(s, a, b)
				s.Assert(s.Iff(a, s.Bool(av == 1)))
				s.Assert(s.Iff(b, s.Bool(bvv == 1)))
				if s.Solve() != sat.Sat {
					t.Fatalf("%s(%d,%d): unsat", g.name, av, bvv)
				}
				want := g.eval(av == 1, bvv == 1)
				if got := s.Value(out); got != want {
					t.Errorf("%s(%d,%d)=%v want %v", g.name, av, bvv, got, want)
				}
			}
		}
	}
}

func TestGateConstantFolding(t *testing.T) {
	s := New()
	a := s.NewLit()
	if s.And(a, s.False()) != s.False() {
		t.Error("And false fold")
	}
	if s.And(a, s.True()) != a {
		t.Error("And true fold")
	}
	if s.Or(a, s.True()) != s.True() {
		t.Error("Or true fold")
	}
	if s.Xor(a, s.False()) != a {
		t.Error("Xor false fold")
	}
	if s.Xor(a, a) != s.False() {
		t.Error("Xor self fold")
	}
	if s.And(a, a.Not()) != s.False() {
		t.Error("And complement fold")
	}
	n := s.SAT.NumVars()
	s.And(a, s.True())
	if s.SAT.NumVars() != n {
		t.Error("folding must not allocate variables")
	}
}

func TestGateCaching(t *testing.T) {
	s := New()
	a, b := s.NewLit(), s.NewLit()
	g1 := s.And(a, b)
	g2 := s.And(b, a)
	if g1 != g2 {
		t.Error("And cache must be order-insensitive")
	}
}

func TestBVConstAndValue(t *testing.T) {
	s := New()
	c := s.Const(0b1010, 4)
	s.Solve()
	if got := s.BVValue(c); got != 0b1010 {
		t.Errorf("got %b", got)
	}
}

func TestMaskedEqPinsValue(t *testing.T) {
	s := New()
	x := s.NewBV(8)
	s.Assert(s.MaskedEq(x, s.Const(0xFF, 8), s.Const(0xA5, 8)))
	if s.Solve() != sat.Sat {
		t.Fatal("unsat")
	}
	if got := s.BVValue(x); got != 0xA5 {
		t.Fatalf("x=%x", got)
	}
}

func TestBitwiseOpsAgainstGo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		av, bvv := rng.Uint64()&0xFF, rng.Uint64()&0xFF
		s := New()
		or := s.BVOr(s.Const(av, 8), s.Const(bvv, 8))
		s.Solve()
		if s.BVValue(or) != av|bvv {
			t.Errorf("or: %x", s.BVValue(or))
		}
	}
}

func TestMaskedEqMatchesTCAMSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		k, m, v := rng.Uint64()&0xF, rng.Uint64()&0xF, rng.Uint64()&0xF
		s := New()
		g := s.MaskedEq(s.Const(k, 4), s.Const(m, 4), s.Const(v, 4))
		s.Solve()
		want := k&m == v&m
		if got := s.Value(g); got != want {
			t.Errorf("MaskedEq(%x,%x,%x)=%v want %v", k, m, v, got, want)
		}
	}
}

func TestMaskedEqSynthesizesMergingMask(t *testing.T) {
	// The Figure 4 situation: find one (value, mask) covering {15,11,7,3}
	// while excluding {14, 2, 0}. The answer is mask=0b0011, value=0b0011.
	s := New()
	val := s.NewBV(4)
	mask := s.NewBV(4)
	for _, k := range []uint64{15, 11, 7, 3} {
		s.Assert(s.MaskedEq(s.Const(k, 4), mask, val))
	}
	for _, k := range []uint64{14, 2, 0} {
		s.Assert(s.MaskedEq(s.Const(k, 4), mask, val).Not())
	}
	if s.Solve() != sat.Sat {
		t.Fatal("a merging mask exists but was not found")
	}
	mv, vv := s.BVValue(mask), s.BVValue(val)
	for _, k := range []uint64{15, 11, 7, 3} {
		if k&mv != vv&mv {
			t.Errorf("model does not cover %d: m=%b v=%b", k, mv, vv)
		}
	}
	for _, k := range []uint64{14, 2, 0} {
		if k&mv == vv&mv {
			t.Errorf("model wrongly covers %d: m=%b v=%b", k, mv, vv)
		}
	}
}

func TestIteAndMux(t *testing.T) {
	s := New()
	c, a, b := s.NewLit(), s.NewLit(), s.NewLit()
	g := s.MuxLit(c, a, b)
	if s.MuxLit(c.Not(), b, a) != g {
		t.Error("ITE(¬c,b,a) must share the ITE(c,a,b) gate")
	}
	for _, cv := range []bool{true, false} {
		for _, av := range []bool{true, false} {
			for _, bvv := range []bool{true, false} {
				if s.Solve(pin(c, cv), pin(a, av), pin(b, bvv)) != sat.Sat {
					t.Fatal("unsat")
				}
				want := bvv
				if cv {
					want = av
				}
				if got := s.Value(g); got != want {
					t.Errorf("mux(%v,%v,%v)=%v want %v", cv, av, bvv, got, want)
				}
			}
		}
	}
}

// pin returns the literal that forces l to v.
func pin(l Lit, v bool) Lit {
	if v {
		return l
	}
	return l.Not()
}

func TestSelectBVOneHot(t *testing.T) {
	s := New()
	sel := []Lit{s.NewLit(), s.NewLit(), s.NewLit()}
	s.ExactlyOne(sel)
	opts := []BV{s.Const(1, 4), s.Const(7, 4), s.Const(12, 4)}
	out := s.SelectBV(sel, opts)
	s.Assert(sel[2])
	if s.Solve() != sat.Sat {
		t.Fatal("unsat")
	}
	if got := s.BVValue(out); got != 12 {
		t.Errorf("select got %d", got)
	}
	if s.Value(sel[0]) || s.Value(sel[1]) {
		t.Error("one-hot violated")
	}
}

func TestExactlyOne(t *testing.T) {
	s := New()
	ls := []Lit{s.NewLit(), s.NewLit(), s.NewLit(), s.NewLit()}
	s.ExactlyOne(ls)
	if s.Solve() != sat.Sat {
		t.Fatal("unsat")
	}
	n := 0
	for _, l := range ls {
		if s.Value(l) {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d literals true", n)
	}
	// Forcing two true must be unsat.
	if s.Solve(ls[0], ls[1]) != sat.Unsat {
		t.Error("two trues must conflict")
	}
	// Forcing all false must be unsat.
	if s.Solve(ls[0].Not(), ls[1].Not(), ls[2].Not(), ls[3].Not()) != sat.Unsat {
		t.Error("all false must conflict")
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s := New()
	s.MaskedEq(s.NewBV(3), s.NewBV(4), s.NewBV(3))
}

func TestOrN(t *testing.T) {
	s := New()
	if s.OrN() != s.False() {
		t.Error("empty OrN must fold to false")
	}
	x, y, z := s.NewLit(), s.NewLit(), s.NewLit()
	s.Assert(s.OrN(x, y, z))
	if s.Solve(x.Not(), y.Not(), z.Not()) != sat.Unsat {
		t.Error("OrN with every operand false must be unsat")
	}
	if s.Solve(x.Not(), z.Not()) != sat.Sat || !s.Value(y) {
		t.Error("OrN must force its one remaining operand true")
	}
}
