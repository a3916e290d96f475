package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// checkVarArrays fails unless every per-variable array has one entry per
// variable (two per variable for the literal-indexed watch lists) and room
// for as many variables as assign has: growVars grows them in one step.
func checkVarArrays(t *testing.T, s *Solver) {
	t.Helper()
	n, c := s.NumVars(), cap(s.assign)
	for _, a := range []struct {
		name     string
		len, cap int
		perVar   int
	}{
		{"level", len(s.level), cap(s.level), 1},
		{"reason", len(s.reason), cap(s.reason), 1},
		{"phase", len(s.phase), cap(s.phase), 1},
		{"activity", len(s.activity), cap(s.activity), 1},
		{"seen", len(s.seen), cap(s.seen), 1},
		{"watches", len(s.watches), cap(s.watches), 2},
		{"binWatches", len(s.binWatches), cap(s.binWatches), 2},
		{"order.pos", len(s.order.pos), cap(s.order.pos), 1},
	} {
		if a.len != a.perVar*n || a.cap < a.perVar*c {
			t.Fatalf("%s: len %d cap %d for %d variables (assign cap %d)", a.name, a.len, a.cap, n, c)
		}
	}
	if cap(s.order.data) < c {
		t.Fatalf("order.data: cap %d below assign cap %d", cap(s.order.data), c)
	}
	if m := s.Metrics().Vars; m != int64(n) {
		t.Fatalf("Metrics().Vars = %d, NumVars = %d", m, n)
	}
}

// TestNewVarAcrossGrowth allocates over 4000 variables, across eight
// growths of the per-variable storage, interleaved with AddClause,
// AddBinary and Solve under assumptions. A planted assignment satisfies
// every clause, so each solve must find a model, and the model must
// satisfy every clause and assumption. Last, a pigeonhole instance behind
// a selector is refuted under more than 64 assumptions, so conflict
// analysis runs past decision level 64 and grows the per-level LBD stamps
// on demand (NewVar no longer sizes them).
func TestNewVarAcrossGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New()
	var planted []bool // planted[v] is v's value in the planted model
	newVar := func() {
		s.NewVar()
		planted = append(planted, rng.Intn(2) == 0)
	}
	// truth returns a literal over v that the planted model makes true.
	truth := func(v int) Lit { return MkLit(v, !planted[v]) }
	anyLit := func() Lit { return MkLit(rng.Intn(len(planted)), rng.Intn(2) == 0) }
	var cnf [][]Lit
	holds := func(l Lit) bool { return s.Model(l.Var()) != l.Neg() }
	check := func(status Status, assumps []Lit) {
		t.Helper()
		if status != Sat {
			t.Fatalf("%d vars: solve under %d planted assumptions is %v", len(planted), len(assumps), status)
		}
		for _, a := range assumps {
			if !holds(a) {
				t.Fatalf("%d vars: model falsifies assumption %v", len(planted), a)
			}
		}
		for _, cl := range cnf {
			if !slices.ContainsFunc(cl, holds) {
				t.Fatalf("%d vars: model falsifies %v", len(planted), cl)
			}
		}
	}

	// Past 768 variables Go's own append growth falls behind growVars',
	// so an array growVars forgot would show right after a growth.
	growths := 0
	for cap(s.assign) < 4096 {
		batch := max(len(planted)/3, 50)
		for i := 0; i < batch; i++ {
			c := cap(s.assign)
			newVar()
			if c > 0 && cap(s.assign) != c {
				growths++
				checkVarArrays(t, s)
			}
		}
		checkVarArrays(t, s)
		for i := 0; i < 2*batch; i++ {
			cl := []Lit{truth(rng.Intn(len(planted))), anyLit(), anyLit()}
			if i%2 == 0 {
				s.AddBinary(cl[0], cl[1])
				cl = cl[:2]
			} else {
				s.AddClause(cl...)
			}
			cnf = append(cnf, cl)
		}
		var assumps []Lit
		for i := 0; i < 8; i++ {
			assumps = append(assumps, truth(rng.Intn(len(planted))))
		}
		check(s.Solve(assumps...), assumps)
	}
	if len(s.lbdStamp) > 64 {
		t.Fatalf("LBD stamps already cover %d levels before the deep instance", len(s.lbdStamp))
	}

	// PHP(5, 4) behind selector sel: every clause carries ¬sel.
	sel := len(planted)
	newVar()
	holes := make([][]Lit, 5)
	for p := range holes {
		for h := 0; h < 4; h++ {
			newVar()
			holes[p] = append(holes[p], MkLit(len(planted)-1, false))
		}
		s.AddClause(append([]Lit{MkLit(sel, true)}, holes[p]...)...)
	}
	for h := 0; h < 4; h++ {
		for p1 := range holes {
			for p2 := p1 + 1; p2 < len(holes); p2++ {
				s.AddClause(MkLit(sel, true), holes[p1][h].Not(), holes[p2][h].Not())
			}
		}
	}
	checkVarArrays(t, s)
	deep := make([]Lit, 80)
	for v := range deep {
		deep[v] = truth(v)
	}
	if st := s.Solve(append(deep, MkLit(sel, false))...); st != Unsat {
		t.Fatalf("pigeonhole under 80 assumptions and its selector: %v", st)
	}
	if len(s.lbdStamp) <= 64 {
		t.Errorf("LBD stamps cover %d levels after conflicts past level 80", len(s.lbdStamp))
	}
	check(s.Solve(deep...), deep)
	if growths < 8 {
		t.Errorf("%d growths, want at least 8", growths)
	}
}
