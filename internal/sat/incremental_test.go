package sat

import (
	"math/rand"
	"testing"
)

// TestRepeatedSolveUnderRandomAssumptionsAgreesWithBruteForce hammers one
// solver with many consecutive Solve calls under randomly drawn assumption
// sets — the incremental-session usage pattern — and cross-checks every
// answer against brute force with the assumptions added as unit clauses.
// Clauses learned in earlier calls (including units learned while
// assumptions were on the trail, the historical crash case) must never
// change a later call's answer.
func TestRepeatedSolveUnderRandomAssumptionsAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nVars := 5 + rng.Intn(6)
		nClauses := 3 + rng.Intn(5*nVars)
		var cnf [][]Lit
		for c := 0; c < nClauses; c++ {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, k)
			for i := range cl {
				cl[i] = MkLit(rng.Intn(nVars), rng.Intn(2) == 1)
			}
			cnf = append(cnf, cl)
		}
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		alive := true
		for _, cl := range cnf {
			if !s.AddClause(cl...) {
				alive = false
			}
		}
		for call := 0; call < 12; call++ {
			// Draw up to nVars/2 assumptions over distinct variables.
			perm := rng.Perm(nVars)
			var assumps []Lit
			for _, v := range perm[:rng.Intn(nVars/2+1)] {
				assumps = append(assumps, MkLit(v, rng.Intn(2) == 1))
			}
			got := s.Solve(assumps...)
			if !alive {
				if got != Unsat {
					t.Fatalf("trial %d call %d: dead instance reported %v", trial, call, got)
				}
				continue
			}
			withUnits := cnf
			for _, a := range assumps {
				withUnits = append(withUnits, []Lit{a})
			}
			want := Unsat
			if bruteForce(nVars, withUnits) {
				want = Sat
			}
			if got != want {
				t.Fatalf("trial %d call %d: solver=%v brute=%v assumps=%v cnf=%v",
					trial, call, got, want, assumps, cnf)
			}
			if got == Sat {
				for _, a := range assumps {
					v := s.Model(a.Var())
					if a.Neg() {
						v = !v
					}
					if !v {
						t.Fatalf("trial %d call %d: model violates assumption %v", trial, call, a)
					}
				}
			}
		}
	}
}

// TestPerCallDeltaAndRetention checks the per-call metric accounting: each
// Solve's delta counts exactly one solve, deltas reflect only that call's
// movement, and the retention counter sums the learned clauses alive at
// each call's entry.
func TestPerCallDeltaAndRetention(t *testing.T) {
	s := New()
	const n = 10
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// Overlapping odd-parity triples: x_i ⊕ x_{i+1} ⊕ x_{i+2} = 1. XOR
	// systems resist pure propagation, so CDCL must branch and learn.
	for i := 0; i+2 < n; i++ {
		a, b, c := vars[i], vars[i+1], vars[i+2]
		s.AddClause(MkLit(a, false), MkLit(b, false), MkLit(c, false))
		s.AddClause(MkLit(a, false), MkLit(b, true), MkLit(c, true))
		s.AddClause(MkLit(a, true), MkLit(b, false), MkLit(c, true))
		s.AddClause(MkLit(a, true), MkLit(b, true), MkLit(c, false))
	}

	var retainedWant int64
	var solvedCalls int64
	for call := 0; call < 6; call++ {
		live := int64(s.LearntsLive())
		retainedWant += live
		before := s.Metrics()
		st := s.Solve(MkLit(vars[call%n], call%2 == 0))
		solvedCalls++
		if st == Unknown {
			t.Fatalf("call %d: unexpected Unknown", call)
		}
		d := s.LastSolveDelta()
		if d.Solves != 1 {
			t.Errorf("call %d: delta.Solves=%d want 1", call, d.Solves)
		}
		if d.RetainedClauses != live {
			t.Errorf("call %d: delta.RetainedClauses=%d, %d learnts were live at entry",
				call, d.RetainedClauses, live)
		}
		after := s.Metrics()
		if after.Solves != before.Solves+1 {
			t.Errorf("call %d: cumulative Solves %d -> %d", call, before.Solves, after.Solves)
		}
		if got := after.Sub(before); got != d {
			t.Errorf("call %d: LastSolveDelta %+v != metric movement %+v", call, d, got)
		}
	}
	m := s.Metrics()
	if m.Solves != solvedCalls {
		t.Errorf("Metrics.Solves=%d want %d", m.Solves, solvedCalls)
	}
	if m.RetainedClauses != retainedWant {
		t.Errorf("Metrics.RetainedClauses=%d want %d", m.RetainedClauses, retainedWant)
	}
	if m.LearnedClauses == 0 {
		t.Error("instance was built to force clause learning, but none recorded")
	}
}

// TestMetricsSubInvertsAdd checks Sub is the exact inverse of Add on every
// field, so per-rung deltas reconstruct session totals without drift.
func TestMetricsSubInvertsAdd(t *testing.T) {
	a := Metrics{Decisions: 10, Propagations: 20, Conflicts: 3, LearnedClauses: 2,
		LearnedLiterals: 7, Restarts: 1, Solves: 4, RetainedClauses: 5}
	b := Metrics{Decisions: 4, Propagations: 8, Conflicts: 1, LearnedClauses: 1,
		LearnedLiterals: 2, Restarts: 0, Solves: 2, RetainedClauses: 3}
	sum := a
	sum.Add(b)
	if got := sum.Sub(a); got != b {
		t.Errorf("(a+b)-a = %+v, want %+v", got, b)
	}
	if got := sum.Sub(b); got != a {
		t.Errorf("(a+b)-b = %+v, want %+v", got, a)
	}
}
