package sat

import (
	"math/rand"
	"slices"
	"testing"
)

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true))
	if got := s.Solve(); got != Sat {
		t.Fatalf("status=%v", got)
	}
	if s.Model(a) {
		t.Error("a must be false")
	}
	if !s.Model(b) {
		t.Error("b must be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if ok := s.AddClause(MkLit(a, true)); ok {
		t.Error("adding the complement unit must report unsat")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("status=%v", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Error("empty clause must be unsat")
	}
	if s.Solve() != Unsat {
		t.Error("solver must stay unsat")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(MkLit(a, false), MkLit(a, true)) {
		t.Error("tautology must be accepted")
	}
	if s.Solve() != Sat {
		t.Error("still satisfiable")
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true))
	s.AddClause(MkLit(b, true))
	if s.Solve() != Unsat {
		t.Error("dedup broke semantics")
	}
}

func TestChainPropagation(t *testing.T) {
	// x0 and (x_i -> x_{i+1}) forces all true.
	s := New()
	const n = 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(MkLit(vars[0], false))
	for i := 0; i+1 < n; i++ {
		s.AddClause(MkLit(vars[i], true), MkLit(vars[i+1], false))
	}
	if s.Solve() != Sat {
		t.Fatal("chain must be sat")
	}
	for i, v := range vars {
		if !s.Model(v) {
			t.Fatalf("x%d must be true", i)
		}
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons, n holes — classically UNSAT
// and a good conflict-analysis stress test.
func pigeonhole(s *Solver, pigeons, holes int) {
	v := make([][]int, pigeons)
	for p := range v {
		v[p] = make([]int, holes)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = MkLit(v[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(v[p1][h], true), MkLit(v[p2][h], true))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Errorf("PHP(%d,%d)=%v want unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if got := s.Solve(); got != Sat {
		t.Errorf("PHP(5,5)=%v want sat", got)
	}
}

// bruteForce answers satisfiability of a small CNF by enumeration.
func bruteForce(nVars int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := m>>uint(l.Var())&1 == 1
				if l.Neg() {
					val = !val
				}
				if val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		nVars := 4 + rng.Intn(6)
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
		got := Unsat
		if alive {
			got = s.Solve()
		} else if s.Solve() != Unsat {
			t.Fatalf("trial %d: AddClause said unsat but Solve disagrees", trial)
		}
		want := Unsat
		if bruteForce(nVars, cnf) {
			want = Sat
		}
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v cnf=%v", trial, got, want, cnf)
		}
		if got == Sat {
			// Verify the model actually satisfies the CNF.
			for _, cl := range cnf {
				satisfied := false
				for _, l := range cl {
					v := s.Model(l.Var())
					if l.Neg() {
						v = !v
					}
					if v {
						satisfied = true
						break
					}
				}
				if !satisfied {
					t.Fatalf("trial %d: model does not satisfy clause %v", trial, cl)
				}
			}
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a | b
	if s.Solve(MkLit(a, true)) != Sat {
		t.Fatal("sat under ~a")
	}
	if !s.Model(b) {
		t.Error("b must be true under ~a")
	}
	if s.Solve(MkLit(a, true), MkLit(b, true)) != Unsat {
		t.Error("unsat under ~a & ~b")
	}
	// Solver remains usable and satisfiable without assumptions.
	if s.Solve() != Sat {
		t.Error("must recover after assumption unsat")
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if s.Solve() != Sat {
		t.Fatal("initial sat")
	}
	s.AddClause(MkLit(a, true))
	s.AddClause(MkLit(b, true))
	if s.Solve() != Unsat {
		t.Error("must be unsat after strengthening")
	}
}

func TestAssumptionOfForcedLiteral(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false)) // a forced true
	s.AddClause(MkLit(a, true), MkLit(b, false))
	if s.Solve(MkLit(a, false)) != Sat {
		t.Error("assuming an implied literal must stay sat")
	}
	if s.Solve(MkLit(a, true)) != Unsat {
		t.Error("assuming the negation of a forced literal must be unsat")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8) // hard enough to not finish instantly
	calls := 0
	s.Cancel = func() bool {
		calls++
		return calls > 2
	}
	got := s.Solve()
	if got == Unknown {
		if s.Err() != ErrCanceled {
			t.Errorf("err=%v", s.Err())
		}
	}
	// Either it finished fast (Unsat) or was canceled — both acceptable.
	if got == Sat {
		t.Error("PHP(9,8) can never be sat")
	}
}

func TestCancelNeverReportsUnsat(t *testing.T) {
	// PHP(10,9) is far too hard to refute within the first few hundred
	// search steps, so an immediate cancel must surface as an interrupt
	// (Unknown + ErrCanceled) — reporting Unsat here would be a soundness
	// bug: the search was cut short before unsatisfiability was established.
	s := New()
	pigeonhole(s, 10, 9)
	s.Cancel = func() bool { return true }
	got := s.Solve()
	if got != Unknown {
		t.Fatalf("canceled solve returned %v, want unknown", got)
	}
	if s.Err() != ErrCanceled {
		t.Fatalf("err=%v want ErrCanceled", s.Err())
	}
	// Clearing the cancel hook must let the same solver finish for real.
	s.Cancel = nil
	if got := s.Solve(); got != Unsat {
		t.Fatalf("uncanceled re-solve returned %v, want unsat", got)
	}
}

func TestCancelDuringDecisionStretch(t *testing.T) {
	// A clause-free instance produces zero conflicts, so a poll keyed to the
	// conflict counter would never fire. The tick-based poll must abort the
	// pure-decision stretch anyway.
	s := New()
	for i := 0; i < 100000; i++ {
		s.NewVar()
	}
	s.Cancel = func() bool { return true }
	if got := s.Solve(); got != Unknown {
		t.Fatalf("status=%v want unknown", got)
	}
	if s.Err() != ErrCanceled {
		t.Fatalf("err=%v want ErrCanceled", s.Err())
	}
}

func TestMetricsAdvanceAndAccumulate(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	before := s.Metrics()
	if before.Clauses == 0 || before.Vars == 0 {
		t.Fatalf("encoding metrics look dead: %+v", before)
	}
	if s.Solve() != Unsat {
		t.Fatal("PHP(6,5) must be unsat")
	}
	m := s.Metrics()
	if m.Decisions == 0 || m.Propagations == 0 || m.Conflicts == 0 ||
		m.LearnedClauses == 0 || m.LearnedLiterals == 0 {
		t.Errorf("search metrics look dead: %+v", m)
	}
	if m.Decisions < before.Decisions || m.Propagations < before.Propagations ||
		m.Conflicts < before.Conflicts || m.Clauses < before.Clauses {
		t.Errorf("metrics must be monotone: before=%+v after=%+v", before, m)
	}
	var sum Metrics
	sum.Add(before)
	sum.Add(m)
	if sum.Conflicts != before.Conflicts+m.Conflicts || sum.Vars != before.Vars+m.Vars {
		t.Errorf("Add mis-accumulates: %+v", sum)
	}
}

func TestMaxConflicts(t *testing.T) {
	s := New()
	pigeonhole(s, 10, 9)
	s.MaxConflicts = 5
	if got := s.Solve(); got != Unknown && got != Unsat {
		t.Errorf("status=%v", got)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d)=%d want %d", i+1, got, w)
		}
	}
}

// TestRestartSchedule pins when restarts take effect. Restart r fires once
// a call's conflicts pass restartLimit(r); when the next limit lies below
// the conflicts already spent, it fires at once, with no search between.
func TestRestartSchedule(t *testing.T) {
	var effective []int64
	restarts, r := 0, int64(1)
	for len(effective) < 10 {
		limit := restartLimit(r)
		effective = append(effective, limit)
		for restartLimit(r) <= limit { // the burst at limit+1 conflicts
			r++
			restarts++
		}
	}
	want := []int64{100, 200, 600, 1200, 2800, 5600, 12000, 24000, 49600, 99200}
	if !slices.Equal(effective, want) {
		t.Errorf("effective restarts past %v conflicts, want %v", effective, want)
	}
	if restarts != 62 {
		t.Errorf("%d restarts counted by the tenth burst, want 62", restarts)
	}

	// The solver follows it: a call cut at 1,000 conflicts has restarted
	// past 100, 200 and 600 conflicts, the last three times back to back.
	s := New()
	pigeonhole(s, 10, 9)
	s.MaxConflicts = 1000
	if got := s.Solve(); got != Unknown {
		t.Fatalf("status=%v, want the conflict limit to stop PHP(10,9)", got)
	}
	if got := s.LastSolveDelta().Restarts; got != 5 {
		t.Errorf("%d restarts in 1,000 conflicts, want 5", got)
	}
}

func TestLitEncoding(t *testing.T) {
	l := MkLit(7, true)
	if l.Var() != 7 || !l.Neg() {
		t.Error("encode broken")
	}
	if l.Not().Neg() || l.Not().Var() != 7 {
		t.Error("Not broken")
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Error("status strings")
	}
}

func TestStatsAdvance(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 4)
	s.Solve()
	d, p, c := s.Stats()
	if d == 0 || p == 0 || c == 0 {
		t.Errorf("stats look dead: d=%d p=%d c=%d", d, p, c)
	}
}

func BenchmarkPigeonhole87(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 8, 7)
		if s.Solve() != Unsat {
			b.Fatal("wrong answer")
		}
	}
}

func BenchmarkRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < b.N; i++ {
		s := New()
		const n = 60
		for v := 0; v < n; v++ {
			s.NewVar()
		}
		for c := 0; c < int(4.0*n); c++ {
			s.AddClause(
				MkLit(rng.Intn(n), rng.Intn(2) == 1),
				MkLit(rng.Intn(n), rng.Intn(2) == 1),
				MkLit(rng.Intn(n), rng.Intn(2) == 1))
		}
		s.Solve()
	}
}
