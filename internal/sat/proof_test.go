package sat_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"parserhawk/internal/cert"
	"parserhawk/internal/sat"
)

// pigeonhole encodes the unsatisfiable "n+1 pigeons in n holes"
// instance: var p*n+h means pigeon p sits in hole h.
func pigeonhole(s *sat.Solver, n int) {
	vars := make([][]int, n+1)
	for p := 0; p <= n; p++ {
		vars[p] = make([]int, n)
		for h := 0; h < n; h++ {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		var cl []sat.Lit
		for h := 0; h < n; h++ {
			cl = append(cl, sat.MkLit(vars[p][h], false))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ {
		for p := 0; p <= n; p++ {
			for q := p + 1; q <= n; q++ {
				s.AddClause(sat.MkLit(vars[p][h], true), sat.MkLit(vars[q][h], true))
			}
		}
	}
}

// checkRefutation checks the DRAT log of s's last solve, which returned
// Unsat under assumps, against the CNF it refutes.
func checkRefutation(t *testing.T, s *sat.Solver, assumps ...sat.Lit) {
	t.Helper()
	var cnf bytes.Buffer
	if err := s.WriteDIMACSUnder(&cnf, assumps...); err != nil {
		t.Fatal(err)
	}
	if err := cert.CheckDRAT(cnf.Bytes(), s.ProofBytes(true)); err != nil {
		t.Fatalf("proof does not check: %v", err)
	}
}

// checkModel fails unless the model of s's last solve satisfies every
// clause of cnf.
func checkModel(t *testing.T, s *sat.Solver, cnf [][]sat.Lit) {
	t.Helper()
	for _, cl := range cnf {
		if !slices.ContainsFunc(cl, func(l sat.Lit) bool { return s.Model(l.Var()) != l.Neg() }) {
			t.Fatalf("model falsifies clause %v", cl)
		}
	}
}

// newProofSolver returns a solver that records its clauses and logs DRAT.
func newProofSolver() *sat.Solver {
	s := sat.New()
	s.RecordOriginal = true
	s.StartProof()
	return s
}

func TestProofCertifiesUnsat(t *testing.T) {
	for _, holes := range []int{4, 5} {
		s := newProofSolver()
		pigeonhole(s, holes)
		if st := s.Solve(); st != sat.Unsat {
			t.Fatalf("PHP(%d,%d): got %v, want Unsat", holes+1, holes, st)
		}
		if m := s.Metrics(); m.LearnedClauses == 0 {
			t.Fatalf("PHP(%d,%d): refuted without learning", holes+1, holes)
		}
		checkRefutation(t, s)
	}
}

// distinct3 draws three distinct variables below n.
func distinct3(rng *rand.Rand, n int) [3]int {
	var v [3]int
	for i := range v {
		v[i] = rng.Intn(n)
		for slices.Contains(v[:i], v[i]) {
			v[i] = rng.Intn(n)
		}
	}
	return v
}

// TestProofCertifiesRandom3SAT solves seeded random 3-SAT instances at
// clause ratio 4.3, where about half are unsatisfiable: every refutation
// must check and every model must satisfy the instance. A clause may
// repeat a variable, so the dumped CNF holds repeated literals and
// tautologies, which the DRAT checker must read in normal form.
func TestProofCertifiesRandom3SAT(t *testing.T) {
	const vars, clauses = 60, 258
	verdicts := map[sat.Status]int{}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newProofSolver()
		for i := 0; i < vars; i++ {
			s.NewVar()
		}
		var cnf [][]sat.Lit
		for i := 0; i < clauses; i++ {
			cl := make([]sat.Lit, 3)
			for j := range cl {
				cl[j] = sat.MkLit(rng.Intn(vars), rng.Intn(2) == 0)
			}
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		}
		st := s.Solve()
		switch st {
		case sat.Unsat:
			checkRefutation(t, s)
		case sat.Sat:
			checkModel(t, s, cnf)
		default:
			t.Fatalf("seed %d: %v", seed, st)
		}
		verdicts[st]++
	}
	if verdicts[sat.Unsat] < 4 || verdicts[sat.Sat] < 4 {
		t.Fatalf("verdicts %v: want both kinds", verdicts)
	}
}

// TestProofCertifiesAtMostKLadder climbs an at-most-k ladder over one
// solver as core's solveAt does: rung k solves under the single
// assumption that fewer than k+1 of the x variables are true. The
// instance is a seeded hitting set (random positive triples over x), so
// the rungs below the minimum are refuted, each with the clauses learned
// on the rungs before it, and the first satisfiable rung is the minimum.
func TestProofCertifiesAtMostKLadder(t *testing.T) {
	const n, triples = 40, 110
	rng := rand.New(rand.NewSource(3))
	s := newProofSolver()
	var cnf [][]sat.Lit
	add := func(cl ...sat.Lit) {
		cnf = append(cnf, cl)
		s.AddClause(cl...)
	}
	x := make([]sat.Lit, n)
	for i := range x {
		x[i] = sat.MkLit(s.NewVar(), false)
	}
	for i := 0; i < triples; i++ {
		v := distinct3(rng, n)
		add(x[v[0]], x[v[1]], x[v[2]])
	}
	// Sequential counter: r[i][j] holds when at least j+1 of x[0..i] are
	// true, so ladder[k] = r[n-1][k] says more than k are.
	r := make([][]sat.Lit, n)
	for i := range r {
		r[i] = make([]sat.Lit, n)
		for j := range r[i] {
			r[i][j] = sat.MkLit(s.NewVar(), false)
		}
		add(x[i].Not(), r[i][0])
		for j := range r[i] {
			if i > 0 {
				add(r[i-1][j].Not(), r[i][j])
				if j > 0 {
					add(x[i].Not(), r[i-1][j-1].Not(), r[i][j])
				}
			}
		}
	}
	ladder := r[n-1]
	refuted := 0
	for k := 0; k < n; k++ {
		a := ladder[k].Not()
		st := s.Solve(a)
		if st == sat.Unsat {
			checkRefutation(t, s, a)
			refuted++
			continue
		}
		if st != sat.Sat {
			t.Fatalf("rung %d: %v", k, st)
		}
		checkModel(t, s, cnf)
		count := 0
		for _, l := range x {
			if s.Model(l.Var()) {
				count++
			}
		}
		if count > k {
			t.Fatalf("rung %d: model sets %d variables", k, count)
		}
		break
	}
	if refuted < 5 {
		t.Fatalf("%d rungs refuted: the ladder is too easy to exercise learning", refuted)
	}
}

func TestProofCertifiesAssumptionUnsat(t *testing.T) {
	// x1 -> x2, x2 -> x3, and we assume x1 and ¬x3: UNSAT under
	// assumptions while the instance itself is satisfiable. The dumped
	// CNF includes the assumptions as units, so the proof refutes it.
	s := newProofSolver()
	v := make([]int, 4)
	for i := range v {
		v[i] = s.NewVar()
	}
	s.AddClause(sat.MkLit(v[0], true), sat.MkLit(v[1], false))
	s.AddClause(sat.MkLit(v[1], true), sat.MkLit(v[2], false))
	assumps := []sat.Lit{sat.MkLit(v[0], false), sat.MkLit(v[2], true)}
	if st := s.Solve(assumps...); st != sat.Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	checkRefutation(t, s, assumps...)
	// The session stays usable and a later solve is certifiable too.
	if st := s.Solve(sat.MkLit(v[0], false), sat.MkLit(v[2], false)); st != sat.Sat {
		t.Fatalf("follow-up solve: got %v, want Sat", st)
	}
}

func TestProofOffByDefault(t *testing.T) {
	s := sat.New()
	pigeonhole(s, 3)
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	if s.ProofEnabled() || s.ProofBytes(true) != nil {
		t.Fatal("proof logging must be off unless StartProof is called")
	}
}
