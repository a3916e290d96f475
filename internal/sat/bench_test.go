package sat

import (
	"math/rand"
	"testing"
)

// The microbenchmarks below isolate the three hot paths of the solver so
// performance changes are attributable per-mechanism, not just end-to-end:
// propagation throughput (binary implication lists vs long-clause watchers
// with blocking literals), conflict-analysis rate, and the reduceDB /
// arena-GC cost. CI runs them at -benchtime=1x so they cannot silently rot.

// buildBinaryChain wires vars v0 → v1 → … → v(n-1) through the binary
// implication lists: assuming v0 propagates the whole chain.
func buildBinaryChain(n int) (*Solver, Lit) {
	s := New()
	vs := make([]Lit, n)
	for i := range vs {
		vs[i] = MkLit(s.NewVar(), false)
	}
	for i := 0; i+1 < n; i++ {
		s.AddBinary(vs[i].Not(), vs[i+1])
	}
	return s, vs[0]
}

// BenchmarkPropagationBinaryChain measures pure binary-implication-list
// throughput: every Solve call re-propagates a 20k-literal chain with no
// conflicts and no long clauses.
func BenchmarkPropagationBinaryChain(b *testing.B) {
	const n = 20000
	s, head := buildBinaryChain(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Solve(head) != Sat {
			b.Fatal("chain must be satisfiable")
		}
	}
	m := s.Metrics()
	b.ReportMetric(float64(m.Propagations)/float64(b.N), "props/op")
}

// BenchmarkPropagationLongClauses measures long-clause propagation: the
// chain links are ternary clauses (¬vi ∨ z ∨ vi+1) whose third literal z
// is false, so every propagation walks the watcher list, misses the
// blocker, and searches the arena for a replacement watch.
func BenchmarkPropagationLongClauses(b *testing.B) {
	const n = 20000
	s := New()
	vs := make([]Lit, n)
	for i := range vs {
		vs[i] = MkLit(s.NewVar(), false)
	}
	z := MkLit(s.NewVar(), false)
	for i := 0; i+1 < n; i++ {
		s.AddClause(vs[i].Not(), z, vs[i+1])
	}
	s.AddClause(z.Not()) // force z false AFTER the clauses, keeping them ternary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Solve(vs[0]) != Sat {
			b.Fatal("chain must be satisfiable")
		}
	}
	m := s.Metrics()
	b.ReportMetric(float64(m.Propagations)/float64(b.N), "props/op")
}

// BenchmarkConflictAnalysis measures the conflict-analysis rate on the
// pigeonhole principle PHP(8,7) — an unsatisfiable instance whose proof is
// all conflicts, so nearly every cycle is analyze()/record() — and the
// length of the clauses it learns after minimization.
func BenchmarkConflictAnalysis(b *testing.B) {
	var total Metrics
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New()
		addPigeonhole(s, 8, 7)
		b.StartTimer()
		if s.Solve() != Unsat {
			b.Fatal("pigeonhole must be unsat")
		}
		total.Add(s.Metrics())
	}
	b.ReportMetric(float64(total.Conflicts)/float64(b.N), "conflicts/op")
	b.ReportMetric(float64(total.LearnedLiterals)/float64(total.LearnedClauses), "lits/learnt")
}

// addPigeonhole encodes PHP(pigeons, holes): every pigeon in some hole, no
// two pigeons share a hole.
func addPigeonhole(s *Solver, pigeons, holes int) {
	vars := make([][]int, pigeons)
	for p := range vars {
		vars[p] = make([]int, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = MkLit(vars[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddBinary(MkLit(vars[p1][h], true), MkLit(vars[p2][h], true))
			}
		}
	}
}

// hardRandom3SAT builds a fixed-seed random 3-SAT instance near the phase
// transition, large enough that solving accumulates a learnt database past
// the reduceDB trigger.
func hardRandom3SAT(nVars int) *Solver {
	rng := rand.New(rand.NewSource(7))
	s := New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	nClauses := int(float64(nVars) * 4.3)
	for i := 0; i < nClauses; i++ {
		var c [3]Lit
		for j := range c {
			c[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
		s.AddClause(c[:]...)
	}
	return s
}

// BenchmarkSolveWithReduceDB is the end-to-end reduceDB workload: a hard
// random 3-SAT solve that crosses the learnt-database limit repeatedly, so
// the measured time includes the glue-tier partition, the deletion sort,
// and the arena compactions.
func BenchmarkSolveWithReduceDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := hardRandom3SAT(250)
		s.MaxConflicts = 20000
		b.StartTimer()
		s.Solve()
	}
}

// BenchmarkArenaGC isolates the arena compaction itself: a learnt database
// is accumulated once, then each iteration relocates every live clause,
// patches trail reasons, and rebuilds the watch lists.
func BenchmarkArenaGC(b *testing.B) {
	s := hardRandom3SAT(250)
	s.MaxConflicts = 5000
	s.Solve()
	if len(s.learnts) == 0 {
		b.Fatal("expected a live learnt database")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.garbageCollect()
	}
	b.ReportMetric(float64(len(s.arena)), "arena-words")
}
