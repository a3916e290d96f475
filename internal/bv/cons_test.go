package bv

import (
	"math/bits"
	"math/rand"
	"testing"

	"parserhawk/internal/sat"
)

// buildRandomCircuit grows a random gate DAG over nLeaves fresh leaves
// using the consed gate constructors and, from the same rng draws,
// evaluates it in plain Go: bit a of a node's truth table is the node's
// value when leaf i takes bit i of a. Drawing operands from the whole
// node list (not just the frontier) makes shared subcircuits common,
// which is exactly what the hash-consing layer targets. It returns the
// leaves, the root, and the root's truth table.
func buildRandomCircuit(s *Solver, rng *rand.Rand, nLeaves, gates int) ([]Lit, Lit, uint64) {
	all := uint64(1)<<(1<<nLeaves) - 1
	nodes := make([]Lit, nLeaves)
	tables := make([]uint64, nLeaves)
	for i := range nodes {
		nodes[i] = s.NewLit()
		for a := 0; a < 1<<nLeaves; a++ {
			if a>>i&1 == 1 {
				tables[i] |= 1 << a
			}
		}
	}
	pick := func() (Lit, uint64) {
		k := rng.Intn(len(nodes))
		if rng.Intn(2) == 0 {
			return nodes[k].Not(), ^tables[k] & all
		}
		return nodes[k], tables[k]
	}
	for i := 0; i < gates; i++ {
		op := rng.Intn(4)
		a, ta := pick()
		b, tb := pick()
		var g Lit
		var tg uint64
		switch op {
		case 0:
			g, tg = s.And(a, b), ta&tb
		case 1:
			g, tg = s.Or(a, b), ta|tb
		case 2:
			g, tg = s.Xor(a, b), ta^tb
		default:
			c, tc := pick()
			g, tg = s.MuxLit(c, a, b), tc&ta|^tc&tb&all
		}
		nodes = append(nodes, g)
		tables = append(tables, tg)
	}
	return nodes[:nLeaves], nodes[len(nodes)-1], tables[len(tables)-1]
}

// TestConsedCircuitsModelEquivalent builds random circuits in a consed
// solver and compares the root's model value under every assignment of
// the leaves with the circuit's plain Go evaluation: hash-consing and the
// constant folds must never change circuit semantics.
func TestConsedCircuitsModelEquivalent(t *testing.T) {
	const nLeaves = 5
	for trial := 0; trial < 40; trial++ {
		s := New()
		leaves, root, table := buildRandomCircuit(s, rand.New(rand.NewSource(int64(1000+trial))), nLeaves, 30)
		for assign := 0; assign < 1<<nLeaves; assign++ {
			pinned := make([]Lit, nLeaves)
			for i, l := range leaves {
				pinned[i] = pin(l, assign&(1<<i) != 0)
			}
			if st := s.Solve(pinned...); st != sat.Sat {
				t.Fatalf("trial %d assign %b: consed solver says %v", trial, assign, st)
			}
			if got, want := s.Value(root), table>>assign&1 == 1; got != want {
				t.Fatalf("trial %d assign %05b: consed root=%v, Go evaluation=%v",
					trial, assign, got, want)
			}
		}
	}
}

// TestConsingShrinksRepeatedSubcircuits encodes the same comparison
// subcircuit many times — the shape of CEGIS counterexample circuitry,
// where every example re-matches the same symbolic entries — and checks
// that every repetition after the first is answered from the structural
// caches: no new variables, no new gates, and registered cache hits.
func TestConsingShrinksRepeatedSubcircuits(t *testing.T) {
	s := New()
	key := s.NewBV(12)
	mask := s.NewBV(12)
	encode := func() {
		fired := s.MaskedEq(key, mask, s.Const(0x5A5, 12))
		miss := s.MaskedEq(key, s.Const(0xFFF, 12), s.Const(0x0FF, 12))
		s.Assert(s.Or(fired, miss.Not()))
	}
	encode()
	first := s.Metrics()
	for rep := 2; rep <= 10; rep++ {
		encode()
	}
	m := s.Metrics()
	if m.Vars != first.Vars || m.Gates != first.Gates {
		t.Errorf("repetitions 2-10 grew the encoding: vars %d -> %d, gates %d -> %d",
			first.Vars, m.Vars, first.Gates, m.Gates)
	}
	if m.ConsHits == 0 {
		t.Error("no cons-cache hits recorded on a fixture made of repeated subcircuits")
	}
	if st := s.Solve(); st != sat.Sat {
		t.Errorf("repeated subcircuit instance is %v", st)
	}
}

// TestCountLadderMatchesAtMostK checks the soundness claim behind the
// incremental budget ladder: for every assignment of the counted literals
// and every threshold k, solving under the assumption ladder[k].Not() is
// satisfiable exactly when at most k literals are true — i.e. the
// assumption enforces precisely the cardinality bound Σ ls ≤ k.
func TestCountLadderMatchesAtMostK(t *testing.T) {
	const n = 6
	s := New()
	ls := make([]Lit, n)
	for i := range ls {
		ls[i] = s.NewLit()
	}
	ladder := s.CountLadder(ls)
	if len(ladder) != n {
		t.Fatalf("ladder has %d thresholds for %d literals", len(ladder), n)
	}
	for assign := 0; assign < 1<<n; assign++ {
		pinned := make([]Lit, n)
		for i, l := range ls {
			pinned[i] = pin(l, assign&(1<<i) != 0)
		}
		count := bits.OnesCount(uint(assign))
		for k := 0; k < n; k++ {
			want := sat.Unsat
			if count <= k {
				want = sat.Sat
			}
			if got := s.Solve(append(pinned[:n:n], ladder[k].Not())...); got != want {
				t.Fatalf("assign %06b (count %d) under ¬ladder[%d]: got %v want %v",
					assign, count, k, got, want)
			}
		}
		// Sanity: with no threshold assumed, any count is permitted.
		if got := s.Solve(pinned...); got != sat.Sat {
			t.Fatalf("assign %06b unconstrained: %v", assign, got)
		}
	}
}
