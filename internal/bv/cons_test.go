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
// that every repetition after the first is answered from the hash-cons
// table: no new variables, no new gates, and registered cons hits.
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

// TestConsTableAgainstMap drives the hash-cons table through seven
// growths (16 to 2048 slots) with a Go map as the reference. A quarter of
// the keys share the top 12 bits of their hash, so they all start probing
// at one slot at every size the test reaches and form one long cluster.
// The rest come in threes, an And, a Xor and a mux over the same first
// two operands, so only the kind tells them apart. Every insert is
// preceded by a lookup that must miss, and after each insert a random
// earlier key and a random key are looked up too.
func TestConsTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lit := func() Lit { return Lit(2 + rng.Intn(1<<20)) }
	randomKey := func() gateKey {
		switch rng.Intn(3) {
		case 0:
			return andKey(lit(), lit())
		case 1:
			return xorKey(lit(), lit())
		}
		return muxKey(lit(), lit(), lit())
	}
	home := randomKey().hash() >> 52
	var keys []gateKey
	for colliding := 0; len(keys) < 1200; {
		if 4*colliding < len(keys) {
			k := randomKey()
			for k.hash()>>52 != home {
				k = randomKey()
			}
			keys = append(keys, k)
			colliding++
			continue
		}
		a, b := lit(), lit()
		keys = append(keys, andKey(a, b), xorKey(a, b), muxKey(a, b, lit()))
	}
	ref := map[gateKey]Lit{}
	var tab consTable
	check := func(k gateKey) {
		t.Helper()
		g, _, ok := tab.lookup(k)
		want, wantOK := ref[k]
		if ok != wantOK || ok && g != want {
			t.Fatalf("lookup %+v = (%d, %v), reference has (%d, %v)", k, g, ok, want, wantOK)
		}
	}
	sizes, size := 0, 0
	for i, k := range keys {
		g, slot, ok := tab.lookup(k)
		if want, dup := ref[k]; dup {
			if !ok || g != want {
				t.Fatalf("key %d %+v: lookup = (%d, %v), reference has %d", i, k, g, ok, want)
			}
			continue
		}
		if ok {
			t.Fatalf("key %d %+v: lookup hit gate %d before it was inserted", i, k, g)
		}
		if len(tab.slots) != size {
			sizes, size = sizes+1, len(tab.slots)
		}
		tab.insert(slot, k, Lit(2*i+2))
		ref[k] = Lit(2*i + 2)
		check(keys[rng.Intn(i+1)])
		check(randomKey())
	}
	for _, k := range keys {
		check(k)
	}
	if tab.used != len(ref) {
		t.Errorf("table holds %d gates, reference %d", tab.used, len(ref))
	}
	if sizes != 8 || size != 2048 {
		t.Errorf("table took %d sizes, ending at %d slots; want 8, from 16 to 2048", sizes, size)
	}
}

// buildLayeredCircuit requests len(leaves) gates per layer for depth
// layers, each over operands of distinct variables drawn from the previous
// layer (the first layer draws from the leaves): And, Or, Xor and MuxLit
// with random polarities. Every fourth request on average repeats one made
// earlier in its layer. With distinct variables no request folds, so each
// one is exactly one hash-cons lookup; it returns how many it made.
func buildLayeredCircuit(s *Solver, rng *rand.Rand, leaves []Lit, depth int) int {
	type request struct {
		op      int
		x, y, z Lit
	}
	width := len(leaves)
	prev := append([]Lit(nil), leaves...)
	layer := make([]Lit, width)
	reqs := make([]request, 0, width)
	// pick draws an operand whose variable is neither u nor v.
	pick := func(u, v int) Lit {
		for {
			l := prev[rng.Intn(width)]
			if l.Var() != u && l.Var() != v {
				return pin(l, rng.Intn(2) == 0)
			}
		}
	}
	calls := 0
	for d := 0; d < depth; d++ {
		reqs = reqs[:0]
		for i := range layer {
			var r request
			if len(reqs) > 0 && rng.Intn(4) == 0 {
				r = reqs[rng.Intn(len(reqs))]
			} else {
				r.op = rng.Intn(4)
				r.x = pick(-1, -1)
				r.y = pick(r.x.Var(), -1)
				r.z = pick(r.x.Var(), r.y.Var())
			}
			reqs = append(reqs, r)
			calls++
			switch r.op {
			case 0:
				layer[i] = s.And(r.x, r.y)
			case 1:
				layer[i] = s.Or(r.x, r.y)
			case 2:
				layer[i] = s.Xor(r.x, r.y)
			default:
				layer[i] = s.MuxLit(r.z, r.x, r.y)
			}
		}
		prev, layer = layer, prev
	}
	return calls
}

// TestRebuiltCircuitIsAllConsHits builds one random layered circuit twice
// in one solver. The second pass must add no variable, gate or clause, and
// every gate request in it must be answered by the hash-cons table.
func TestRebuiltCircuitIsAllConsHits(t *testing.T) {
	s := New()
	leaves := s.NewBV(40).Bits
	before := s.Metrics()
	calls := buildLayeredCircuit(s, rand.New(rand.NewSource(3)), leaves, 30)
	first := s.Metrics()
	if got := first.Gates + first.ConsHits - before.Gates - before.ConsHits; got != int64(calls) {
		t.Fatalf("first pass: %d gates + cons hits for %d requests", got, calls)
	}
	if first.ConsHits == before.ConsHits {
		t.Fatal("first pass repeated no request")
	}
	if again := buildLayeredCircuit(s, rand.New(rand.NewSource(3)), leaves, 30); again != calls {
		t.Fatalf("second pass made %d requests, first %d", again, calls)
	}
	second := s.Metrics()
	if second.Vars != first.Vars || second.Gates != first.Gates || second.Clauses != first.Clauses {
		t.Errorf("second pass grew the encoding: vars %d -> %d, gates %d -> %d, clauses %d -> %d",
			first.Vars, second.Vars, first.Gates, second.Gates, first.Clauses, second.Clauses)
	}
	if hits := second.ConsHits - first.ConsHits; hits != int64(calls) {
		t.Errorf("second pass: %d cons hits for %d requests", hits, calls)
	}
}

// BenchmarkGateConstruction builds a random layered circuit of 100k gate
// requests (about a quarter of them repeats) in a fresh solver per op: the
// hash-cons table and the solver's variable and clause storage, with no
// search.
func BenchmarkGateConstruction(b *testing.B) {
	b.ReportAllocs()
	var gates int64
	for i := 0; i < b.N; i++ {
		s := New()
		buildLayeredCircuit(s, rand.New(rand.NewSource(1)), s.NewBV(1000).Bits, 100)
		gates = s.Metrics().Gates
	}
	b.ReportMetric(float64(gates), "gates/op")
}
