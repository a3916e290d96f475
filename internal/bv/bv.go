// Package bv is a bitvector and pseudo-boolean constraint layer over the
// CDCL solver in internal/sat. It plays the role Z3 plays in the paper:
// ParserHawk's encoder builds formulas over fixed-width bitvectors (TCAM
// values, masks, one-hot state selectors) and asks for a model.
//
// Formulas are constructed with Tseitin transformation; constant operands
// are folded eagerly so that the optimized encodings (which replace free
// symbolic constants with small selector variables, §6.4) produce
// dramatically smaller CNF — the mechanism behind the paper's speedups.
package bv

import (
	"fmt"

	"parserhawk/internal/sat"
)

// Lit is a boolean formula handle: a SAT literal, with the solver's
// constant-true literal used to fold constants.
type Lit = sat.Lit

// BV is a fixed-width bitvector of boolean formulas, most significant bit
// first (index 0 = MSB), matching the wire order used everywhere else.
type BV struct {
	Bits []Lit
}

// Width returns the bitvector's width.
func (b BV) Width() int { return len(b.Bits) }

// Solver wraps a SAT solver with formula-construction helpers.
//
// Gate construction is hash-consed: structurally identical And/Xor/Ite
// gates are built once and shared, so repeated subcircuits (the CEGIS
// loop re-encodes near-identical counterexample circuits constantly) stop
// emitting duplicate CNF. All three gate kinds share one flat
// open-addressing table keyed by their operand literals (cons.go).
type Solver struct {
	SAT *sat.Solver

	tru sat.Lit // literal fixed to true

	cons consTable

	gates    int64 // Tseitin gates actually allocated (table misses)
	consHits int64 // gate constructions answered from the table
}

// Metrics combines the underlying CDCL counters with the bit-blasting
// layer's own: how many Tseitin gates the encoder materialized (constant
// folding and hash-consing make this far smaller than the number of
// formula-construction calls), and how many gate constructions the
// hash-cons table answered without emitting CNF.
type Metrics struct {
	sat.Metrics
	Gates    int64 `json:"gates"`
	ConsHits int64 `json:"cons_hits"`
}

// Add accumulates another snapshot into m, the CDCL counters and the
// bit-blasting layer's alike (for totals over the many solvers a
// compilation creates).
func (m *Metrics) Add(o Metrics) {
	m.Metrics.Add(o.Metrics)
	m.Gates += o.Gates
	m.ConsHits += o.ConsHits
}

// Metrics snapshots the solver's cumulative counters.
func (s *Solver) Metrics() Metrics {
	return Metrics{Metrics: s.SAT.Metrics(), Gates: s.gates, ConsHits: s.consHits}
}

// New returns a fresh solver with its constant-true literal asserted.
func New() *Solver { return newSolver(false) }

// NewRecording returns a solver that logs every clause (including the
// constant-true unit added here) so the instance can later be exported
// with WriteDIMACS. Costs one clause copy per AddClause; use only when an
// export may be requested.
func NewRecording() *Solver { return newSolver(true) }

func newSolver(record bool) *Solver {
	s := &Solver{SAT: sat.New()}
	s.SAT.RecordOriginal = record
	v := s.SAT.NewVar()
	s.tru = sat.MkLit(v, false)
	s.SAT.AddClause(s.tru)
	return s
}

// True and False return the constant literals.
func (s *Solver) True() Lit  { return s.tru }
func (s *Solver) False() Lit { return s.tru.Not() }

// NewLit allocates a fresh free boolean variable.
func (s *Solver) NewLit() Lit { return sat.MkLit(s.SAT.NewVar(), false) }

// Bool converts a Go bool to the corresponding constant literal.
func (s *Solver) Bool(b bool) Lit {
	if b {
		return s.tru
	}
	return s.tru.Not()
}

func (s *Solver) isTrue(l Lit) bool  { return l == s.tru }
func (s *Solver) isFalse(l Lit) bool { return l == s.tru.Not() }

// NewBV allocates a fresh symbolic bitvector of the given width.
func (s *Solver) NewBV(width int) BV {
	b := BV{Bits: make([]Lit, width)}
	for i := range b.Bits {
		b.Bits[i] = s.NewLit()
	}
	return b
}

// Const builds a constant bitvector from the low width bits of v.
func (s *Solver) Const(v uint64, width int) BV {
	b := BV{Bits: make([]Lit, width)}
	for i := 0; i < width; i++ {
		b.Bits[i] = s.Bool(v>>uint(width-1-i)&1 == 1)
	}
	return b
}

// Not negates a boolean formula.
func (s *Solver) Not(a Lit) Lit { return a.Not() }

// And returns a conjunction gate, folding constants.
func (s *Solver) And(a, b Lit) Lit {
	switch {
	case s.isFalse(a) || s.isFalse(b):
		return s.False()
	case s.isTrue(a):
		return b
	case s.isTrue(b):
		return a
	case a == b:
		return a
	case a == b.Not():
		return s.False()
	}
	if a > b {
		a, b = b, a
	}
	k := andKey(a, b)
	g, slot, ok := s.cons.lookup(k)
	if ok {
		s.consHits++
		return g
	}
	g = s.NewLit()
	s.gates++
	s.SAT.AddBinary(g.Not(), a)
	s.SAT.AddBinary(g.Not(), b)
	s.SAT.AddClause(g, a.Not(), b.Not())
	s.cons.insert(slot, k, g)
	return g
}

// Or returns a disjunction gate, folding constants.
func (s *Solver) Or(a, b Lit) Lit {
	return s.And(a.Not(), b.Not()).Not()
}

// Xor returns an exclusive-or gate, folding constants.
func (s *Solver) Xor(a, b Lit) Lit {
	switch {
	case s.isFalse(a):
		return b
	case s.isFalse(b):
		return a
	case s.isTrue(a):
		return b.Not()
	case s.isTrue(b):
		return a.Not()
	case a == b:
		return s.False()
	case a == b.Not():
		return s.True()
	}
	if a > b {
		a, b = b, a
	}
	k := xorKey(a, b)
	g, slot, ok := s.cons.lookup(k)
	if ok {
		s.consHits++
		return g
	}
	g = s.NewLit()
	s.gates++
	s.SAT.AddClause(g.Not(), a, b)
	s.SAT.AddClause(g.Not(), a.Not(), b.Not())
	s.SAT.AddClause(g, a.Not(), b)
	s.SAT.AddClause(g, a, b.Not())
	s.cons.insert(slot, k, g)
	return g
}

// Iff returns a ↔ b.
func (s *Solver) Iff(a, b Lit) Lit { return s.Xor(a, b).Not() }

// Implies returns a → b.
func (s *Solver) Implies(a, b Lit) Lit { return s.Or(a.Not(), b) }

// OrN folds Or over any number of formulas (empty = false).
func (s *Solver) OrN(ls ...Lit) Lit {
	g := s.False()
	for _, l := range ls {
		g = s.Or(g, l)
	}
	return g
}

// MuxLit returns c ? a : b as a boolean formula: a single hash-consed
// if-then-else gate after constant folding. The condition is canonicalized
// to positive polarity (ITE(¬c,a,b) = ITE(c,b,a)) so both spellings share
// one gate.
func (s *Solver) MuxLit(c, a, b Lit) Lit {
	if s.isTrue(c) {
		return a
	}
	if s.isFalse(c) {
		return b
	}
	if a == b {
		return a
	}
	if c.Neg() {
		c, a, b = c.Not(), b, a
	}
	switch {
	case s.isTrue(a) || a == c:
		return s.Or(c, b)
	case s.isFalse(a) || a == c.Not():
		return s.And(c.Not(), b)
	case s.isTrue(b) || b == c.Not():
		return s.Or(c.Not(), a)
	case s.isFalse(b) || b == c:
		return s.And(c, a)
	case a == b.Not():
		return s.Iff(c, a)
	}
	k := muxKey(c, a, b)
	g, slot, ok := s.cons.lookup(k)
	if ok {
		s.consHits++
		return g
	}
	g = s.NewLit()
	s.gates++
	s.SAT.AddClause(g.Not(), c.Not(), a)
	s.SAT.AddClause(g.Not(), c, b)
	s.SAT.AddClause(g, c.Not(), a.Not())
	s.SAT.AddClause(g, c, b.Not())
	// Redundant but propagation-strengthening: a and b agreeing fixes g
	// without deciding c.
	s.SAT.AddClause(g, a.Not(), b.Not())
	s.SAT.AddClause(g.Not(), a, b)
	s.cons.insert(slot, k, g)
	return g
}

// BVOr computes the bitwise disjunction of equal-width vectors.
func (s *Solver) BVOr(a, b BV) BV {
	s.sameWidth(a, b, "BVOr")
	out := BV{Bits: make([]Lit, a.Width())}
	for i := range out.Bits {
		out.Bits[i] = s.Or(a.Bits[i], b.Bits[i])
	}
	return out
}

// MaskedEq returns the TCAM match formula key & mask == value & mask. This
// is the core condition of every entry (§3.2, step 1).
func (s *Solver) MaskedEq(key, mask, value BV) Lit {
	s.sameWidth(key, mask, "MaskedEq")
	s.sameWidth(key, value, "MaskedEq")
	g := s.True()
	for i := range key.Bits {
		// mask[i] -> (key[i] == value[i])
		g = s.And(g, s.Implies(mask.Bits[i], s.Iff(key.Bits[i], value.Bits[i])))
	}
	return g
}

// SelectBV returns Σ sel[i]·opts[i] assuming sel is one-hot. All options
// must share a width. A non-one-hot selection yields the bitwise OR of the
// selected options, so callers must constrain sel with ExactlyOne.
func (s *Solver) SelectBV(sel []Lit, opts []BV) BV {
	if len(sel) != len(opts) {
		panic(fmt.Sprintf("bv: SelectBV %d selectors for %d options", len(sel), len(opts)))
	}
	w := opts[0].Width()
	out := s.Const(0, w)
	for i, o := range opts {
		s.sameWidth(o, out, "SelectBV")
		masked := BV{Bits: make([]Lit, w)}
		for j := 0; j < w; j++ {
			masked.Bits[j] = s.And(sel[i], o.Bits[j])
		}
		out = s.BVOr(out, masked)
	}
	return out
}

// AtMostOne asserts that at most one of the literals is true (pairwise
// encoding; selector vectors here are small).
func (s *Solver) AtMostOne(ls []Lit) {
	for i := 0; i < len(ls); i++ {
		for j := i + 1; j < len(ls); j++ {
			s.SAT.AddBinary(ls[i].Not(), ls[j].Not())
		}
	}
}

// ExactlyOne asserts that exactly one of the literals is true.
func (s *Solver) ExactlyOne(ls []Lit) {
	s.SAT.AddClause(ls...)
	s.AtMostOne(ls)
}

// CountLadder builds a full sequential-counter over ls and returns its
// threshold literals: th[j] is implied whenever at least j+1 of ls are
// true (one-directional). Solving under the assumption th[k].Not()
// therefore enforces Σ ls ≤ k without committing the solver to any
// particular bound, letting one encoded instance serve a whole budget
// ladder of queries by swapping assumptions instead of re-encoding.
func (s *Solver) CountLadder(ls []Lit) []Lit {
	n := len(ls)
	if n == 0 {
		return nil
	}
	// Row i covers prefix ls[0..i]; row[j] ⇔ at least j+1 of the prefix.
	prev := []Lit{ls[0]}
	for i := 1; i < n; i++ {
		row := make([]Lit, i+1)
		for j := range row {
			row[j] = s.NewLit()
		}
		s.SAT.AddBinary(ls[i].Not(), row[0])
		for j := range prev {
			s.SAT.AddBinary(prev[j].Not(), row[j])
			s.SAT.AddClause(ls[i].Not(), prev[j].Not(), row[j+1])
		}
		prev = row
	}
	return prev
}

// Assert requires the formula to hold.
func (s *Solver) Assert(l Lit) { s.SAT.AddClause(l) }

// Solve runs the SAT search (optionally under assumptions).
func (s *Solver) Solve(assumptions ...Lit) sat.Status {
	return s.SAT.Solve(assumptions...)
}

// Value reads a boolean formula's value from the last model.
func (s *Solver) Value(l Lit) bool {
	v := s.SAT.Model(l.Var())
	if l.Neg() {
		return !v
	}
	return v
}

// BVValue reads a bitvector's value from the last model.
func (s *Solver) BVValue(b BV) uint64 {
	var v uint64
	for _, l := range b.Bits {
		v <<= 1
		if s.Value(l) {
			v |= 1
		}
	}
	return v
}

// NumVars exposes the size of the underlying CNF in variables; Table 3's
// "search space (bits)" column reports the free decision bits separately.
func (s *Solver) NumVars() int { return s.SAT.NumVars() }

func (s *Solver) sameWidth(a, b BV, op string) {
	if a.Width() != b.Width() {
		panic(fmt.Sprintf("bv: %s width mismatch %d vs %d", op, a.Width(), b.Width()))
	}
}
