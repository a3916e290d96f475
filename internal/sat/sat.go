// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver. It is the combinatorial search engine underneath ParserHawk's
// synthesis queries, standing in for Z3's finite-domain core (the paper
// uses Z3 purely as a bitvector/boolean constraint solver; see DESIGN.md).
//
// The engine is Glucose-class: clause literals live in one flat arena
// addressed by clause references (no per-clause heap objects, so
// propagation walks contiguous memory and the reducer compacts by arena
// GC), watchers carry a cached blocking literal that skips the arena
// dereference when the clause is already satisfied, binary clauses are
// propagated from per-literal implication lists ahead of long clauses,
// and learnt clauses are tracked by literal block distance (LBD) with a
// glue-tiered retention policy. Search is CDCL with VSIDS branching,
// phase saving, first-UIP conflict analysis with recursive and
// binary-implication clause minimization, restarts on a Luby-weighted
// schedule that about doubles (see restartLimit), and incremental solving
// under assumptions.
package sat

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// Lit is a literal: variable index v (0-based) with polarity, encoded as
// 2v for the positive literal and 2v+1 for the negation.
type Lit int32

// MkLit builds a literal for variable v, negated when neg is true.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// lbool is a MiniSat-style ternary: XORing with a literal's sign bit
// flips true/false and keeps undef in the ≥2 range, so value() is a load
// and an XOR with no branches.
type lbool uint8

const (
	lTrue  lbool = 0
	lFalse lbool = 1
	lUndef lbool = 2
)

// isUndef reports an unassigned value. After the sign XOR an undef cell
// reads as 2 or 3, so equality against lUndef is NOT the right test.
func (b lbool) isUndef() bool { return b >= 2 }

// cref addresses a clause in the arena: the index of its header word.
type cref = uint32

const (
	// crefUndef is "no clause" (propagation found no conflict).
	crefUndef cref = 0xFFFFFFFF
	// crefBin marks a conflict in a binary clause, whose two literals are
	// in Solver.binConfl — binary clauses have no arena representation.
	crefBin cref = 0xFFFFFFFE
)

// Arena clause layout, in Lit-sized words starting at the cref:
//
//	problem clause: [header, lit0, lit1, ...]
//	learnt clause:  [header, lbd, act(float32 bits), lit0, lit1, ...]
//
// The header packs the literal count and flag bits. Binary clauses never
// enter the arena: they live in the per-literal implication lists.
const (
	hdrLearnt    = 1 << 0
	hdrDeleted   = 1 << 1
	hdrProtected = 1 << 2 // survives one reduceDB round (recently useful)
	hdrReloc     = 1 << 3 // moved by arena GC; next word is the new cref
	hdrSizeShift = 4
)

// reason encoding: a cref, or a binary implication (the implying clause's
// other literal, tagged), or nothing. Binary reasons never materialize a
// clause — conflict analysis reads the literal straight from the tag.
const (
	reasonNone    uint32 = 0xFFFFFFFF
	reasonBinFlag uint32 = 1 << 31
)

func binReason(other Lit) uint32 { return reasonBinFlag | uint32(other) }

// watcher is one entry of a literal's long-clause watch list. blocker is
// any other literal of the clause: if it is already true the clause is
// satisfied and the arena is never touched — the common case.
type watcher struct {
	c       cref
	blocker Lit
}

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ErrCanceled is returned (via Solver.Err) when solving stopped because the
// caller's cancel function fired.
var ErrCanceled = errors.New("sat: solve canceled")

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena   []Lit  // flat clause storage; crefs index into it
	clauses []cref // long problem clauses
	learnts []cref // long learnt clauses

	// RecordOriginal, when set before clauses are added, logs every clause
	// AddClause receives (pre-simplification) so WriteDIMACS can export the
	// exact instance. Off by default: synthesis runs add millions of
	// clauses and do not need the copy.
	RecordOriginal bool
	original       [][]Lit

	watches    [][]watcher // literal -> long clauses watching it
	binWatches [][]Lit     // literal p -> literals implied when p is true

	assign   []lbool // variable assignment
	level    []int32 // decision level per variable
	reason   []uint32
	phase    []bool // saved phase per variable
	activity []float64
	varInc   float64
	claInc   float64

	order heap // VSIDS priority queue

	trail    []Lit
	trailLim []int32
	qhead    int

	seen     []bool
	lbdStamp []int64 // LBD counting stamp per decision level; computeLBD grows it
	lbdTick  int64
	binConfl [2]Lit // literals of a conflicting binary clause
	binAnte  [1]Lit // a binary reason's antecedent, as redundant reads it
	minStack []Lit  // redundant's walk stack
	addBuf   []Lit  // AddClause scratch

	conflicts  int64
	decisions  int64
	propsN     int64
	binPropsN  int64
	restartsN  int64
	learnedN   int64
	learnedLN  int64
	clausesN   int64
	ticks      int64
	solvesN    int64
	retainedN  int64   // Σ over Solve calls of learned clauses alive at entry
	glueN      int64   // learnt clauses with LBD ≤ 2 at learning time
	binLearntN int64   // learnt binary clauses (kept forever, off-arena)
	lastDelta  Metrics // counter movement of the most recent Solve call

	// Cancel, when non-nil, is polled periodically; returning true aborts
	// the solve with Unknown and Err() == ErrCanceled.
	Cancel func() bool
	// MaxConflicts, when > 0, bounds total conflicts per Solve call.
	MaxConflicts int64

	// proof, when non-nil (StartProof), logs every clause-database
	// change in DRAT format; see proof.go. Off by default: the hot path
	// must stay allocation-free.
	proof *proofLog

	err        error
	unsatForce bool // a top-level conflict made the instance permanently UNSAT
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1, claInc: 1}
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	if v == cap(s.assign) {
		s.growVars()
	}
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, reasonNone)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.binWatches = append(s.binWatches, nil, nil)
	s.order.push(v, &s.activity)
	return v
}

// growVars makes room for half as many variables again as the solver
// holds, in every per-variable array at once. Left to append, each array
// regrows on its own at about 1.25x; encoding allocates variables by the
// hundred thousand, and those copies cost more than the search. 2x growth
// runs a little faster but raised the cold suite's peak memory by up to
// 31% (DESIGN.md). Every array is grown to at least assign's capacity, so
// none fills up before assign does.
func (s *Solver) growVars() {
	s.assign = slices.Grow(s.assign, max(len(s.assign)/2, 16))
	n := cap(s.assign)
	s.level = growTo(s.level, n)
	s.reason = growTo(s.reason, n)
	s.phase = growTo(s.phase, n)
	s.activity = growTo(s.activity, n)
	s.seen = growTo(s.seen, n)
	s.watches = growTo(s.watches, 2*n)
	s.binWatches = growTo(s.binWatches, 2*n)
	s.order.data = growTo(s.order.data, n)
	s.order.pos = growTo(s.order.pos, n)
}

// growTo returns xs with capacity for at least n elements. slices.Grow
// copies the old elements without zeroing their new home first.
func growTo[E any](xs []E, n int) []E { return slices.Grow(xs, n-len(xs)) }

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

// Stats reports cumulative decisions, propagations and conflicts.
func (s *Solver) Stats() (decisions, propagations, conflicts int64) {
	return s.decisions, s.propsN, s.conflicts
}

// Metrics is a snapshot of the solver's cumulative search counters. All
// fields grow monotonically over the solver's lifetime (learned-clause
// counts track clauses ever learned, not the live database, which the
// reduceDB garbage collector shrinks).
type Metrics struct {
	Decisions       int64 `json:"decisions"`
	Propagations    int64 `json:"propagations"`
	Conflicts       int64 `json:"conflicts"`
	LearnedClauses  int64 `json:"learned_clauses"`
	LearnedLiterals int64 `json:"learned_literals"`
	Restarts        int64 `json:"restarts"`
	Clauses         int64 `json:"clauses"`
	Vars            int64 `json:"vars"`
	Solves          int64 `json:"solves"`
	// RetainedClauses sums, over every Solve call, the learned clauses that
	// were alive in the database when the call started — search work carried
	// over from earlier calls instead of re-derived. A solver that is rebuilt
	// for every query always reports zero; an incremental session reports how
	// much the persistent clause database was worth.
	RetainedClauses int64 `json:"retained_clauses"`
	// BinPropagations counts implications served by the binary implication
	// lists — propagations that never touched the clause arena.
	BinPropagations int64 `json:"bin_propagations"`
	// GlueLearnts counts learnt clauses whose LBD at learning time was ≤ 2
	// ("glue" clauses, exempt from deletion forever).
	GlueLearnts int64 `json:"glue_learnts"`
}

// Add accumulates another snapshot into m (for aggregating across the
// many solver instances a synthesis run creates).
func (m *Metrics) Add(o Metrics) {
	m.Decisions += o.Decisions
	m.Propagations += o.Propagations
	m.Conflicts += o.Conflicts
	m.LearnedClauses += o.LearnedClauses
	m.LearnedLiterals += o.LearnedLiterals
	m.Restarts += o.Restarts
	m.Clauses += o.Clauses
	m.Vars += o.Vars
	m.Solves += o.Solves
	m.RetainedClauses += o.RetainedClauses
	m.BinPropagations += o.BinPropagations
	m.GlueLearnts += o.GlueLearnts
}

// Sub returns the counter movement from an earlier snapshot o to m. All
// fields are monotone over a solver's lifetime, so the result is the exact
// effort spent between the two snapshots.
func (m Metrics) Sub(o Metrics) Metrics {
	return Metrics{
		Decisions:       m.Decisions - o.Decisions,
		Propagations:    m.Propagations - o.Propagations,
		Conflicts:       m.Conflicts - o.Conflicts,
		LearnedClauses:  m.LearnedClauses - o.LearnedClauses,
		LearnedLiterals: m.LearnedLiterals - o.LearnedLiterals,
		Restarts:        m.Restarts - o.Restarts,
		Clauses:         m.Clauses - o.Clauses,
		Vars:            m.Vars - o.Vars,
		Solves:          m.Solves - o.Solves,
		RetainedClauses: m.RetainedClauses - o.RetainedClauses,
		BinPropagations: m.BinPropagations - o.BinPropagations,
		GlueLearnts:     m.GlueLearnts - o.GlueLearnts,
	}
}

// Metrics returns the solver's cumulative counters.
func (s *Solver) Metrics() Metrics {
	return Metrics{
		Decisions:       s.decisions,
		Propagations:    s.propsN,
		Conflicts:       s.conflicts,
		LearnedClauses:  s.learnedN,
		LearnedLiterals: s.learnedLN,
		Restarts:        s.restartsN,
		Clauses:         s.clausesN,
		Vars:            int64(len(s.assign)),
		Solves:          s.solvesN,
		RetainedClauses: s.retainedN,
		BinPropagations: s.binPropsN,
		GlueLearnts:     s.glueN,
	}
}

// LastSolveDelta returns the counter movement of the most recent Solve
// call alone: how many decisions, conflicts, learned clauses, and so on
// that single query cost, as opposed to the solver's lifetime totals.
func (s *Solver) LastSolveDelta() Metrics { return s.lastDelta }

// LearntsLive returns the number of learned clauses currently alive in
// the database — long learnts plus binary learnts, which live in the
// implication lists and are never deleted. (reduceDB shrinks the long
// part; the cumulative LearnedClauses metric never shrinks.)
func (s *Solver) LearntsLive() int { return len(s.learnts) + int(s.binLearntN) }

// Err returns the reason a solve ended Unknown, if any.
func (s *Solver) Err() error { return s.err }

// ---- arena accessors ----

func (s *Solver) claSize(c cref) int { return int(uint32(s.arena[c]) >> hdrSizeShift) }

func (s *Solver) claBase(c cref) cref {
	if s.arena[c]&hdrLearnt != 0 {
		return c + 3
	}
	return c + 1
}

func (s *Solver) claLits(c cref) []Lit {
	b := s.claBase(c)
	return s.arena[b : b+cref(s.claSize(c))]
}

func (s *Solver) claLBD(c cref) int      { return int(s.arena[c+1]) }
func (s *Solver) setLBD(c cref, lbd int) { s.arena[c+1] = Lit(lbd) }

func (s *Solver) claAct(c cref) float32 {
	return math.Float32frombits(uint32(s.arena[c+2]))
}

func (s *Solver) setAct(c cref, a float32) {
	s.arena[c+2] = Lit(int32(math.Float32bits(a)))
}

// allocClause appends a clause to the arena and returns its reference.
func (s *Solver) allocClause(lits []Lit, learnt bool, lbd int) cref {
	c := cref(len(s.arena))
	hdr := Lit(len(lits) << hdrSizeShift)
	if learnt {
		hdr |= hdrLearnt
	}
	s.arena = append(s.arena, hdr)
	if learnt {
		s.arena = append(s.arena, Lit(lbd), 0) // lbd word, activity word
	}
	s.arena = append(s.arena, lits...)
	return c
}

func (s *Solver) watchClause(c cref) {
	b := s.claBase(c)
	l0, l1 := s.arena[b], s.arena[b+1]
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{c, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{c, l0})
}

func (s *Solver) addBinWatch(a, b Lit) {
	s.binWatches[a.Not()] = append(s.binWatches[a.Not()], b)
	s.binWatches[b.Not()] = append(s.binWatches[b.Not()], a)
}

// AddClause adds a problem clause. It returns false when the clause makes
// the instance trivially unsatisfiable at the top level. Literals over
// unallocated variables are an error by construction (panic), as they
// indicate an encoder bug.
func (s *Solver) AddClause(lits ...Lit) bool {
	s.clausesN++
	if s.RecordOriginal {
		s.original = append(s.original, append([]Lit(nil), lits...))
	}
	if s.unsatForce {
		return false
	}
	// Must be at decision level 0 for top-level simplification.
	s.backtrackTo(0)
	// Sort, dedupe, drop false literals, detect tautology.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls[:0]
	insertionSortLits(ls)
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l.Var() >= len(s.assign) {
			panic("sat: literal over unallocated variable")
		}
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue // drop
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.unsatForce = true
		return false
	case 1:
		return s.addUnit(out[0])
	case 2:
		s.addBinWatch(out[0], out[1])
		return true
	}
	c := s.allocClause(out, false, 0)
	s.clauses = append(s.clauses, c)
	s.watchClause(c)
	return true
}

// AddBinary adds the two-literal clause (a ∨ b): the same semantics as
// AddClause(a, b), but skipping the simplification scratch work, so
// binary-heavy encoders (Tseitin gates are mostly binary clauses) emit
// straight into the implication lists.
func (s *Solver) AddBinary(a, b Lit) bool {
	s.clausesN++
	if s.RecordOriginal {
		s.original = append(s.original, []Lit{a, b})
	}
	if s.unsatForce {
		return false
	}
	if a.Var() >= len(s.assign) || b.Var() >= len(s.assign) {
		panic("sat: literal over unallocated variable")
	}
	s.backtrackTo(0)
	if a == b.Not() {
		return true // tautology
	}
	va, vb := s.value(a), s.value(b)
	switch {
	case va == lTrue || vb == lTrue:
		return true
	case a == b:
		return s.addUnit(a)
	case va == lFalse && vb == lFalse:
		s.unsatForce = true
		return false
	case va == lFalse:
		return s.addUnit(b)
	case vb == lFalse:
		return s.addUnit(a)
	}
	s.addBinWatch(a, b)
	return true
}

// addUnit asserts a top-level fact and propagates it.
func (s *Solver) addUnit(l Lit) bool {
	if !s.enqueue(l, reasonNone) {
		s.unsatForce = true
		return false
	}
	if s.propagate() != crefUndef {
		s.unsatForce = true
		return false
	}
	return true
}

// insertionSortLits sorts small literal slices without the sort.Slice
// closure overhead; AddClause calls this once per clause.
func insertionSortLits(ls []Lit) {
	if len(ls) > 32 {
		sort.Slice(ls, func(a, b int) bool { return ls[a] < ls[b] })
		return
	}
	for i := 1; i < len(ls); i++ {
		l := ls[i]
		j := i - 1
		for j >= 0 && ls[j] > l {
			ls[j+1] = ls[j]
			j--
		}
		ls[j+1] = l
	}
}

func (s *Solver) value(l Lit) lbool {
	return s.assign[l.Var()] ^ lbool(l&1)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l Lit, from uint32) bool {
	switch v := s.value(l); {
	case v == lTrue:
		return true
	case v == lFalse:
		return false
	}
	v := l.Var()
	s.assign[v] = lbool(l & 1)
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.phase[v] = !l.Neg()
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation; it returns the conflicting clause
// reference, crefBin for a binary conflict (literals in binConfl), or
// crefUndef when a fixpoint is reached without conflict.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propsN++

		// Binary implications first: a tight loop over the implication
		// list, no arena access, no watcher bookkeeping.
		for _, q := range s.binWatches[p] {
			switch s.value(q) {
			case lTrue:
			case lFalse:
				s.binConfl[0] = q
				s.binConfl[1] = p.Not()
				return crefBin
			default:
				s.binPropsN++
				s.enqueue(q, binReason(p.Not()))
			}
		}

		ws := s.watches[p]
		n := len(ws)
		j := 0
		for i := 0; i < n; i++ {
			w := ws[i]
			// Blocking literal: if any cached literal of the clause is
			// already true, the clause is satisfied — skip the arena.
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			base := int(s.claBase(c))
			// Normalize: make arena[base+1] the falsified watch.
			if s.arena[base] == p.Not() {
				s.arena[base], s.arena[base+1] = s.arena[base+1], s.arena[base]
			}
			first := s.arena[base]
			nw := watcher{c, first}
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = nw
				j++
				continue
			}
			// Find a new literal to watch.
			size := s.claSize(c)
			found := false
			for k := 2; k < size; k++ {
				if s.value(s.arena[base+k]) != lFalse {
					s.arena[base+1], s.arena[base+k] = s.arena[base+k], s.arena[base+1]
					nl := s.arena[base+1].Not()
					s.watches[nl] = append(s.watches[nl], nw)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = nw
			j++
			if !s.enqueue(first, c) {
				// Conflict: retain remaining watchers and report.
				for i++; i < n; i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				return c
			}
		}
		s.watches[p] = ws[:j]
	}
	return crefUndef
}

func (s *Solver) backtrackTo(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := int(s.trailLim[lvl])
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = reasonNone
		if !s.order.contains(v) {
			s.order.push(v, &s.activity)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v, &s.activity)
}

func (s *Solver) bumpClauseAct(c cref) {
	a := s.claAct(c) + float32(s.claInc)
	s.setAct(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setAct(lc, s.claAct(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// claUsed bumps a learnt clause that participated in conflict analysis:
// activity, plus a dynamic LBD refresh — if the clause's literals now
// span fewer decision levels than when it was learned, the stored LBD
// improves, and the clause is protected from the next reduceDB round.
func (s *Solver) claUsed(c cref) {
	if s.arena[c]&hdrLearnt == 0 {
		return
	}
	s.bumpClauseAct(c)
	lbd := s.computeLBD(s.claLits(c))
	if lbd < s.claLBD(c) {
		s.setLBD(c, lbd)
		s.arena[c] |= hdrProtected
	}
}

// computeLBD counts the distinct nonzero decision levels among lits.
func (s *Solver) computeLBD(lits []Lit) int {
	s.lbdTick++
	n := 0
	for _, q := range lits {
		lvl := s.level[q.Var()]
		if lvl == 0 {
			continue
		}
		// Decision levels can exceed the variable count: already-implied
		// assumptions open empty levels. Grow the stamp array on demand.
		if int(lvl) >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, make([]int64, int(lvl)+1-len(s.lbdStamp))...)
		}
		if s.lbdStamp[lvl] != s.lbdTick {
			s.lbdStamp[lvl] = s.lbdTick
			n++
		}
	}
	return n
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first), the backjump level, and the
// learned clause's LBD.
func (s *Solver) analyze(confl cref) ([]Lit, int, int) {
	learned := []Lit{0} // reserve slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	var marked []int // every var whose seen flag we set, cleared at the end

	process := func(q Lit) {
		v := q.Var()
		if s.seen[v] || s.level[v] == 0 {
			return
		}
		s.seen[v] = true
		marked = append(marked, v)
		s.bumpVar(v)
		if int(s.level[v]) >= s.decisionLevel() {
			counter++
		} else {
			learned = append(learned, q)
		}
	}

	// Seed with the conflicting clause's literals.
	if confl == crefBin {
		process(s.binConfl[0])
		process(s.binConfl[1])
	} else {
		s.claUsed(confl)
		for _, q := range s.claLits(confl) {
			process(q)
		}
	}
	for {
		// Select next literal to expand from the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		// Expand p's antecedent. A binary reason is the single stored
		// literal — no clause is materialized.
		if r := s.reason[p.Var()]; r&reasonBinFlag != 0 {
			process(Lit(r &^ reasonBinFlag))
		} else {
			s.claUsed(cref(r))
			for _, q := range s.claLits(cref(r))[1:] {
				process(q)
			}
		}
	}
	learned[0] = p.Not()

	// Recursive minimization (MiniSat; Sörensson & Biere, SAT 2009): drop
	// a literal whose reason, followed through the reasons of its own
	// literals, ends in literals of the clause or of level 0. The seen
	// flags mark exactly learned[1:] here; redundant finds more.
	var levels uint32
	for _, q := range learned[1:] {
		levels |= s.abstractLevel(q.Var())
	}
	j := 1
	for _, q := range learned[1:] {
		drop := false
		if s.reason[q.Var()] != reasonNone {
			marked, drop = s.redundant(q, levels, marked)
		}
		if !drop {
			learned[j] = q
			j++
		}
	}
	learned = learned[:j]
	for _, v := range marked {
		s.seen[v] = false
	}

	// Binary-implication minimization (Glucose), on clauses of at most 30
	// literals: a binary clause (learned[0] ∨ ¬l) resolves l away. Every
	// literal of the clause is false, so a true ¬l implied by ¬learned[0]
	// is the complement of a clause literal.
	if len(learned) <= 30 {
		for _, q := range learned[1:] {
			s.seen[q.Var()] = true
		}
		for _, q := range s.binWatches[learned[0].Not()] {
			if s.seen[q.Var()] && s.value(q) == lTrue {
				s.seen[q.Var()] = false
			}
		}
		j = 1
		for _, q := range learned[1:] {
			if s.seen[q.Var()] {
				s.seen[q.Var()] = false
				learned[j] = q
				j++
			}
		}
		learned = learned[:j]
	}

	// LBD of the learned clause, while every literal is still assigned.
	lbd := s.computeLBD(learned)

	// Backjump level: highest level among learned[1:].
	bt := 0
	if len(learned) > 1 {
		maxI := 1
		for i := 2; i < len(learned); i++ {
			if s.level[learned[i].Var()] > s.level[learned[maxI].Var()] {
				maxI = i
			}
		}
		learned[1], learned[maxI] = learned[maxI], learned[1]
		bt = int(s.level[learned[1].Var()])
	}
	return learned, bt, lbd
}

// abstractLevel hashes v's decision level to one of 32 bits: a literal
// whose level's bit is absent from a clause's set cannot be implied by
// the clause's literals alone, so redundant stops there.
func (s *Solver) abstractLevel(v int) uint32 { return 1 << (s.level[v] & 31) }

// redundant reports whether the clause literal p, which has a reason, is
// implied by the literals marked seen together with level 0. The walk
// marks every literal it proves implied and appends its variable to
// marked, so later calls reuse the proof; a failed walk unmarks what it
// marked. A binary reason is read from its tag, as analyze reads it.
func (s *Solver) redundant(p Lit, levels uint32, marked []int) ([]int, bool) {
	stack := append(s.minStack[:0], p)
	top := len(marked)
	ok := true
	for ok && len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ante := s.binAnte[:]
		if r := s.reason[q.Var()]; r&reasonBinFlag != 0 {
			s.binAnte[0] = Lit(r &^ reasonBinFlag)
		} else {
			ante = s.claLits(cref(r))[1:]
		}
		for _, a := range ante {
			v := a.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == reasonNone || s.abstractLevel(v)&levels == 0 {
				ok = false
				break
			}
			s.seen[v] = true
			marked = append(marked, v)
			stack = append(stack, a)
		}
	}
	s.minStack = stack
	if !ok {
		for _, v := range marked[top:] {
			s.seen[v] = false
		}
		marked = marked[:top]
	}
	return marked, ok
}

func (s *Solver) record(learned []Lit, lbd int) {
	s.learnedN++
	s.learnedLN += int64(len(learned))
	if lbd <= 2 {
		s.glueN++
	}
	if s.proof != nil {
		s.proof.add(learned)
	}
	switch len(learned) {
	case 1:
		s.enqueue(learned[0], reasonNone)
	case 2:
		// Learnt binaries join the implication lists permanently; they are
		// glue-or-better and are never deleted.
		s.addBinWatch(learned[0], learned[1])
		s.binLearntN++
		s.enqueue(learned[0], binReason(learned[1]))
	default:
		c := s.allocClause(learned, true, lbd)
		s.learnts = append(s.learnts, c)
		s.watchClause(c)
		s.bumpClauseAct(c)
		s.enqueue(learned[0], c)
	}
}

// reduceDB trims the long learnt database with a glue-tiered policy:
// glue clauses (LBD ≤ 2) and locked clauses are kept forever, clauses
// that were useful since the last reduction (protected) get one more
// round, and of the rest the worse half — highest LBD first, lowest
// activity as tie-break — is deleted. The arena is then compacted.
func (s *Solver) reduceDB() {
	type cand struct {
		c   cref
		lbd int32
		act float32
	}
	var removable []cand
	keep := s.learnts[:0]
	for _, c := range s.learnts {
		switch {
		case s.claLBD(c) <= 2 || s.locked(c):
			keep = append(keep, c)
		case s.arena[c]&hdrProtected != 0:
			s.arena[c] &^= hdrProtected
			keep = append(keep, c)
		default:
			removable = append(removable, cand{c, int32(s.claLBD(c)), s.claAct(c)})
		}
	}
	sort.Slice(removable, func(a, b int) bool {
		if removable[a].lbd != removable[b].lbd {
			return removable[a].lbd > removable[b].lbd
		}
		return removable[a].act < removable[b].act
	})
	half := len(removable) / 2
	for i, r := range removable {
		if i < half {
			if s.proof != nil {
				s.proof.del(s.claLits(r.c))
			}
			s.arena[r.c] |= hdrDeleted
		} else {
			keep = append(keep, r.c)
		}
	}
	s.learnts = keep
	s.garbageCollect()
}

// garbageCollect compacts the arena: live clauses are copied to a fresh
// slab in allocation order, clause references in the problem/learnt lists
// and in trail reasons are patched via forwarding pointers, and the long
// watch lists are rebuilt. Deleted clauses vanish; binary implication
// lists are untouched (binaries never live in the arena).
func (s *Solver) garbageCollect() {
	old := s.arena
	s.arena = make([]Lit, 0, len(old))
	reloc := func(c cref) cref {
		hdr := old[c]
		n := cref(uint32(hdr)>>hdrSizeShift) + 1
		if hdr&hdrLearnt != 0 {
			n += 2
		}
		nc := cref(len(s.arena))
		s.arena = append(s.arena, old[c:c+n]...)
		old[c] = hdr | hdrReloc
		old[c+1] = Lit(int32(nc))
		return nc
	}
	for i, c := range s.clauses {
		s.clauses[i] = reloc(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = reloc(c)
	}
	for _, l := range s.trail {
		v := l.Var()
		r := s.reason[v]
		if r == reasonNone || r&reasonBinFlag != 0 {
			continue
		}
		if old[r]&hdrReloc == 0 {
			panic("sat: reason clause collected") // locked clauses are kept; unreachable
		}
		s.reason[v] = uint32(int32(old[r+1]))
	}
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for _, c := range s.clauses {
		s.watchClause(c)
	}
	for _, c := range s.learnts {
		s.watchClause(c)
	}
}

func (s *Solver) locked(c cref) bool {
	l0 := s.arena[s.claBase(c)]
	return s.value(l0) == lTrue && s.reason[l0.Var()] == c
}

// luby computes the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ...
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<uint(k))-1 {
			return int64(1) << uint(k-1)
		}
		if i >= int64(1)<<uint(k-1) && i < (int64(1)<<uint(k))-1 {
			return luby(i - (int64(1) << uint(k-1)) + 1)
		}
	}
}

// restartLimit is the conflict count into a Solve call past which restart
// r fires: 100·r·luby(r). The factor r makes the limits about double
// rather than follow Luby: restarts take effect past 100, 200, 600,
// 1,200, 2,800, 5,600, 12,000, 24,000, 49,600 and 99,200 conflicts. Each
// is followed by a burst of back-to-back restarts, with no search between
// them, until r reaches a limit above the call's conflicts: 62 restarts
// are counted over the first 160,000 conflicts, 10 of them effective.
func restartLimit(r int64) int64 { return luby(r) * 100 * r }

// Solve searches for a model extending the given assumption literals.
// On Sat, Model reads the satisfying assignment. On Unsat under
// assumptions, the instance may still be satisfiable under others — the
// solver stays usable: clauses learned during the call (including those
// mentioning assumption literals, which are implied by the formula alone)
// are retained for later calls.
func (s *Solver) Solve(assumptions ...Lit) Status {
	before := s.Metrics()
	s.solvesN++
	s.retainedN += int64(s.LearntsLive())
	st := s.solve(assumptions...)
	s.lastDelta = s.Metrics().Sub(before)
	return st
}

func (s *Solver) solve(assumptions ...Lit) Status {
	s.err = nil
	if s.unsatForce {
		return Unsat
	}
	s.backtrackTo(0)
	if s.propagate() != crefUndef {
		s.unsatForce = true
		return Unsat
	}

	var restarts int64 = 1
	conflictsHere := int64(0)
	maxLearnts := int64(len(s.clauses)/3 + 500)

	for {
		// Cancellation poll. Counted in loop ticks, not conflicts, so both
		// conflict storms and long decision/propagation stretches (where the
		// conflict counter stands still) notice a cancel promptly. On
		// interrupt the answer is Unknown — never Unsat: the search was cut
		// short, so unsatisfiability was not established.
		s.ticks++
		if s.Cancel != nil && s.ticks&255 == 0 && s.Cancel() {
			s.err = ErrCanceled
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				s.unsatForce = true
				return Unsat
			}
			// Do not analyze below the assumption levels: if the conflict
			// is forced by assumptions, report Unsat for this call.
			learned, bt, lbd := s.analyze(confl)
			if len(learned) == 1 {
				// A unit learned clause is a root-level fact independent of
				// the assumptions. Enqueue it at level 0 — placing it at the
				// clamped assumption level would put a second nil-reason
				// literal inside that level and corrupt later conflict
				// analysis. The loop re-places the assumptions afterwards and
				// reports Unsat if the new fact falsifies one.
				s.backtrackTo(0)
				s.record(learned, lbd)
				s.varInc /= 0.95
				s.claInc /= 0.999
				continue
			}
			if bt < s.assumptionLevel(assumptions) {
				bt = s.assumptionLevel(assumptions)
				s.backtrackTo(bt)
				// Re-propagation may fail under assumptions.
				if s.value(learned[0]) == lFalse {
					s.record(learned, lbd)
					return Unsat
				}
			} else {
				s.backtrackTo(bt)
			}
			s.record(learned, lbd)
			s.varInc /= 0.95
			s.claInc /= 0.999
			continue
		}

		if s.MaxConflicts > 0 && conflictsHere > s.MaxConflicts {
			return Unknown
		}
		if conflictsHere > restartLimit(restarts) {
			restarts++
			s.restartsN++
			s.backtrackTo(s.assumptionLevel(assumptions))
		}
		if int64(len(s.learnts)) > maxLearnts {
			s.reduceDB()
			maxLearnts += maxLearnts / 10
		}

		// Place assumptions first.
		if lvl := s.decisionLevel(); lvl < len(assumptions) {
			a := assumptions[lvl]
			switch s.value(a) {
			case lTrue:
				// Already implied: open an empty decision level for it.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				continue
			case lFalse:
				return Unsat
			}
			s.trailLim = append(s.trailLim, int32(len(s.trail)))
			s.enqueue(a, reasonNone)
			continue
		}

		// Pick a branching variable.
		v := -1
		for !s.order.empty() {
			cand := s.order.pop(&s.activity)
			if s.assign[cand].isUndef() {
				v = cand
				break
			}
		}
		if v < 0 {
			return Sat
		}
		s.decisions++
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.enqueue(MkLit(v, !s.phase[v]), reasonNone)
	}
}

func (s *Solver) assumptionLevel(assumptions []Lit) int {
	if len(assumptions) < s.decisionLevel() {
		return len(assumptions)
	}
	return s.decisionLevel()
}

// Model returns the value of variable v in the last Sat answer.
func (s *Solver) Model(v int) bool { return s.assign[v] == lTrue }

// heap is a max-heap on variable activity (VSIDS order).
type heap struct {
	data []int32
	pos  []int32 // var -> index in data, -1 when absent
}

func (h *heap) ensure(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
}

func (h *heap) empty() bool { return len(h.data) == 0 }

func (h *heap) contains(v int) bool {
	return v < len(h.pos) && h.pos[v] >= 0
}

func (h *heap) push(v int, act *[]float64) {
	h.ensure(v)
	if h.pos[v] >= 0 {
		return
	}
	h.data = append(h.data, int32(v))
	h.pos[v] = int32(len(h.data) - 1)
	h.up(len(h.data)-1, act)
}

func (h *heap) pop(act *[]float64) int {
	top := h.data[0]
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.pos[top] = -1
	if len(h.data) > 0 {
		h.data[0] = last
		h.pos[last] = 0
		h.down(0, act)
	}
	return int(top)
}

func (h *heap) update(v int, act *[]float64) {
	if !h.contains(v) {
		return
	}
	h.up(int(h.pos[v]), act)
}

func (h *heap) up(i int, act *[]float64) {
	a := *act
	for i > 0 {
		p := (i - 1) / 2
		if a[h.data[i]] <= a[h.data[p]] {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *heap) down(i int, act *[]float64) {
	a := *act
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.data) && a[h.data[l]] > a[h.data[best]] {
			best = l
		}
		if r < len(h.data) && a[h.data[r]] > a[h.data[best]] {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *heap) swap(i, j int) {
	h.data[i], h.data[j] = h.data[j], h.data[i]
	h.pos[h.data[i]] = int32(i)
	h.pos[h.data[j]] = int32(j)
}
