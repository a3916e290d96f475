package core

import (
	"math/rand"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// verifier is the CEGIS counterexample search (§5.2): does the candidate
// implementation disagree with the specification on some input?
//
// When the input space is small enough the search is exhaustive.
// Otherwise it runs directed path coverage — inputs that steer the
// specification through every transition rule — then stochastic directed
// walks, mirroring the paper's simulator-based validation (Figure 22).
// Finding nothing is not a proof: runBudget proves a candidate the search
// passes with cert.Walk.
//
// A verifier belongs to one budget runner and is not safe for concurrent
// use: its RNG, input buffer and registers are reused across calls.
type verifier struct {
	spec   *pir.Spec
	low    *lowSpec
	rng    *rand.Rand
	maxLen int
	budget int // interpreter iteration bound for equivalence runs
	// window realizations for directed input generation
	layouts []layout
	keys    [][]skelKeyPart
	// directed is the deterministic directed suite, built on first use.
	directed []directedCase

	in                 bitstream.Bits // the input under test, maxLen bits
	specRegs, progRegs regFile
	path               []int
}

// The search's two sizes: input spaces of at most exhaustiveBits bits are
// enumerated; larger ones get directedWalks stochastic walks after the
// directed suite.
const (
	exhaustiveBits = 16
	directedWalks  = 1000
)

func newVerifier(spec *pir.Spec, opts Options, seed int64) (*verifier, error) {
	v := &verifier{
		spec: spec,
		low:  lowerSpec(spec),
		rng:  rand.New(rand.NewSource(seed)),
	}
	// Input length: the longest path of a loop-free spec, or a few loop
	// turns of a loopy one. The interpreter budget is then set strictly
	// above anything an input of that length can drive, so equivalence is
	// never evaluated at an artificial iteration boundary (post-synthesis
	// folding changes iteration counts but not outcomes).
	pathIter := len(spec.States) + 2
	if spec.HasLoop() {
		pathIter = 3 * len(spec.States)
		if pathIter < 8 {
			pathIter = 8
		}
		// A user-supplied iteration bound caps how deep loop verification
		// goes (and how long its inputs are). The interpreter budget below
		// stays far above any path an input can drive, so the bound never
		// creates an artificial iteration-boundary disagreement.
		if opts.MaxIterations > 0 && opts.MaxIterations < pathIter {
			pathIter = opts.MaxIterations
		}
	}
	v.maxLen = spec.MaxConsumedBits(pathIter) + spec.LookaheadUse()
	if v.maxLen == 0 {
		v.maxLen = 1
	}
	v.budget = v.maxLen + len(spec.States) + 4
	v.in = make(bitstream.Bits, v.maxLen)
	back, err := backoffs(spec)
	if err != nil {
		return nil, err
	}
	reach := spec.Reachable()
	v.layouts = make([]layout, len(spec.States))
	v.keys = make([][]skelKeyPart, len(spec.States))
	for i := range spec.States {
		if !reach[i] {
			continue // unreachable states never appear on directed paths
		}
		v.layouts[i], err = stateLayout(spec, &spec.States[i])
		if err != nil {
			return nil, err
		}
		v.keys[i], err = realizeKey(spec, i, v.layouts[i], back[i])
		if err != nil {
			return nil, err
		}
	}
	return v, nil
}

// maxIterBudget is the interpreter iteration bound used for both Spec and
// Impl runs during verification: strictly above any path an input of
// maxLen bits can drive.
func (v *verifier) maxIterBudget() int { return v.budget }

// differs reports whether prog (lowered against v.low) and the spec
// disagree on in: !prog.Run(in, k).Same(spec.Run(in, k)) with k the
// verifier's budget, computed without allocating.
func (v *verifier) differs(lp *lowProgram, in bitstream.Bits) bool {
	return v.low.run(in, v.budget, &v.specRegs, nil) != lp.run(in, v.budget, &v.progRegs) ||
		!sameFields(in, &v.specRegs, &v.progRegs)
}

// counterexample searches for an input on which prog and the spec
// disagree; found reports whether one was. stop (when non-nil) is polled
// periodically and aborts the search. An aborted search reports
// interrupted=true and MUST NOT be read as "no counterexample exists" —
// the candidate was simply not fully checked. Callers that race budget
// runners rely on this distinction to avoid accepting an unverified
// program when their sibling wins.
//
// Inputs are generated into one reused buffer, in an order and with RNG
// draws fixed across releases up to the end of a search that finds
// nothing (every counterexample, and so every SAT query and program,
// depends on them); a returned counterexample is a copy.
func (v *verifier) counterexample(prog *tcam.Program, stop func() bool) (cex bitstream.Bits, found, interrupted bool) {
	lp := lowerProgram(prog, v.low)
	stopped := func(i int) bool {
		return stop != nil && i&63 == 0 && stop()
	}
	in := v.in
	if v.maxLen <= exhaustiveBits {
		// Inputs count up MSB-first. When neither run read past bit r, every
		// input sharing x's first r bits runs as x did, so the search jumps
		// to the last of them and still returns the smallest counterexample.
		n := uint64(1) << uint(v.maxLen)
		calls := 0
		for x := uint64(0); x < n; x++ {
			if stopped(calls) {
				return nil, false, true
			}
			calls++
			for i := range in {
				in[i] = byte(x >> uint(v.maxLen-1-i) & 1)
			}
			if v.differs(lp, in) {
				return in.Clone(), true, false
			}
			if r := max(v.specRegs.reach, v.progRegs.reach); r < v.maxLen {
				x |= 1<<uint(v.maxLen-r) - 1
			}
		}
		return nil, false, false
	}
	// Deterministic per-rule coverage first: one input per (path rule,
	// state rule) combination. These catch wide-key mistakes that random
	// sampling would hit with probability 2^-keyWidth.
	i := 0
	v.directedSuite(func(in bitstream.Bits) bool {
		if stopped(i) {
			interrupted = true
			return false
		}
		i++
		if v.differs(lp, in) {
			cex = in.Clone()
			return false
		}
		return true
	})
	if interrupted || cex != nil {
		return cex, cex != nil, interrupted
	}
	// Then stochastic directed walks.
	for i := 0; i < directedWalks; i++ {
		if stopped(i) {
			return nil, false, true
		}
		if in := v.directedInput(); v.differs(lp, in) {
			return in.Clone(), true, false
		}
	}
	return nil, false, false
}

// confirm pads a packet, such as a walk refutation's, to the search's
// input length and reports whether prog mishandles it there.
func (v *verifier) confirm(prog *tcam.Program, pkt bitstream.Bits) (bitstream.Bits, bool) {
	in := make(bitstream.Bits, v.maxLen)
	copy(in, pkt)
	return in, v.differs(lowerProgram(prog, v.low), in)
}

// fillRandom overwrites in with uniformly random bits, drawing from rng
// exactly as bitstream.Random does.
func fillRandom(rng *rand.Rand, in bitstream.Bits) {
	for i := range in {
		in[i] = byte(rng.Intn(2))
	}
}

// directedCase is one base input of the directed suite together with the
// absolute key-window positions whose flips make its neighbours: the
// target state's window, then the interior hops' windows.
type directedCase struct {
	in    bitstream.Bits
	flips []int
}

// directedSuite visits, in a fixed order, inputs that drive the
// specification through every transition rule of every state, each with
// its one-bit neighbours in the key windows along its path. It stops
// early when visit returns false. The visited slice is a scratch buffer,
// valid only during visit.
//
// Near-miss neighbours in the target state's window: a TCAM entry with a
// wrong mask bit is indistinguishable from a right one on exact rule
// patterns; it always differs on a one-bit neighbour. In the interior
// hops' windows, one-deviation path coverage: a wrong mask bit on an
// interior hop is silent when the wrongly entered state falls through to
// the same outcome — it only shows when a later state's key happens to
// match, and that is exactly the combination these inputs provide
// (deviating hop, exact downstream patterns).
func (v *verifier) directedSuite(visit func(bitstream.Bits) bool) {
	if v.directed == nil {
		v.directed = v.directedCases()
	}
	in := v.in
	for _, c := range v.directed {
		copy(in, c.in)
		if !visit(in) {
			return
		}
		for _, ip := range c.flips {
			in[ip] ^= 1
			ok := visit(in)
			in[ip] ^= 1
			if !ok {
				return
			}
		}
	}
}

// directedCases deterministically constructs the directed suite's base
// inputs: for each target (state, rule) pair it walks from the start
// state, writing the key pattern steering toward that state at each hop
// and finally the target rule's own pattern. Because a written pattern can
// overlap bits that influenced earlier hops, the walk re-simulates up to
// three times until it stabilizes.
func (v *verifier) directedCases() []directedCase {
	// Steering table: for each state, a rule index (or -1 for default)
	// leading one hop closer to each other state, computed by BFS.
	type hop struct {
		from, rule int // rule == -1 means default
	}
	parent := make([]hop, len(v.spec.States))
	for i := range parent {
		parent[i] = hop{from: -1}
	}
	queue := []int{0}
	seen := map[int]bool{0: true}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		st := &v.spec.States[s]
		visitTarget := func(t pir.Target, rule int) {
			if t.Kind != pir.ToState || seen[t.State] {
				return
			}
			seen[t.State] = true
			parent[t.State] = hop{from: s, rule: rule}
			queue = append(queue, t.State)
		}
		for ri, r := range st.Rules {
			visitTarget(r.Next, ri)
		}
		visitTarget(st.Default, -1)
	}
	// Path of (state, rule-to-take) from start to each state.
	pathTo := func(s int) ([]int, []int, bool) {
		var states, rules []int
		for cur := s; cur != 0; {
			h := parent[cur]
			if h.from < 0 {
				return nil, nil, false
			}
			states = append([]int{h.from}, states...)
			rules = append([]int{h.rule}, rules...)
			cur = h.from
		}
		return states, rules, true
	}

	r := &v.specRegs
	cases := []directedCase{}
	for s := range v.spec.States {
		states, rules, ok := pathTo(s)
		if !ok && s != 0 {
			continue
		}
		// One input per rule of s, plus one for the default.
		for target := -1; target < len(v.spec.States[s].Rules); target++ {
			c := directedCase{in: make(bitstream.Bits, v.maxLen)}
			in := c.in
			for pass := 0; pass < 3; pass++ {
				pos := 0
				r.reset(len(v.low.names))
				collect := func(si int, dst []int) []int {
					for _, p := range v.keys[si] {
						for j := 0; j < p.BitWidth(); j++ {
							if ip := pos + p.RelOff + j; ip >= 0 && ip < len(in) {
								dst = append(dst, ip)
							}
						}
					}
					return dst
				}
				step := func(si, rule int) {
					if rule >= 0 && rule < len(v.spec.States[si].Rules) {
						v.writePatternAll(in, pos, si, v.spec.States[si].Rules[rule])
					}
					pos = r.extractAll(in, v.low.states[si].extracts, pos)
				}
				var path []int
				for i, si := range states {
					path = collect(si, path)
					step(si, rules[i])
				}
				c.flips = append(collect(s, c.flips[:0]), path...)
				step(s, target)
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// writePatternAll writes a rule pattern into a state's key windows,
// including back-reference windows (the caller re-simulates afterwards, so
// rewriting history is acceptable for input construction).
func (v *verifier) writePatternAll(in bitstream.Bits, pos, si int, r pir.Rule) {
	total := 0
	for _, p := range v.keys[si] {
		total += p.BitWidth()
	}
	bit := 0
	for _, p := range v.keys[si] {
		w := p.BitWidth()
		for j := 0; j < w; j++ {
			shift := uint(total - bit - 1)
			if r.Mask>>shift&1 == 1 {
				if ip := pos + p.RelOff + j; ip >= 0 && ip < len(in) {
					in[ip] = byte(r.Value >> shift & 1)
				}
			}
			bit++
		}
	}
}

// directedInput builds a random input, then repeatedly simulates the spec
// and overwrites the key windows along the visited trajectory with
// randomly chosen rule patterns, so execution explores deep transitions
// instead of falling into defaults. Each pass re-simulates because a
// write may redirect the path. The input is built in the verifier's
// buffer, overwriting it.
func (v *verifier) directedInput() bitstream.Bits {
	in := v.in
	fillRandom(v.rng, in)
	r := &v.specRegs
	for pass := 0; pass < 3; pass++ {
		v.path = v.path[:0]
		v.low.run(in, v.budget, r, &v.path)
		r.reset(len(v.low.names))
		pos := 0
		for _, si := range v.path {
			st := &v.spec.States[si]
			if len(st.Rules) > 0 && v.rng.Intn(4) != 0 {
				v.writePattern(in, pos, si, st.Rules[v.rng.Intn(len(st.Rules))])
			}
			pos = r.extractAll(in, v.low.states[si].extracts, pos)
		}
	}
	return in
}

// writePattern writes rule.Value (where rule.Mask is set) into the
// cursor-relative key windows of state si with the cursor at pos.
// Back-reference windows (negative offsets) are skipped: their bits were
// laid down by earlier extraction and rewriting them would change history.
func (v *verifier) writePattern(in bitstream.Bits, pos, si int, r pir.Rule) {
	total := 0
	for _, p := range v.keys[si] {
		total += p.BitWidth()
	}
	bit := 0
	for _, p := range v.keys[si] {
		w := p.BitWidth()
		for j := 0; j < w; j++ {
			shift := uint(total - bit - 1)
			if p.RelOff >= 0 && r.Mask>>shift&1 == 1 {
				if ip := pos + p.RelOff + j; ip >= 0 && ip < len(in) {
					in[ip] = byte(r.Value >> shift & 1)
				}
			}
			bit++
		}
	}
}

// randomInput returns a uniformly random input of the verifier's maximum
// length; the CEGIS loop seeds its test-case set with one (§5.2).
func (v *verifier) randomInput() bitstream.Bits {
	return bitstream.Random(v.rng, v.maxLen)
}
