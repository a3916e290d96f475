package core

import (
	"bytes"
	"fmt"
	"sort"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/bv"
	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
	"parserhawk/internal/sat"
	"parserhawk/internal/tcam"
)

// synthesizer is one synthesis subproblem: a skeleton's symbolic entry
// table encoded once over one persistent solver. Test cases
// (input/output examples) are added incrementally by the CEGIS loop; each
// one appends the unrolled FSM-simulation circuit of Figure 9 evaluated on
// that concrete input, with the TCAM entry contents left symbolic.
//
// The table is encoded at the entry-budget ladder's cap and each rung k
// solves under the assumption "at most k entries enabled" (the CountLadder
// threshold literal), so learned clauses, variable activity, and every
// previously encoded counterexample carry across rungs.
type synthesizer struct {
	spec    *pir.Spec
	sk      *skeleton
	profile hw.Profile
	opts    Options

	s       *bv.Solver
	ladder  []bv.Lit     // count thresholds over all enabled lits
	fed     int          // CEGIS examples already encoded
	entries [][]entryVar // [state][entry]
	targets int          // number of transition targets: len(states) + accept + reject

	// match holds matchAt's circuits for the whole ladder.
	match map[matchKey]*matchCircuit

	// The most recent solve's assumptions and verdict, for lastQuery and
	// lastProof.
	lastAssumps []bv.Lit
	lastStatus  sat.Status

	extractedFields []string // fields some skeleton state extracts, sorted
}

// entryVar holds one TCAM entry's symbolic content.
type entryVar struct {
	enabled bv.Lit
	value   bv.BV
	mask    bv.BV
	nextSel []bv.Lit // one-hot over targets
	// doExtract decides whether the entry performs its state's extraction.
	// Constant true for ordinary states; free for key-split chunk states,
	// where synthesis places the extraction somewhere along the chain.
	doExtract bv.Lit
}

const (
	// target indices appended after the skeleton states
	tgtAcceptOff = 0
	tgtRejectOff = 1
)

// newSynthesizer builds the symbolic entry table for a skeleton, with a
// counting ladder over its enable bits for solveAt's budget assumptions.
func newSynthesizer(spec *pir.Spec, sk *skeleton, profile hw.Profile, opts Options) *synthesizer {
	s := bv.New()
	if opts.QuerySink != nil || opts.LogProofs {
		// Query dumps and DRAT proofs need the original clauses recorded.
		s = bv.NewRecording()
	}
	if opts.LogProofs {
		// Before anything is encoded, so the log covers every learnt clause.
		s.SAT.StartProof()
	}
	sy := &synthesizer{
		spec:    spec,
		sk:      sk,
		profile: profile,
		opts:    opts,
		s:       s,
		targets: len(sk.States) + 2,
		match:   map[matchKey]*matchCircuit{},
	}
	seen := map[string]bool{}
	for _, ss := range sk.States {
		for _, e := range ss.Extracts {
			if !seen[e.Field] {
				seen[e.Field] = true
				sy.extractedFields = append(sy.extractedFields, e.Field)
			}
		}
	}

	var allEnabled []bv.Lit
	for si, ss := range sk.States {
		var evs []entryVar
		for ei := 0; ei < ss.MaxEntries; ei++ {
			ev := entryVar{enabled: sy.s.NewLit()}
			switch {
			case ss.KeyWidth == 0:
				ev.value = sy.s.Const(0, 0)
				ev.mask = sy.s.Const(0, 0)
			case len(ss.Candidates) > 0:
				// Opt4 (§6.4.1): the entry VALUE is chosen from the
				// specification's constant set — if a merging (V, M) exists
				// then (A_i, M) works for any covered constant A_i, so
				// restricting values loses nothing. The MASK stays symbolic
				// (§6.4.2 searches masks, optionally in parallel).
				sel := make([]bv.Lit, len(ss.Candidates))
				vals := make([]bv.BV, len(ss.Candidates))
				for ci, c := range ss.Candidates {
					sel[ci] = sy.s.NewLit()
					vals[ci] = sy.s.Const(c, ss.KeyWidth)
				}
				sy.s.ExactlyOne(sel)
				ev.value = sy.s.SelectBV(sel, vals)
				ev.mask = sy.s.NewBV(ss.KeyWidth)
			default:
				// Naive encoding: free symbolic constants of key width —
				// the 2^KW-per-constant search space of §6.
				ev.value = sy.s.NewBV(ss.KeyWidth)
				ev.mask = sy.s.NewBV(ss.KeyWidth)
			}
			// Targets the device or the skeleton forbids are constant
			// false, so bv's folding drops every gate and configuration
			// behind them; only the allowed ones are variables.
			ev.nextSel = make([]bv.Lit, sy.targets)
			var allowed []bv.Lit
			for t := range ev.nextSel {
				if !targetAllowed(sk, si, t, opts) {
					ev.nextSel[t] = sy.s.False()
					continue
				}
				ev.nextSel[t] = sy.s.NewLit()
				allowed = append(allowed, ev.nextSel[t])
			}
			sy.s.ExactlyOne(allowed)
			if ss.OptionalExtract {
				ev.doExtract = sy.s.NewLit()
			} else {
				ev.doExtract = sy.s.True()
			}
			allEnabled = append(allEnabled, ev.enabled)
			evs = append(evs, ev)
		}
		// Symmetry breaking: enabled entries form a prefix. (Skipped in the
		// naive encoding, whose search space the paper measures raw.)
		if opts.Opt4ConstantSynthesis {
			for ei := 1; ei < len(evs); ei++ {
				sy.s.Assert(sy.s.Implies(evs[ei].enabled, evs[ei-1].enabled))
			}
		}
		sy.entries = append(sy.entries, evs)
	}
	// Encode a full counting ladder once; rung k becomes the assumption
	// ladder[k].Not() ("not k+1 or more enabled"), so climbing the budget
	// ladder swaps one assumption literal instead of rebuilding and
	// re-bit-blasting the instance.
	sy.ladder = sy.s.CountLadder(allEnabled)
	return sy
}

// targetAllowed reports whether an entry of skeleton state si may
// transition to target t: accept and reject always; a skeleton state
// only forward unless the skeleton is loopy (pipelined devices move
// strictly forward), and a key-split continuation chunk only from the
// previous chunk of its chain (the chain knowledge comes from the §6.4.3
// analysis, so the naive mode searches without it).
func targetAllowed(sk *skeleton, si, t int, opts Options) bool {
	if t >= len(sk.States) {
		return true
	}
	from, tgt := &sk.States[si], &sk.States[t]
	if opts.Opt4ConstantSynthesis && tgt.ChainLevel > 0 &&
		!(from.ChainGroup == tgt.ChainGroup && from.ChainLevel == tgt.ChainLevel-1) {
		return false
	}
	return sk.Loopy || t > si
}

// solveAt runs the SAT search for one entry-budget rung under the single
// assumption ladder[budget].Not() — no assumption at or beyond the cap;
// cancel aborts long searches.
func (sy *synthesizer) solveAt(budget int, cancel func() bool) sat.Status {
	sy.s.SAT.Cancel = cancel
	sy.lastAssumps = nil
	if budget < len(sy.ladder) {
		sy.lastAssumps = []bv.Lit{sy.ladder[budget].Not()}
	}
	sy.lastStatus = sy.s.Solve(sy.lastAssumps...)
	return sy.lastStatus
}

// lastQuery exports the most recent solve's instance as DIMACS CNF: every
// clause encoded so far plus that solve's assumptions as unit clauses, so
// an external solver can replay the exact query. Needs a recording solver
// (Options.QuerySink or LogProofs).
func (sy *synthesizer) lastQuery() ([]byte, error) {
	var buf bytes.Buffer
	if err := sy.s.SAT.WriteDIMACSUnder(&buf, sy.lastAssumps...); err != nil {
		return nil, fmt.Errorf("core: dumping query: %w", err)
	}
	return buf.Bytes(), nil
}

// lastProof exports the DRAT log accumulated so far (nil without
// Options.LogProofs). After an UNSAT solve the terminating empty clause is
// appended, making it a complete refutation of lastQuery's CNF.
func (sy *synthesizer) lastProof() []byte {
	return sy.s.SAT.ProofBytes(sy.lastStatus == sat.Unsat)
}

// conf is one concrete (state, cursor) configuration during simulation of
// a test input.
type conf struct {
	state int
	pos   int
}

// matchCircuit is the priority-match circuitry for one (state, key value)
// pair: the no-entry-matched formula, any-fired-with-extraction, and the
// per-target transition formulas. Hash-consing already keeps the circuit
// compact: rebuilding it for a pair seen before adds no CNF. The
// synthesizer keeps each pair's circuit for the whole ladder anyway,
// because configurations and examples share key values (zero padding,
// common prefixes) and every rebuild repeats dozens of table lookups.
type matchCircuit struct {
	noneMatched  bv.Lit
	firedExtract bv.Lit   // some entry fired with its extraction enabled
	goExtract    []bv.Lit // per target: fired, extraction performed
	goPass       []bv.Lit // per target: fired, cursor untouched
}

func (sy *synthesizer) matchAt(state int, kv uint64) *matchCircuit {
	k := matchKey{state, kv}
	if mc, ok := sy.match[k]; ok {
		return mc
	}
	s := sy.s
	ss := &sy.sk.States[state]
	evs := sy.entries[state]
	mc := &matchCircuit{
		goExtract: make([]bv.Lit, sy.targets),
		goPass:    make([]bv.Lit, sy.targets),
	}
	noneSoFar := s.True()
	firedExtract := s.False()
	keyBV := s.Const(kv, ss.KeyWidth)
	fired := make([]bv.Lit, len(evs))
	for ei, ev := range evs {
		m := s.And(ev.enabled, s.MaskedEq(keyBV, ev.mask, ev.value))
		fired[ei] = s.And(noneSoFar, m)
		noneSoFar = s.And(noneSoFar, m.Not())
		firedExtract = s.Or(firedExtract, s.And(fired[ei], ev.doExtract))
	}
	mc.noneMatched = noneSoFar
	mc.firedExtract = firedExtract
	for t := 0; t < sy.targets; t++ {
		goX, goP := s.False(), s.False()
		for ei, ev := range evs {
			hit := s.And(fired[ei], ev.nextSel[t])
			goX = s.Or(goX, s.And(hit, ev.doExtract))
			goP = s.Or(goP, s.And(hit, ev.doExtract.Not()))
		}
		mc.goExtract[t] = goX
		mc.goPass[t] = goP
	}
	sy.match[k] = mc
	return mc
}

type matchKey struct {
	state int
	kv    uint64
}

// addTestCase appends the simulation circuit for one input/expected-output
// example and asserts observational equivalence.
func (sy *synthesizer) addTestCase(input bitstream.Bits, expected pir.Result) error {
	s := sy.s
	maxIter := sy.maxIterations(input)
	maxPos := sy.spec.MaxConsumedBits(maxIter) + 1

	// at[c] is the formula "execution is in configuration c".
	at := map[conf]bv.Lit{{state: 0, pos: 0}: s.True()}
	accAny := s.False()
	rejAny := s.False()

	// Per-field running dict state.
	ext := map[string]bv.Lit{} // field extracted so far
	okv := map[string]bv.Lit{} // last extracted value matches expectation
	for _, f := range sy.extractedFields {
		ext[f] = s.False()
		okv[f] = s.False()
	}

	for iter := 0; iter < maxIter && len(at) > 0; iter++ {
		next := map[conf]bv.Lit{}
		hitNow := map[string]bv.Lit{}
		okNow := map[string]bv.Lit{}
		for _, f := range sy.extractedFields {
			hitNow[f] = s.False()
			okNow[f] = s.False()
		}
		for _, c := range sortedConfs(at) {
			atLit := at[c]
			ss := &sy.sk.States[c.state]
			kv := sy.keyValue(ss, input, c.pos)
			width, vbWidth, err := sy.stateWidth(ss, input, c.pos)
			if err != nil {
				return err
			}
			mc := sy.matchAt(c.state, kv)

			// No entry matched: the device rejects.
			rejAny = s.Or(rejAny, s.And(atLit, mc.noneMatched))

			// Transition bookkeeping: an extracting entry advances the
			// cursor, a pass-through entry leaves it in place.
			for t := 0; t < sy.targets; t++ {
				for _, via := range []struct {
					lit     bv.Lit
					advance int
				}{
					{mc.goExtract[t], width},
					{mc.goPass[t], 0},
				} {
					goT := s.And(atLit, via.lit)
					if goT == s.False() {
						continue
					}
					switch t {
					case len(sy.sk.States) + tgtAcceptOff:
						accAny = s.Or(accAny, goT)
					case len(sy.sk.States) + tgtRejectOff:
						rejAny = s.Or(rejAny, goT)
					default:
						nc := conf{state: t, pos: c.pos + via.advance}
						if nc.pos > maxPos {
							// An implementation that runs past every bit the
							// spec could consume is wrong anyway; treat as
							// rejection to bound the configuration space.
							rejAny = s.Or(rejAny, goT)
							continue
						}
						if old, ok := next[nc]; ok {
							next[nc] = s.Or(old, goT)
						} else {
							next[nc] = goT
						}
					}
				}
			}

			// Extraction effects (entries that fire with extraction enabled
			// deposit the state's fields).
			happened := s.And(atLit, mc.firedExtract)
			off := 0
			for _, e := range ss.Extracts {
				fld, _ := sy.spec.Field(e.Field)
				w := fld.Width
				if fld.Var {
					w = vbWidth
				}
				val := input.Slice(c.pos+off, w)
				off += w
				hitNow[e.Field] = s.Or(hitNow[e.Field], happened)
				if exp, ok := expected.Dict[e.Field]; ok && exp.Equal(val) {
					okNow[e.Field] = s.Or(okNow[e.Field], happened)
				}
			}
		}
		for _, f := range sy.extractedFields {
			ext[f] = s.Or(ext[f], hitNow[f])
			okv[f] = s.MuxLit(hitNow[f], okNow[f], okv[f])
		}
		at = next
	}

	// Configurations still live after maxIter iterations are rejected by
	// the device (Figure 6 exits after K table visits). Deterministic
	// order: the shape of this Or-chain influences CDCL search, and map
	// order would make compile times irreproducible.
	for _, c := range sortedConfs(at) {
		rejAny = s.Or(rejAny, at[c])
	}

	// Observational equivalence assertions (§4).
	s.Assert(s.Iff(accAny, s.Bool(expected.Accepted)))
	s.Assert(s.Iff(rejAny, s.Bool(expected.Rejected)))
	for _, f := range sy.extractedFields {
		if _, want := expected.Dict[f]; want {
			s.Assert(ext[f])
			s.Assert(okv[f])
		} else {
			s.Assert(ext[f].Not())
		}
	}
	// Fields the spec extracted but no skeleton state can produce make the
	// example unsatisfiable — that is a skeleton construction bug.
	for f := range expected.Dict {
		if _, ok := ext[f]; !ok {
			return fmt.Errorf("core: skeleton %s cannot extract field %q required by the spec", sy.sk.Name, f)
		}
	}
	return nil
}

// keyValue evaluates a skeleton state's (concrete) transition key on input
// with the cursor at pos. Windows before position zero never occur on
// valid paths (back-references follow extractions); out-of-range bits read
// zero like the interpreters.
func (sy *synthesizer) keyValue(ss *skelState, input bitstream.Bits, pos int) uint64 {
	var kv uint64
	for _, p := range ss.Key {
		w := p.BitWidth()
		kv = kv<<uint(w) | input.Uint(pos+p.RelOff, w)
	}
	return kv
}

// stateWidth computes how many bits the state's extraction consumes at a
// given cursor position, resolving varbit lengths against the input.
func (sy *synthesizer) stateWidth(ss *skelState, input bitstream.Bits, pos int) (total, vbWidth int, err error) {
	if !ss.HasVarbit {
		return ss.StaticWidth, 0, nil
	}
	off := 0
	for _, e := range ss.Extracts {
		fld, _ := sy.spec.Field(e.Field)
		if !fld.Var {
			off += fld.Width
			continue
		}
		if e.LenField == "" {
			return 0, 0, fmt.Errorf("core: varbit field %q lacks a length", e.Field)
		}
		lenOff := -1
		scan := 0
		for _, e2 := range ss.Extracts {
			if e2.Field == e.LenField {
				lenOff = scan
				break
			}
			f2, _ := sy.spec.Field(e2.Field)
			scan += f2.Width
		}
		if lenOff < 0 {
			return 0, 0, fmt.Errorf("core: varbit length field %q must be extracted in the same state", e.LenField)
		}
		lf, _ := sy.spec.Field(e.LenField)
		n := int(input.Uint(pos+lenOff, lf.Width))*e.LenScale + e.LenBias
		if n < 0 {
			n = 0
		}
		if n > fld.Width {
			n = fld.Width
		}
		return off + n, n, nil
	}
	return off, 0, nil
}

// maxIterations bounds the unrolled simulation circuit for one input:
// loop-free skeletons need at most one visit per state; loopy ones are
// bounded by how many extractions the input can feed plus slack for
// extraction-free states.
func (sy *synthesizer) maxIterations(input bitstream.Bits) int {
	if !sy.sk.Loopy {
		return len(sy.sk.States) + 1
	}
	minW := 1 << 30
	for _, ss := range sy.sk.States {
		if ss.StaticWidth > 0 && ss.StaticWidth < minW {
			minW = ss.StaticWidth
		}
	}
	if minW == 1<<30 || minW == 0 {
		minW = 1
	}
	k := len(input)/minW + len(sy.sk.States) + 2
	if k > pir.DefaultMaxIterations {
		k = pir.DefaultMaxIterations
	}
	return k
}

// extract materializes the solver model as a concrete TCAM program over
// the given spec and skeleton (which may be the original, unscaled pair —
// entry contents transfer unchanged because keys only involve
// control-relevant bits; key part windows are re-derived from the
// skeleton).
func (sy *synthesizer) extract(spec *pir.Spec, sk *skeleton) *tcam.Program {
	model := sy.s
	prog := &tcam.Program{Spec: spec}
	for si, ss := range sk.States {
		st := tcam.State{Table: 0, ID: si, Key: skelKeyParts(ss.Key)}
		for _, ev := range sy.entries[si] {
			if !model.Value(ev.enabled) {
				continue
			}
			e := tcam.Entry{
				Value: model.BVValue(ev.value),
				Mask:  model.BVValue(ev.mask),
			}
			if model.Value(ev.doExtract) {
				e.Extracts = append([]pir.Extract(nil), ss.Extracts...)
			}
			for t, sel := range ev.nextSel {
				if !model.Value(sel) {
					continue
				}
				switch t {
				case len(sk.States) + tgtAcceptOff:
					e.Next = tcam.AcceptTarget
				case len(sk.States) + tgtRejectOff:
					e.Next = tcam.RejectTarget
				default:
					e.Next = tcam.To(0, t)
				}
				break
			}
			st.Entries = append(st.Entries, e)
		}
		prog.States = append(prog.States, st)
	}
	return prog
}

// sortedConfs returns the configuration keys in deterministic order so
// circuit construction (and therefore solver behaviour) is reproducible.
func sortedConfs(at map[conf]bv.Lit) []conf {
	out := make([]conf, 0, len(at))
	for c := range at {
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].state != out[b].state {
			return out[a].state < out[b].state
		}
		return out[a].pos < out[b].pos
	})
	return out
}

func skelKeyParts(parts []skelKeyPart) []pir.KeyPart {
	out := make([]pir.KeyPart, len(parts))
	for i, p := range parts {
		out[i] = p.KeyPart
	}
	return out
}
