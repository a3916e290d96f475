package cert

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// This file implements the walk: a symbolic product-automaton traversal
// of (effective spec × TCAM program) that proves the two equivalent or
// finds a branch where they disagree.
//
// The two machines disagree on phase — the spec extracts a state's
// fields and THEN matches its key at the advanced cursor, while a TCAM
// row matches its key at the PRE-extraction cursor (via lookahead and
// container references) and then extracts. The traversal bridges the
// shift by tracking one shared symbolic input stream: every input bit
// either machine can observe is an interned atom, and because a config
// is only ever advanced by extractions that both machines perform
// identically, their cursors always coincide and key reads on both
// sides resolve to the same atoms.
//
// Per joint configuration the store keeps, per atom, what is known:
//   - dict:     field name -> atoms of its current value
//   - consumed: the last maxBack consumed bits (for negative-skip
//     container matches), most recent last
//   - ahead:    cursor-relative offsets >= 0 -> atoms already observed
//     by lookahead but not yet extracted
//   - lits:     forced bit values (from entry/rule matches taken)
//   - clauses:  disjunctions recording that earlier, higher-priority
//     entries/rules did NOT match; carried across steps because
//     key-split chains resolve the spec's transition several impl
//     steps before the shadowing entries of later chunk states fire
//
// Branches are explored first-match-wins on both sides; infeasible
// branches (the accumulated literals and clauses are unsatisfiable) are
// pruned by a small DPLL. Everything unknown is a fresh unconstrained
// atom, so the branches over-approximate the joint runs: every packet
// follows some branch, and a spurious disagreement can only refute a
// correct program. The branches do not model the device's visit bound,
// which ends a loop that consumes nothing (stutterCycle).
//
// A disagreement carries a packet when it replays: every atom records its
// absolute input position, and every configuration keeps a trail of all
// the constraints its branch assumed, those gc dropped included; a model
// of the trail, written at the atoms' positions, is a packet.

// ErrMismatch marks a walk failure where the two machines disagree on a
// branch the walk found feasible: different extractions, different
// verdicts, or an implementation that cycles without consuming input
// while the spec side has not rejected. Every other failure (the
// configuration limit, a field-table mismatch, a zero-progress spec
// cycle) means the walk could not decide, not that the program is wrong.
// A disagreement that replays is a *MismatchError; the plain ErrMismatch
// means no packet built from the branch replays it.
var ErrMismatch = errors.New("machines disagree")

// MismatchError is an ErrMismatch with its evidence: a packet on which
// pir.Spec.Run and tcam.Program.Run disagree under pir.Result.Same, at a
// visit budget no run that makes progress within the packet exhausts.
type MismatchError struct {
	Packet bitstream.Bits
	error
}

func (e *MismatchError) Unwrap() error { return e.error }

const (
	specAccept = -1
	specReject = -2

	// maxConfigs bounds the product traversal; programs whose product
	// space exceeds it are left undecided.
	maxConfigs = 200000
)

// clit is one literal of a store clause: atom takes value bit.
type clit struct {
	atom int32
	bit  byte
}

// store is the symbolic-stream knowledge attached to one configuration.
type store struct {
	dict     map[string][]int32
	consumed []int32
	ahead    map[int]int32
	lits     map[int32]byte
	clauses  [][]clit
}

func newStore() *store {
	return &store{
		dict:  map[string][]int32{},
		ahead: map[int]int32{},
		lits:  map[int32]byte{},
	}
}

func (st *store) clone() *store {
	out := &store{
		dict:     make(map[string][]int32, len(st.dict)),
		consumed: append([]int32(nil), st.consumed...),
		ahead:    make(map[int]int32, len(st.ahead)),
		lits:     make(map[int32]byte, len(st.lits)),
		clauses:  append([][]clit(nil), st.clauses...),
	}
	for k, v := range st.dict {
		out.dict[k] = v
	}
	for k, v := range st.ahead {
		out.ahead[k] = v
	}
	for k, v := range st.lits {
		out.lits[k] = v
	}
	return out
}

// config is one joint configuration: spec side (state index or a
// terminal sentinel, plus how many of its extracts already ran), impl
// side (a TCAM row), the shared cursor and store, and the trail.
type config struct {
	spec    int // state index, specAccept, or specReject
	partial int
	table   int
	state   int
	cursor  int // absolute input position of both machines; -1 after a varbit extraction
	st      *store
	trail   *trail
	key     string // canonical key, set by enroll
}

func (c *config) clone() *config {
	return &config{spec: c.spec, partial: c.partial, table: c.table, state: c.state,
		cursor: c.cursor, st: c.st.clone(), trail: c.trail}
}

// trail is one step of the match literals and not-matched clauses a
// branch assumed, linked to the steps before. gc prunes the store that
// keys and feasibility use; the trail keeps every constraint.
type trail struct {
	parent *trail
	lits   []clit
	negs   [][]clit
}

type engine struct {
	eff     *pir.Spec
	prog    *tcam.Program
	maxBack int
	// pos is each atom's absolute input position, indexed by atom id; -1
	// for the constant-zero atom 0 and atoms minted at a symbolic cursor.
	pos   []int
	seen  map[string]bool
	queue []*config
	// stutters are the feasible transitions that extracted nothing while
	// the spec side had not rejected, as (from, to) configurations.
	stutters [][2]*config
}

// fresh mints an atom for the input bit at offset off from c's cursor.
func (e *engine) fresh(c *config, off int) int32 {
	pos := -1
	if c.cursor >= 0 {
		pos = c.cursor + off
	}
	e.pos = append(e.pos, pos)
	return int32(len(e.pos) - 1)
}

func (e *engine) failf(format string, args ...any) error {
	return fmt.Errorf("cert: walk: "+format, args...)
}

// mismatchf is failf for a disagreement between the machines on c's
// branch: a *MismatchError when a packet built from c's trail replays
// it, the plain ErrMismatch otherwise.
func (e *engine) mismatchf(c *config, format string, args ...any) error {
	err := fmt.Errorf("cert: walk: %w: "+format, append([]any{ErrMismatch}, args...)...)
	if pkt := e.packet(c); pkt != nil {
		return &MismatchError{Packet: pkt, error: err}
	}
	return err
}

// packet builds an input on which the reference interpreters disagree
// from a model of c's trail, or returns nil. The model fixes the bits at
// its atoms' known positions; the free bits take zeros, then ones, then
// six seeded random fills, up to the spec's one-pass input length or the
// highest constrained position.
func (e *engine) packet(c *config) bitstream.Bits {
	var clauses [][]clit
	for t := c.trail; t != nil; t = t.parent {
		for _, l := range t.lits {
			clauses = append(clauses, []clit{l})
		}
		clauses = append(clauses, t.negs...)
	}
	model, ok := dpll(map[int32]byte{}, clauses, 0)
	if !ok {
		return nil
	}
	n := e.eff.MaxConsumedBits(len(e.eff.States)+2) + e.eff.LookaheadUse()
	for a := range model {
		n = max(n, e.pos[a]+1)
	}
	// Between two extractions a run visits each state at most once unless
	// it loops without consuming, which the device's bound is for.
	budget := (n + 1) * (len(e.eff.States) + len(e.prog.States) + 1)
	rng := rand.New(rand.NewSource(1))
	pkt := make(bitstream.Bits, n)
	for fill := 0; fill < 8; fill++ {
		for i := range pkt {
			pkt[i] = byte(fill) // zeros, then ones
			if fill > 1 {
				pkt[i] = byte(rng.Intn(2))
			}
		}
		for a, v := range model {
			if p := e.pos[a]; p >= 0 {
				pkt[p] = v
			}
		}
		if !e.eff.Run(pkt, budget).Same(e.prog.Run(pkt, budget)) {
			return pkt
		}
	}
	return nil
}

func specName(eff *pir.Spec, spec int) string {
	switch spec {
	case specAccept:
		return "accept"
	case specReject:
		return "reject"
	}
	return eff.States[spec].Name
}

func specTargetIndex(t pir.Target) int {
	switch t.Kind {
	case pir.Accept:
		return specAccept
	case pir.Reject:
		return specReject
	}
	return t.State
}

// Walk traverses the product automaton of the effective spec and the
// program. It returns nil when the machines agree on every branch, an
// ErrMismatch error when they disagree on a feasible one, and another
// error when the walk cannot decide. It is fully independent of the
// synthesizer and of internal/core/verify.go.
func Walk(eff *pir.Spec, prog *tcam.Program) error {
	if len(eff.States) == 0 {
		return fmt.Errorf("cert: walk: effective spec has no states")
	}
	if err := checkFieldTables(eff, prog); err != nil {
		return err
	}
	e := &engine{
		eff:     eff,
		prog:    prog,
		maxBack: computeMaxBack(prog),
		pos:     []int{-1},
		seen:    map[string]bool{},
	}
	c0 := &config{spec: 0, partial: 0, table: 0, state: 0, st: newStore()}
	branches, err := e.normalize(c0, map[int]bool{})
	if err != nil {
		return err
	}
	for _, br := range branches {
		if err := e.enroll(br); err != nil {
			return err
		}
	}
	for len(e.queue) > 0 {
		c := e.queue[0]
		e.queue = e.queue[1:]
		if err := e.step(c); err != nil {
			return err
		}
	}
	return e.stutterCycle()
}

// checkFieldTables verifies that every field the program's states
// reference is declared identically in the effective spec, so widths
// computed on either side agree.
func checkFieldTables(eff *pir.Spec, prog *tcam.Program) error {
	check := func(name string) error {
		pf, ok := prog.Spec.Field(name)
		if !ok {
			return fmt.Errorf("cert: walk: program references field %q absent from its own field table", name)
		}
		ef, ok := eff.Field(name)
		if !ok {
			return fmt.Errorf("cert: walk: program references field %q absent from the effective spec", name)
		}
		if pf.Width != ef.Width || pf.Var != ef.Var {
			return fmt.Errorf("cert: walk: field %q declared %d bits (var=%v) by the program but %d bits (var=%v) by the spec",
				name, pf.Width, pf.Var, ef.Width, ef.Var)
		}
		return nil
	}
	for si := range prog.States {
		s := &prog.States[si]
		for _, k := range s.Key {
			if !k.Lookahead {
				if err := check(k.Field); err != nil {
					return err
				}
			}
		}
		for ei := range s.Entries {
			for _, x := range s.Entries[ei].Extracts {
				if err := check(x.Field); err != nil {
					return err
				}
				if x.LenField != "" {
					if err := check(x.LenField); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// computeMaxBack returns how many already-consumed bits any program key
// can reach back into via negative-skip lookahead (container matches).
func computeMaxBack(prog *tcam.Program) int {
	back := 0
	for si := range prog.States {
		for _, k := range prog.States[si].Key {
			if k.Lookahead && k.Skip < 0 && -k.Skip > back {
				back = -k.Skip
			}
		}
	}
	return back
}

// enroll canonicalizes a normalized configuration whose impl side sits
// at a TCAM row and enqueues it if new.
func (e *engine) enroll(c *config) error {
	if c.spec >= 0 && c.partial >= len(e.eff.States[c.spec].Extracts) {
		// normalize() upholds this; a violation is a checker bug.
		return e.failf("internal: unnormalized configuration enqueued")
	}
	gc(c.st)
	c.key = e.canonicalKey(c)
	if e.seen[c.key] {
		return nil
	}
	if len(e.seen) >= maxConfigs {
		return e.failf("product traversal exceeded %d configurations", maxConfigs)
	}
	e.seen[c.key] = true
	e.queue = append(e.queue, c)
	return nil
}

// step explores one TCAM row: resolve its key to atoms, branch over its
// entries first-match-wins, and for each feasible branch consume the
// entry's extractions against the spec and follow its target. The
// no-entry-matched branch is a TCAM reject.
func (e *engine) step(c *config) error {
	ist := e.prog.Lookup(c.table, c.state)
	if ist == nil {
		// Transition into a missing row rejects in tcam.RunFrom.
		return e.requireSpecVerdict(c, specReject)
	}
	keyAtoms := e.resolveKey(c, ist.Key)
	var negs [][]clit
	for ei := range ist.Entries {
		en := &ist.Entries[ei]
		lits, ok := matchConstraints(keyAtoms, en.Value, en.Mask)
		if ok {
			br := c.clone()
			if br.assume(lits, negs) {
				if err := e.consume(br, en.Extracts, en.Next); err != nil {
					return err
				}
				if len(en.Extracts) == 0 && en.Next.Kind == tcam.ToState && c.spec != specReject {
					e.stutters = append(e.stutters, [2]*config{c, br})
				}
			}
		}
		cl, status := negClause(keyAtoms, en.Value, en.Mask)
		switch status {
		case entryAlwaysFires:
			return nil // later entries and the no-match branch are unreachable
		case entryNeverFires:
			continue
		}
		negs = append(negs, cl)
	}
	br := c.clone()
	if br.assume(nil, negs) {
		return e.requireSpecVerdict(br, specReject)
	}
	return nil
}

// consume matches an entry's extraction list against the spec's pending
// extractions one by one, re-normalizing the spec side (which may
// resolve one or more spec transitions) after each, then commits the
// impl transition.
func (e *engine) consume(c *config, extracts []pir.Extract, next tcam.Target) error {
	if len(extracts) == 0 {
		return e.commit(c, next)
	}
	x := extracts[0]
	if c.spec < 0 {
		return e.mismatchf(c, "implementation extracts %q after the spec reached %s", x.Field, specName(e.eff, c.spec))
	}
	ss := &e.eff.States[c.spec]
	sx := ss.Extracts[c.partial]
	if sx != x {
		return e.mismatchf(c, "extraction mismatch in spec state %q: spec extracts %s, implementation extracts %s",
			ss.Name, describeExtract(sx), describeExtract(x))
	}
	e.applyExtract(c, x)
	c.partial++
	branches, err := e.normalize(c, map[int]bool{})
	if err != nil {
		return err
	}
	for _, br := range branches {
		if err := e.consume(br, extracts[1:], next); err != nil {
			return err
		}
	}
	return nil
}

func describeExtract(x pir.Extract) string {
	if x.LenField == "" {
		return x.Field
	}
	return fmt.Sprintf("%s<%s*%d%+d>", x.Field, x.LenField, x.LenScale, x.LenBias)
}

// commit finishes an impl transition after all its extractions ran.
func (e *engine) commit(c *config, next tcam.Target) error {
	switch next.Kind {
	case tcam.Accept:
		return e.requireSpecVerdict(c, specAccept)
	case tcam.Reject:
		return e.requireSpecVerdict(c, specReject)
	}
	c.table, c.state = next.Table, next.State
	return e.enroll(c)
}

// requireSpecVerdict handles the impl side terminating (or rejecting on
// no-match): the spec side of a normalized config must already sit at
// the same verdict. A spec state with pending extractions would extract
// further and diverge the dictionaries, so it fails.
func (e *engine) requireSpecVerdict(c *config, want int) error {
	if c.spec == want {
		return nil
	}
	if c.spec < 0 {
		return e.mismatchf(c, "verdict mismatch: implementation reached %s but spec reached %s",
			specName(e.eff, want), specName(e.eff, c.spec))
	}
	return e.mismatchf(c, "implementation reached %s but spec state %q still expects extraction",
		specName(e.eff, want), e.eff.States[c.spec].Name)
}

// stutterCycle fails when the recorded transitions that extract nothing
// reach a cycle. Such a transition changes neither the cursor nor the
// spec side, so a packet the cycle admits takes it forever: the device
// rejects at its visit bound while the spec side, which has not
// rejected, may still accept. The transitions come from over-approximated
// branches, so this may refute a correct program, say one whose spec side
// rejects on every continuation anyway. The depth-first search starts
// from canonical keys in sorted order, so the message is deterministic;
// the packet comes from the branch that closes the cycle.
func (e *engine) stutterCycle() error {
	succ := map[string][]*config{}
	var from []*config
	for _, s := range e.stutters {
		from = append(from, s[0])
		succ[s[0].key] = append(succ[s[0].key], s[1])
	}
	sort.Slice(from, func(i, j int) bool { return from[i].key < from[j].key })
	const onPath, done = 1, 2
	mark := map[string]int{}
	var closer *config // the branch whose transition closes the cycle found
	var cyclic func(k string) bool
	cyclic = func(k string) bool {
		mark[k] = onPath
		for _, n := range succ[k] {
			if mark[n.key] == onPath {
				closer = n
				return true
			}
			if mark[n.key] == 0 && cyclic(n.key) {
				return true
			}
		}
		mark[k] = done
		return false
	}
	for _, c := range from {
		if mark[c.key] == 0 && cyclic(c.key) {
			return e.mismatchf(closer, "implementation loops without consuming input from row %d.%d while the spec side is at %s",
				c.table, c.state, specName(e.eff, c.spec))
		}
	}
	return nil
}

// normalize resolves the spec side until it either terminates or has a
// pending extraction: whenever all of a state's extracts ran, the
// spec's transition fires immediately (its key reads resolve at the
// current shared cursor), branching over rules first-match-wins. seen
// guards against zero-progress spec cycles.
func (e *engine) normalize(c *config, seen map[int]bool) ([]*config, error) {
	if c.spec < 0 {
		return []*config{c}, nil
	}
	ss := &e.eff.States[c.spec]
	if c.partial < len(ss.Extracts) {
		return []*config{c}, nil
	}
	if seen[c.spec] {
		return nil, e.failf("zero-progress cycle through spec state %q", ss.Name)
	}
	seen[c.spec] = true
	advance := func(br *config, t pir.Target) ([]*config, error) {
		br.spec = specTargetIndex(t)
		br.partial = 0
		sub := make(map[int]bool, len(seen))
		for k := range seen {
			sub[k] = true
		}
		return e.normalize(br, sub)
	}
	if len(ss.Key) == 0 {
		return advance(c, ss.Default)
	}
	keyAtoms := e.resolveKey(c, ss.Key)
	var out []*config
	var negs [][]clit
	for _, r := range ss.Rules {
		lits, ok := matchConstraints(keyAtoms, r.Value, r.Mask)
		if ok {
			br := c.clone()
			if br.assume(lits, negs) {
				sub, err := advance(br, r.Next)
				if err != nil {
					return nil, err
				}
				out = append(out, sub...)
			}
		}
		cl, status := negClause(keyAtoms, r.Value, r.Mask)
		switch status {
		case entryAlwaysFires:
			return out, nil // the default is unreachable
		case entryNeverFires:
			continue
		}
		negs = append(negs, cl)
	}
	br := c.clone()
	if br.assume(nil, negs) {
		sub, err := advance(br, ss.Default)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// resolveKey maps a key-part list to one atom per key bit, MSB first.
// Lookahead offsets >= 0 read (or mint) ahead atoms; negative offsets
// read the consumed window, the constant-zero atom before the start of
// the packet, or a fresh unconstrained atom when outside the retained
// window. Field parts read the dictionary; never-extracted fields read
// as constant zero, mirroring bitstream.Dict.
func (e *engine) resolveKey(c *config, key []pir.KeyPart) []int32 {
	st := c.st
	var atoms []int32
	for _, p := range key {
		if p.Lookahead {
			for i := 0; i < p.Width; i++ {
				off := p.Skip + i
				if off >= 0 {
					a, ok := st.ahead[off]
					if !ok {
						a = e.fresh(c, off)
						st.ahead[off] = a
					}
					atoms = append(atoms, a)
					continue
				}
				d := -off
				switch {
				case d <= len(st.consumed):
					atoms = append(atoms, st.consumed[len(st.consumed)-d])
				case c.cursor >= 0 && d > c.cursor:
					atoms = append(atoms, 0) // before the packet: zero-pad
				default: // only at a symbolic cursor: the window holds maxBack bits
					atoms = append(atoms, e.fresh(c, off))
				}
			}
			continue
		}
		bits := st.dict[p.Field]
		for i := p.Lo; i < p.Hi; i++ {
			if i < len(bits) {
				atoms = append(atoms, bits[i])
			} else {
				atoms = append(atoms, 0)
			}
		}
	}
	return atoms
}

// applyExtract advances the shared stream by one extraction: ahead
// atoms within the width become the field's value (minting atoms for
// bits nobody observed yet), the consumed window slides, and the ahead
// window shifts down. A varbit extraction advances symbolically — the
// cursor-relative knowledge is discarded and the field becomes fresh —
// because its runtime width is data-dependent; both machines compute
// that width from the same LenField atoms, so their cursors stay equal.
func (e *engine) applyExtract(c *config, x pir.Extract) {
	st := c.st
	f, _ := e.eff.Field(x.Field)
	w := f.Width
	if x.LenField != "" {
		st.consumed = nil
		st.ahead = map[int]int32{}
		c.cursor = -1
		bits := make([]int32, w)
		for i := range bits {
			bits[i] = e.fresh(c, i)
		}
		st.dict[x.Field] = bits
		return
	}
	bits := make([]int32, w)
	for i := 0; i < w; i++ {
		if a, ok := st.ahead[i]; ok {
			bits[i] = a
		} else {
			bits[i] = e.fresh(c, i)
		}
	}
	na := make(map[int]int32, len(st.ahead))
	for off, a := range st.ahead {
		if off >= w {
			na[off-w] = a
		}
	}
	st.ahead = na
	st.dict[x.Field] = bits
	if c.cursor >= 0 {
		c.cursor += w
	}
	if e.maxBack == 0 {
		st.consumed = nil
		return
	}
	st.consumed = append(st.consumed, bits...)
	if len(st.consumed) > e.maxBack {
		st.consumed = append([]int32(nil), st.consumed[len(st.consumed)-e.maxBack:]...)
	}
}

const (
	entryBranches    = iota // clause constrains later branches
	entryAlwaysFires        // matches every assignment: later branches unreachable
	entryNeverFires         // constant mismatch: contributes no constraint
)

// matchConstraints returns the literals forced by "this entry fires":
// every masked key bit equals the entry's value bit. ok is false when a
// constant-zero key bit contradicts the value outright.
func matchConstraints(keyAtoms []int32, value, mask uint64) (lits []clit, ok bool) {
	w := len(keyAtoms)
	for j, a := range keyAtoms {
		pos := uint(w - 1 - j)
		if mask>>pos&1 == 0 {
			continue
		}
		b := byte(value >> pos & 1)
		if a == 0 {
			if b != 0 {
				return nil, false
			}
			continue
		}
		lits = append(lits, clit{atom: a, bit: b})
	}
	return lits, true
}

// negClause returns the clause expressing "this entry does NOT fire":
// at least one masked free key bit differs from the value.
func negClause(keyAtoms []int32, value, mask uint64) ([]clit, int) {
	w := len(keyAtoms)
	var cl []clit
	for j, a := range keyAtoms {
		pos := uint(w - 1 - j)
		if mask>>pos&1 == 0 {
			continue
		}
		b := byte(value >> pos & 1)
		if a == 0 {
			if b != 0 {
				return nil, entryNeverFires // constant mismatch: negation is vacuous
			}
			continue
		}
		cl = append(cl, clit{atom: a, bit: 1 - b})
	}
	if len(cl) == 0 {
		return nil, entryAlwaysFires
	}
	return cl, entryBranches
}

// assume adds match literals and not-matched clauses to the store and
// the trail, and reports whether the store remains satisfiable.
func (c *config) assume(lits []clit, negs [][]clit) bool {
	if len(lits) > 0 || len(negs) > 0 {
		c.trail = &trail{parent: c.trail, lits: lits, negs: negs}
	}
	st := c.st
	for _, l := range lits {
		if v, ok := st.lits[l.atom]; ok {
			if v != l.bit {
				return false
			}
			continue
		}
		st.lits[l.atom] = l.bit
	}
	st.clauses = append(st.clauses, negs...)
	if len(st.clauses) == 0 {
		return true
	}
	asn := make(map[int32]byte, len(st.lits))
	for k, v := range st.lits {
		asn[k] = v
	}
	_, ok := dpll(asn, st.clauses, 0)
	return ok
}

// dpll runs a small DPLL (unit propagation plus branching) over the
// clauses, extending the partial assignment asn, and returns a model.
// Clause literals never mention the constant-zero atom, and clause
// counts per config stay small after gc, so this is cheap in practice.
func dpll(asn map[int32]byte, clauses [][]clit, depth int) (map[int32]byte, bool) {
	if depth > 64 {
		// Give up and over-approximate: treating an undecided store as
		// satisfiable can only add branches, never hide one. The model is
		// then partial, and a packet built from it may not replay.
		return asn, true
	}
	for {
		changed := false
		var pick *clit // first free literal of the first open clause
		for _, cl := range clauses {
			var free *clit
			nfree, sat := 0, false
			for i, l := range cl {
				v, ok := asn[l.atom]
				if ok && v == l.bit {
					sat = true
					break
				}
				if !ok && free == nil {
					free = &cl[i]
				}
				if !ok {
					nfree++
				}
			}
			switch {
			case sat:
			case nfree == 0:
				return nil, false
			case nfree == 1:
				asn[free.atom] = free.bit
				changed = true
			case pick == nil:
				pick = free
			}
		}
		if changed {
			continue
		}
		if pick == nil {
			return asn, true
		}
		l := *pick
		pos := make(map[int32]byte, len(asn)+1)
		for k, v := range asn {
			pos[k] = v
		}
		pos[l.atom] = l.bit
		if m, ok := dpll(pos, clauses, depth+1); ok {
			return m, true
		}
		asn[l.atom] = 1 - l.bit
		return dpll(asn, clauses, depth+1)
	}
}

// gc shrinks a store to what future steps can observe: atoms reachable
// from dict, consumed, and ahead. Literals on dead atoms are dropped;
// clauses are simplified against the literals (satisfied clauses and
// false literals removed, units promoted to literals) and any clause
// mentioning a dead atom is dropped entirely — forgetting a constraint
// over-approximates, which is sound for this checker. Canonicalization
// depends on gc producing a minimal, deterministic store.
func gc(st *store) {
	ref := make(map[int32]bool)
	for _, bits := range st.dict {
		for _, a := range bits {
			ref[a] = true
		}
	}
	for _, a := range st.consumed {
		ref[a] = true
	}
	for _, a := range st.ahead {
		ref[a] = true
	}
	for a := range st.lits {
		if !ref[a] {
			delete(st.lits, a)
		}
	}
	for {
		var out [][]clit
		promoted := false
	clauseLoop:
		for _, cl := range st.clauses {
			var kept []clit
			for _, l := range cl {
				if v, ok := st.lits[l.atom]; ok {
					if v == l.bit {
						continue clauseLoop // satisfied
					}
					continue // literal false
				}
				if !ref[l.atom] {
					continue clauseLoop // constraint on a dead atom: forget it
				}
				kept = append(kept, l)
			}
			if len(kept) == 0 {
				// All literals false: the config was infeasible, which
				// assume() rules out before enroll. Keep nothing.
				continue
			}
			if len(kept) == 1 {
				st.lits[kept[0].atom] = kept[0].bit
				promoted = true
				continue
			}
			for i := range kept {
				for j := i + 1; j < len(kept); j++ {
					if kept[i].atom == kept[j].atom && kept[i].bit != kept[j].bit {
						continue clauseLoop // tautology
					}
				}
			}
			out = append(out, kept)
		}
		st.clauses = out
		if !promoted {
			break
		}
	}
	// Deduplicate clauses under a canonical literal order.
	if len(st.clauses) > 1 {
		seen := make(map[string]bool, len(st.clauses))
		var uniq [][]clit
		for _, cl := range st.clauses {
			sort.Slice(cl, func(i, j int) bool {
				if cl[i].atom != cl[j].atom {
					return cl[i].atom < cl[j].atom
				}
				return cl[i].bit < cl[j].bit
			})
			var b strings.Builder
			for _, l := range cl {
				fmt.Fprintf(&b, "%d:%d,", l.atom, l.bit)
			}
			if seen[b.String()] {
				continue
			}
			seen[b.String()] = true
			uniq = append(uniq, cl)
		}
		st.clauses = uniq
	}
}

// canonicalKey renders a configuration under a deterministic atom
// renumbering so that configurations differing only in atom identity
// memoize to the same key. Atoms are numbered in order of first
// appearance scanning dict (sorted by field), consumed, then ahead
// (sorted by offset); after gc every literal and clause atom is
// reachable from those, so the renumbering is total.
func (e *engine) canonicalKey(c *config) string {
	st := c.st
	ren := map[int32]int32{0: 0}
	var next int32
	num := func(a int32) int32 {
		if r, ok := ren[a]; ok {
			return r
		}
		next++
		ren[a] = next
		return next
	}
	var b strings.Builder
	// All the absolute cursor adds is whether a negative-skip read reaches
	// before the start of the packet, where the stream zero-pads.
	fmt.Fprintf(&b, "%d.%d@%d.%d;t%d", c.spec, c.partial, c.table, c.state, min(c.cursor, e.maxBack))
	fields := make([]string, 0, len(st.dict))
	for f := range st.dict {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, f := range fields {
		b.WriteString(";f=")
		b.WriteString(f)
		for _, a := range st.dict[f] {
			fmt.Fprintf(&b, ",%d", num(a))
		}
	}
	b.WriteString(";c=")
	for _, a := range st.consumed {
		fmt.Fprintf(&b, "%d,", num(a))
	}
	offs := make([]int, 0, len(st.ahead))
	for off := range st.ahead {
		offs = append(offs, off)
	}
	sort.Ints(offs)
	b.WriteString(";a=")
	for _, off := range offs {
		fmt.Fprintf(&b, "%d:%d,", off, num(st.ahead[off]))
	}
	type rlit struct {
		atom int32
		bit  byte
	}
	rls := make([]rlit, 0, len(st.lits))
	for a, v := range st.lits {
		rls = append(rls, rlit{num(a), v})
	}
	sort.Slice(rls, func(i, j int) bool { return rls[i].atom < rls[j].atom })
	b.WriteString(";l=")
	for _, l := range rls {
		fmt.Fprintf(&b, "%d:%d,", l.atom, l.bit)
	}
	cls := make([]string, 0, len(st.clauses))
	for _, cl := range st.clauses {
		lits := make([]rlit, 0, len(cl))
		for _, l := range cl {
			lits = append(lits, rlit{num(l.atom), l.bit})
		}
		sort.Slice(lits, func(i, j int) bool {
			if lits[i].atom != lits[j].atom {
				return lits[i].atom < lits[j].atom
			}
			return lits[i].bit < lits[j].bit
		})
		var cb strings.Builder
		for _, l := range lits {
			fmt.Fprintf(&cb, "%d:%d|", l.atom, l.bit)
		}
		cls = append(cls, cb.String())
	}
	sort.Strings(cls)
	b.WriteString(";k=")
	for _, s := range cls {
		b.WriteString(s)
		b.WriteString(" ")
	}
	return b.String()
}
