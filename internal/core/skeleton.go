package core

import (
	"fmt"
	"slices"

	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
)

// A skeleton is one structural subproblem handed to the solver (§6.7.2):
// the set of implementation states with concrete extraction work and
// concrete transition-key composition. The solver fills in the symbolic
// per-entry (value, mask, next) variables. ParserHawk proposes several
// skeletons per compilation — base, loop-merged, key-split variants — and
// solves them as a portfolio.
type skeleton struct {
	Name   string
	States []skelState
	// Loopy permits transitions to any state (single-TCAM-table targets);
	// otherwise transitions must move strictly forward in state order
	// (pipelined targets, Figure 11 New2).
	Loopy bool
}

// skelKeyPart is a key component with its cursor-relative window resolved
// for the encoder. RelOff is the bit offset of the window from the current
// cursor: non-negative offsets are lookahead; negative offsets reference
// bits of fields extracted in earlier states (matched from their header
// containers at run time).
type skelKeyPart struct {
	pir.KeyPart
	RelOff int
}

// skelState is one implementation state of a skeleton.
type skelState struct {
	Name       string
	SpecStates []int // spec states this impl state realizes
	Extracts   []pir.Extract
	Key        []skelKeyPart
	KeyWidth   int
	MaxEntries int
	// Candidates is the Opt4 value domain for this state's entries (see
	// candidates): entry VALUES are drawn from it; masks remain symbolic
	// (§6.4.1, §6.4.2). Empty means free symbolic values (the naive
	// encoding).
	Candidates []uint64
	// StaticWidth is the extraction width when no varbit is present;
	// varbit states compute width per input position.
	StaticWidth int
	HasVarbit   bool
	// Key-split chain wiring: states with ChainLevel > 0 are continuation
	// chunks that may only be entered from ChainLevel-1 of the same
	// ChainGroup. Level 0 (and plain states) are freely targetable.
	ChainGroup string
	ChainLevel int
	// OptionalExtract marks states whose entries individually choose
	// whether to perform the state's extraction (key-split chunks: the
	// extraction must happen exactly once along each chain traversal, and
	// synthesis decides where).
	OptionalExtract bool
}

// layout describes where a spec state's extracted fields sit relative to
// the cursor at state entry.
type layout struct {
	offsets  map[string]int // field -> bit offset from state-entry cursor
	width    int            // total static width (varbit counted at 0)
	varbitAt int            // offset where the varbit begins, -1 if none
	varbit   string
}

func stateLayout(spec *pir.Spec, st *pir.State) (layout, error) {
	l := layout{offsets: map[string]int{}, varbitAt: -1}
	for _, e := range st.Extracts {
		f, _ := spec.Field(e.Field)
		if f.Var {
			if l.varbitAt >= 0 {
				return l, fmt.Errorf("core: state %q extracts two varbit fields", st.Name)
			}
			l.varbitAt = l.width
			l.varbit = e.Field
			l.offsets[e.Field] = l.width
			continue
		}
		if l.varbitAt >= 0 {
			return l, fmt.Errorf("core: state %q extracts %q after a varbit field; varbit members must come last",
				st.Name, e.Field)
		}
		l.offsets[e.Field] = l.width
		l.width += f.Width
	}
	return l, nil
}

// backoffs computes, for every spec state, the distance (in bits) from the
// start of each earlier-extracted field to the cursor at the state's
// entry. A field with inconsistent distances across paths, or separated
// from the use site by a varbit extraction, maps to -1 (unusable for the
// static encoding).
func backoffs(spec *pir.Spec) ([]map[string]int, error) {
	type env map[string]int // field -> distance back from cursor; -1 = dynamic
	envs := make([]env, len(spec.States))
	layouts := make([]layout, len(spec.States))
	for i := range spec.States {
		var err error
		layouts[i], err = stateLayout(spec, &spec.States[i])
		if err != nil {
			return nil, err
		}
	}

	merge := func(dst env, src env) (env, bool) {
		if dst == nil {
			out := env{}
			for k, v := range src {
				out[k] = v
			}
			return out, true
		}
		changed := false
		for k, v := range src {
			if old, ok := dst[k]; !ok {
				dst[k] = v
				changed = true
			} else if old != v && old != -1 {
				dst[k] = -1
				changed = true
			}
		}
		return dst, changed
	}

	// Fixpoint propagation (loops converge because conflicting offsets
	// collapse to -1).
	envs[0] = env{}
	work := []int{0}
	for len(work) > 0 {
		si := work[0]
		work = work[1:]
		st := &spec.States[si]
		lay := layouts[si]
		// Environment after this state's extraction.
		after := env{}
		for k, v := range envs[si] {
			if v == -1 || lay.varbitAt >= 0 {
				// Crossing a varbit makes every earlier distance dynamic.
				after[k] = -1
			} else {
				after[k] = v + lay.width
			}
		}
		for f, off := range lay.offsets {
			if f == lay.varbit {
				after[f] = -1
				continue
			}
			if lay.varbitAt >= 0 {
				after[f] = -1 // distance from field start to post-varbit cursor is dynamic
			} else {
				after[f] = lay.width - off
			}
		}
		push := func(t pir.Target) {
			if t.Kind != pir.ToState {
				return
			}
			m, changed := merge(envs[t.State], after)
			envs[t.State] = m
			if changed {
				work = append(work, t.State)
			}
		}
		for _, r := range st.Rules {
			push(r.Next)
		}
		push(st.Default)
	}
	out := make([]map[string]int, len(envs))
	for i, e := range envs {
		out[i] = e
	}
	return out, nil
}

// realizeKey converts one spec state's transition key into cursor-relative
// implementation key parts: same-state fields become lookahead windows at
// their pre-extraction offsets, spec lookahead shifts past the state's
// extraction width, and earlier-state fields become container matches with
// a statically known back-offset.
func realizeKey(spec *pir.Spec, si int, lay layout, back map[string]int) ([]skelKeyPart, error) {
	st := &spec.States[si]
	var out []skelKeyPart
	for _, p := range st.Key {
		switch {
		case p.Lookahead:
			if lay.varbitAt >= 0 {
				return nil, fmt.Errorf("core: state %q uses lookahead past a varbit extraction", st.Name)
			}
			out = append(out, skelKeyPart{
				KeyPart: pir.LookaheadBits(lay.width+p.Skip, p.Width),
				RelOff:  lay.width + p.Skip,
			})
		default:
			if off, ok := lay.offsets[p.Field]; ok {
				if p.Field == lay.varbit {
					return nil, fmt.Errorf("core: state %q keys on its own varbit field %q", st.Name, p.Field)
				}
				// Extracted in this state: bits sit ahead of the cursor.
				out = append(out, skelKeyPart{
					KeyPart: pir.LookaheadBits(off+p.Lo, p.Hi-p.Lo),
					RelOff:  off + p.Lo,
				})
				continue
			}
			d, ok := back[p.Field]
			if !ok {
				return nil, fmt.Errorf("core: state %q keys on field %q that is not extracted on every path",
					st.Name, p.Field)
			}
			if d < 0 {
				return nil, fmt.Errorf("core: state %q keys on field %q whose position is not static (varbit or conflicting paths in between)",
					st.Name, p.Field)
			}
			out = append(out, skelKeyPart{
				KeyPart: p, // container match at run time
				RelOff:  -d + p.Lo,
			})
		}
	}
	return out, nil
}

// buildSkeletons produces the portfolio of structural subproblems for a
// spec and profile, ordered roughly by expected resource usage (smallest
// first). It implements the structural side of Opt3 (field-to-state
// preallocation), Opt4 (candidate constant domains), Opt7.1 (loop-aware vs
// loop-free and loop merging), and §6.4.3 key splitting.
func buildSkeletons(spec *pir.Spec, profile hw.Profile, opts Options, unroll int) ([]skeleton, *pir.Spec, error) {
	reach := spec.Reachable()
	back, err := backoffs(spec)
	if err != nil {
		return nil, nil, err
	}

	loopy := spec.HasLoop()
	if loopy && !profile.AllowLoops() {
		var uerr error
		spec, uerr = unrollSpec(spec, unrollDepth(unroll))
		if uerr != nil {
			return nil, nil, uerr
		}
		reach = spec.Reachable()
		back, err = backoffs(spec)
		if err != nil {
			return nil, nil, err
		}
		loopy = false
	}

	base, err := baseSkeleton(spec, profile, opts, reach, back, profile.AllowLoops())
	if err != nil {
		return nil, nil, err
	}

	var out []skeleton
	if profile.AllowLoops() {
		// Loop-merged quotient first (fewest states), then loop-free when the
		// spec has no loops (§6.7.1 runs both in parallel).
		if q, ok := quotientSkeleton(spec, profile, opts, base); ok {
			out = append(out, q)
		}
	}
	out = append(out, base)

	// Key-split variants in both chunk orders when any state's key exceeds
	// the hardware width (Figure 4 Step 2; different check orders cost
	// different entry counts).
	needsSplit := false
	for _, st := range base.States {
		if st.KeyWidth > profile.KeyLimit {
			needsSplit = true
		}
	}
	if needsSplit {
		var split []skeleton
		for _, reversed := range []bool{false, true} {
			sk, err := splitSkeleton(spec, profile, opts, base, reversed)
			if err != nil {
				return nil, nil, err
			}
			split = append(split, sk)
		}
		// Split skeletons replace the (un-implementable) wide ones.
		filtered := split
		for _, sk := range out {
			wide := false
			for _, st := range sk.States {
				if st.KeyWidth > profile.KeyLimit {
					wide = true
				}
			}
			if !wide {
				filtered = append(filtered, sk)
			}
		}
		out = filtered
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("core: no implementable skeleton for %q on %s", spec.Name, profile.Name)
	}
	return out, spec, nil
}

// baseSkeleton maps each reachable spec state to one implementation
// state — or to an extraction/selection state pair when the device's
// lookahead window is too small to check the state's key before
// extraction. The deferred pair realizes the classic Gibb-style flow:
// extract the fields into their containers, then match them in the next
// state.
func baseSkeleton(spec *pir.Spec, profile hw.Profile, opts Options, reach []bool, back []map[string]int, loopy bool) (skeleton, error) {
	sk := skeleton{Name: "base", Loopy: loopy && spec.HasLoop()}
	order := topoOrder(spec, reach)
	for _, si := range order {
		st := &spec.States[si]
		lay, err := stateLayout(spec, st)
		if err != nil {
			return skeleton{}, err
		}
		key, err := realizeKey(spec, si, lay, back[si])
		if err != nil {
			return skeleton{}, err
		}
		reachBits := 0
		for _, p := range key {
			if p.Lookahead && p.RelOff >= 0 && p.RelOff+p.BitWidth() > reachBits {
				reachBits = p.RelOff + p.BitWidth()
			}
		}
		if reachBits > profile.LookaheadLimit {
			ext, sel, err := deferredPair(spec, si, st, lay, key, opts)
			if err != nil {
				return skeleton{}, err
			}
			sk.States = append(sk.States, ext, sel)
			continue
		}
		kw := 0
		for _, p := range key {
			kw += p.BitWidth()
		}
		if !opts.Opt5KeyGrouping && !opts.Opt4ConstantSynthesis && kw > 0 && lay.varbitAt < 0 {
			// (Padding applies only with free symbolic constants: Opt4's
			// candidate values are aligned to the spec's grouped key.)
			// Without Opt5 (§6.5) the key is not restricted to the spec's
			// grouped field slices: every bit of the state's extraction
			// window is an individual key-construction candidate, so the
			// solver faces a wider key whose extra bits it must learn to
			// mask out. This is the per-bit allocation search the grouping
			// optimization removes.
			covered := make([]bool, lay.width)
			for _, p := range key {
				if p.RelOff >= 0 {
					for j := 0; j < p.BitWidth(); j++ {
						if at := p.RelOff + j; at < lay.width {
							covered[at] = true
						}
					}
				}
			}
			for at := 0; at < lay.width && kw < profile.KeyLimit && kw < 63; at++ {
				if covered[at] {
					continue
				}
				key = append(key, skelKeyPart{
					KeyPart: pir.LookaheadBits(at, 1),
					RelOff:  at,
				})
				kw++
			}
		}
		ss := skelState{
			Name:        st.Name,
			SpecStates:  []int{si},
			Extracts:    append([]pir.Extract(nil), st.Extracts...),
			Key:         key,
			KeyWidth:    kw,
			MaxEntries:  len(st.Rules) + 2,
			StaticWidth: lay.width,
			HasVarbit:   lay.varbitAt >= 0,
		}
		if opts.Opt4ConstantSynthesis {
			ss.Candidates = candidates(spec, []int{si}, kw, 0, kw)
		}
		sk.States = append(sk.States, ss)
	}
	return sk, nil
}

// deferredPair splits one spec state into an extraction-only state and a
// selection-only state whose key matches the freshly filled containers,
// for devices whose lookahead window cannot cover the key before
// extraction. Post-synthesis folding absorbs the extraction state into its
// predecessors' entries, so the deferral usually costs nothing extra.
func deferredPair(spec *pir.Spec, si int, st *pir.State, lay layout, key []skelKeyPart, opts Options) (skelState, skelState, error) {
	if lay.varbitAt >= 0 {
		return skelState{}, skelState{}, fmt.Errorf(
			"core: state %q needs deferred matching but extracts a varbit field", st.Name)
	}
	var selKey []skelKeyPart
	kw := 0
	for i, p := range key {
		np := p
		if p.Lookahead && p.RelOff >= 0 && p.RelOff < lay.width {
			// A window over this state's own extraction: match the
			// container instead, at its (now negative) back-offset.
			orig := st.Key[i]
			np = skelKeyPart{KeyPart: orig, RelOff: p.RelOff - lay.width}
		} else if p.Lookahead {
			// True lookahead beyond the extraction: shift past it.
			np = skelKeyPart{
				KeyPart: pir.LookaheadBits(p.Skip-lay.width, p.Width),
				RelOff:  p.RelOff - lay.width,
			}
		}
		selKey = append(selKey, np)
		kw += np.BitWidth()
	}
	ext := skelState{
		Name:        st.Name + "/ext",
		SpecStates:  []int{si},
		Extracts:    append([]pir.Extract(nil), st.Extracts...),
		MaxEntries:  2,
		StaticWidth: lay.width,
	}
	sel := skelState{
		Name:       st.Name + "/sel",
		SpecStates: []int{si},
		Key:        selKey,
		KeyWidth:   kw,
		MaxEntries: len(st.Rules) + 2,
	}
	if opts.Opt4ConstantSynthesis {
		sel.Candidates = candidates(spec, []int{si}, kw, 0, kw)
	}
	return ext, sel, nil
}

// quotientSkeleton merges structurally identical spec states into a single
// looping implementation state (the MPLS single-entry loop of §3.1 and the
// loop-aware half of §6.7.1). Returns ok=false when no two states merge.
func quotientSkeleton(spec *pir.Spec, profile hw.Profile, opts Options, base skeleton) (skeleton, bool) {
	// Group base states by (extract signature, key signature).
	sig := func(ss skelState) string {
		s := ""
		for _, e := range ss.Extracts {
			s += e.Field + "/" + e.LenField + ";"
		}
		s += "|"
		for _, k := range ss.Key {
			s += fmt.Sprintf("%v@%d;", k.KeyPart, k.RelOff)
		}
		return s
	}
	groups := map[string][]int{}
	var orderKeys []string
	for i, ss := range base.States {
		k := sig(ss)
		if _, ok := groups[k]; !ok {
			orderKeys = append(orderKeys, k)
		}
		groups[k] = append(groups[k], i)
	}
	merged := false
	for _, k := range orderKeys {
		if len(groups[k]) > 1 && sig(base.States[groups[k][0]]) != "|" {
			merged = true
		}
	}
	if !merged {
		return skeleton{}, false
	}
	sk := skeleton{Name: "loop-merged", Loopy: true}
	for _, k := range orderKeys {
		idxs := groups[k]
		first := base.States[idxs[0]]
		var specStates []int
		rules := 0
		for _, i := range idxs {
			specStates = append(specStates, base.States[i].SpecStates...)
		}
		for _, si := range specStates {
			rules += len(spec.States[si].Rules)
		}
		ss := first
		ss.SpecStates = specStates
		ss.MaxEntries = rules + 2
		if opts.Opt4ConstantSynthesis {
			ss.Candidates = candidates(spec, specStates, ss.KeyWidth, 0, ss.KeyWidth)
		}
		sk.States = append(sk.States, ss)
	}
	return sk, true
}

// splitSkeleton splits every state whose key exceeds the hardware key
// width into a chain of sub-states, each checking one chunk of the key
// (§6.4.3, Figure 4 Step 2). Extraction happens in the final sub-state so
// the cursor is stationary while the chunks are examined. The reversed
// flag flips the chunk check order — the paper's observation that check
// order changes TCAM entry counts.
func splitSkeleton(spec *pir.Spec, profile hw.Profile, opts Options, base skeleton, reversed bool) (skeleton, error) {
	name := "key-split"
	if reversed {
		name = "key-split-rev"
	}
	sk := skeleton{Name: name, Loopy: base.Loopy}
	for _, ss := range base.States {
		if ss.KeyWidth <= profile.KeyLimit {
			sk.States = append(sk.States, ss)
			continue
		}
		// Chunk the flattened key bit range.
		type chunk struct{ lo, hi int } // bit range within the state's key
		var chunks []chunk
		for lo := 0; lo < ss.KeyWidth; lo += profile.KeyLimit {
			hi := lo + profile.KeyLimit
			if hi > ss.KeyWidth {
				hi = ss.KeyWidth
			}
			chunks = append(chunks, chunk{lo, hi})
		}
		if reversed {
			for i, j := 0, len(chunks)-1; i < j; i, j = i+1, j-1 {
				chunks[i], chunks[j] = chunks[j], chunks[i]
			}
		}
		// The split is a TREE, not a chain: one copy of the first chunk
		// state, several copies of each later chunk so different prefixes
		// can route to different continuations (Figure 4 Step 2 — V1 and V2
		// differ exactly in how this tree is wired). The entry-budget
		// minimization leaves unneeded copies empty.
		nRules := 0
		for _, si := range ss.SpecStates {
			nRules += len(spec.States[si].Rules)
		}
		for ci, ch := range chunks {
			copies := 1
			if ci > 0 {
				copies = nRules
				if copies > 4 {
					copies = 4
				}
				if copies < 2 {
					copies = 2
				}
			}
			for cp := 0; cp < copies; cp++ {
				sub := skelState{
					Name:       fmt.Sprintf("%s#%d.%d", ss.Name, ci, cp),
					SpecStates: ss.SpecStates,
					KeyWidth:   ch.hi - ch.lo,
					MaxEntries: nRules + 2,
					ChainGroup: ss.Name,
					ChainLevel: ci,
				}
				sub.Key = sliceKey(ss.Key, ch.lo, ch.hi)
				// Every chunk state carries the extraction work; each ENTRY
				// decides (symbolically) whether to perform it, so an early
				// chunk can extract-and-exit directly — the Figure 4 V2
				// shortcut — while interior entries pass the cursor along
				// untouched.
				sub.Extracts = ss.Extracts
				sub.StaticWidth = ss.StaticWidth
				sub.HasVarbit = ss.HasVarbit
				sub.OptionalExtract = true
				if opts.Opt4ConstantSynthesis {
					sub.Candidates = candidates(spec, ss.SpecStates, ss.KeyWidth, ch.lo, ch.hi)
				}
				sk.States = append(sk.States, sub)
			}
		}
	}
	return sk, nil
}

// sliceKey extracts bit range [lo, hi) of a composed key as new key parts.
func sliceKey(key []skelKeyPart, lo, hi int) []skelKeyPart {
	var out []skelKeyPart
	pos := 0
	for _, p := range key {
		w := p.BitWidth()
		plo, phi := pos, pos+w
		pos = phi
		s, e := max(plo, lo), min(phi, hi)
		if s >= e {
			continue
		}
		inLo, inHi := s-plo, e-plo // offsets within the part
		np := p
		if p.Lookahead {
			np.KeyPart = pir.LookaheadBits(p.Skip+inLo, inHi-inLo)
			np.RelOff = p.RelOff + inLo
		} else {
			np.KeyPart = pir.FieldSlice(p.Field, p.Lo+inLo, p.Lo+inHi)
			np.RelOff = p.RelOff + inLo
		}
		out = append(out, np)
	}
	return out
}

// candidates is the Opt4 value domain (§6.4) of an implementation state
// realizing specStates whose composed key is kw bits wide: each spec
// rule's value, projected onto key bits [lo, hi), deduplicated and in
// ascending order. A whole-key state takes [0, kw); a key-split chunk
// takes its own range, the §6.4.3 subrange constants C[i:j]. If a merging
// (V, M) covers constants A_1..A_n, then (A_i, M) is an equally valid
// entry (§6.4.1), so entry values never need to leave this set. There are
// no adjacent-state concatenations (§6.4.1, Figure 16(b)): no skeleton
// merges consecutive keyed states into one select, and one that did would
// add the concatenated constants here.
func candidates(spec *pir.Spec, specStates []int, kw, lo, hi int) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	add := func(v uint64) {
		v &= widthMask(hi - lo)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	shift := uint(kw - hi)
	for _, si := range specStates {
		for _, r := range spec.States[si].Rules {
			add((r.Value & r.Mask) >> shift)
		}
	}
	if len(out) == 0 {
		add(0)
	}
	slices.Sort(out)
	return out
}

// unrollSpec rewrites a loopy specification into a bounded loop-free one
// for pipelined targets: loop states are replicated depth times; the last
// copy's back edges become rejects (a deeper stack than the device can
// hold is dropped, as the IPU compiler documents).
func unrollSpec(spec *pir.Spec, depth int) (*pir.Spec, error) {
	n := len(spec.States)
	states := make([]pir.State, 0, n*depth)
	// Copy k of state i lives at index k*n + i.
	for k := 0; k < depth; k++ {
		for i := range spec.States {
			st := spec.States[i]
			cp := pir.State{
				Name:     fmt.Sprintf("%s@%d", st.Name, k),
				Extracts: append([]pir.Extract(nil), st.Extracts...),
				Key:      append([]pir.KeyPart(nil), st.Key...),
				Default:  retarget(st.Default, i, k, n, depth),
			}
			for _, r := range st.Rules {
				cp.Rules = append(cp.Rules, pir.Rule{Value: r.Value, Mask: r.Mask, Next: retarget(r.Next, i, k, n, depth)})
			}
			states = append(states, cp)
		}
	}
	return pir.New(spec.Name+"-unrolled", spec.Fields, states)
}

// retarget maps a transition of state i (copy k) into the unrolled state
// space: back or same-level edges advance to the next copy; the deepest
// copy rejects on any further advance.
func retarget(t pir.Target, from, k, n, depth int) pir.Target {
	if t.Kind != pir.ToState {
		return t
	}
	level := k
	if t.State <= from { // backward or self edge: consume one unroll level
		level = k + 1
	}
	if level >= depth {
		return pir.RejectTarget
	}
	return pir.To(level*n + t.State)
}

// topoOrder returns reachable states in topological order when the graph
// is acyclic, or reachable states in declaration order otherwise (loops
// only occur on loop-capable targets where order is irrelevant).
func topoOrder(spec *pir.Spec, reach []bool) []int {
	if spec.HasLoop() {
		var out []int
		for i := range spec.States {
			if reach[i] {
				out = append(out, i)
			}
		}
		return out
	}
	perm := make([]int, 0, len(spec.States))
	mark := make([]int, len(spec.States))
	var visit func(i int)
	visit = func(i int) {
		if mark[i] != 0 {
			return
		}
		mark[i] = 1
		st := &spec.States[i]
		for _, r := range st.Rules {
			if r.Next.Kind == pir.ToState {
				visit(r.Next.State)
			}
		}
		if st.Default.Kind == pir.ToState {
			visit(st.Default.State)
		}
		perm = append(perm, i)
	}
	for i := range spec.States {
		if reach[i] {
			visit(i)
		}
	}
	// perm is reverse-topological; reverse it.
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}
