package core

import (
	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// The verifier's equivalence check runs the specification and each
// candidate program on thousands of inputs per CEGIS iteration. The
// reference interpreters (pir.Spec.Run, tcam.Program.Run) build a fresh
// string-keyed Dict of copied field bits per input; here both machines are
// lowered once into a slot-indexed form and run over reusable registers,
// so the per-input check allocates nothing. The reference interpreters
// stay the independent oracle the tests, the fuzzer, certificates and the
// output checks use.

// Lowered transition targets; non-negative values are state indices.
const (
	lowAccept = -1
	lowReject = -2
	// lowMissing is a TCAM target naming no state: the program rejects
	// when it gets there, as tcam.Program.Run does on a failed Lookup.
	lowMissing = -3
)

// lowExtract is one extraction into a register slot.
type lowExtract struct {
	slot  int
	width int // declared width: the extracted width, or a varbit's maximum
	// lenSlot is the varbit length field's slot, -1 for a fixed width.
	lenSlot     int
	scale, bias int
	// capture is the declared width of this field when some varbit on the
	// same machine takes its length from it, else -1: the value is read
	// once at extraction, as the reference reads it from its copied Dict
	// entry even if the input is later rewritten (the directed walks do).
	capture int
}

// lowKey is one key part: bits [lo, lo+width) of slot's field, or, when
// slot < 0, a lookahead window width bits wide, lo bits past the cursor.
type lowKey struct{ slot, lo, width int }

// lowRule is a ternary match with its value pre-masked.
type lowRule struct {
	value, mask uint64
	next        int
}

type lowSpecState struct {
	extracts []lowExtract
	key      []lowKey
	rules    []lowRule // nil for a keyless state: its default always fires
	def      int
}

// lowSpec is a pir.Spec lowered for the verifier. slots interns every
// field name the spec mentions; programs lowered against it share those
// slots and append their own for fields only they mention.
type lowSpec struct {
	slots  map[string]int
	names  []string // slot -> field name
	states []lowSpecState
}

// lenFields returns the set of fields some extraction takes its varbit
// length from.
func lenFields(lists [][]pir.Extract) map[string]bool {
	out := map[string]bool{}
	for _, xs := range lists {
		for _, x := range xs {
			if x.LenField != "" {
				out[x.LenField] = true
			}
		}
	}
	return out
}

// lowering interns field names and lowers extracts and keys of one
// machine whose field widths come from decl.
type lowering struct {
	decl  *pir.Spec
	lens  map[string]bool
	slots map[string]int
	names []string
	base  *lowSpec // the spec's slots, looked up before slots; nil when lowering the spec itself
}

func (l *lowering) slot(name string) int {
	if l.base != nil {
		if i, ok := l.base.slots[name]; ok {
			return i
		}
	}
	if i, ok := l.slots[name]; ok {
		return i
	}
	i := len(l.names)
	if l.base != nil {
		i += len(l.base.names)
	}
	l.slots[name] = i
	l.names = append(l.names, name)
	return i
}

func (l *lowering) extracts(xs []pir.Extract) []lowExtract {
	out := make([]lowExtract, len(xs))
	for i, x := range xs {
		f, _ := l.decl.Field(x.Field)
		lx := lowExtract{slot: l.slot(x.Field), width: f.Width, lenSlot: -1, capture: -1}
		if x.LenField != "" {
			lx.lenSlot, lx.scale, lx.bias = l.slot(x.LenField), x.LenScale, x.LenBias
		}
		if l.lens[x.Field] {
			lx.capture = f.Width
		}
		out[i] = lx
	}
	return out
}

func (l *lowering) key(parts []pir.KeyPart) []lowKey {
	out := make([]lowKey, len(parts))
	for i, p := range parts {
		if p.Lookahead {
			out[i] = lowKey{slot: -1, lo: p.Skip, width: p.Width}
		} else {
			out[i] = lowKey{slot: l.slot(p.Field), lo: p.Lo, width: p.BitWidth()}
		}
	}
	return out
}

func lowSpecTarget(t pir.Target) int {
	switch t.Kind {
	case pir.Accept:
		return lowAccept
	case pir.Reject:
		return lowReject
	}
	return t.State
}

func lowerSpec(spec *pir.Spec) *lowSpec {
	lists := make([][]pir.Extract, len(spec.States))
	for i := range spec.States {
		lists[i] = spec.States[i].Extracts
	}
	l := &lowering{decl: spec, lens: lenFields(lists), slots: map[string]int{}}
	for _, f := range spec.Fields {
		l.slot(f.Name)
	}
	states := make([]lowSpecState, len(spec.States))
	for i := range spec.States {
		st := &spec.States[i]
		ls := lowSpecState{extracts: l.extracts(st.Extracts), key: l.key(st.Key), def: lowSpecTarget(st.Default)}
		if len(st.Key) > 0 {
			ls.rules = make([]lowRule, len(st.Rules))
			for j, r := range st.Rules {
				ls.rules[j] = lowRule{value: r.Value & r.Mask, mask: r.Mask, next: lowSpecTarget(r.Next)}
			}
		}
		states[i] = ls
	}
	return &lowSpec{slots: l.slots, names: l.names, states: states}
}

type lowEntry struct {
	lowRule
	extracts []lowExtract
}

type lowProgState struct {
	key     []lowKey
	entries []lowEntry
}

// lowProgram is a tcam.Program lowered against a lowSpec.
type lowProgram struct {
	states []lowProgState
	start  int
	slots  int // register slots: the spec's plus the program-only fields
}

func lowerProgram(prog *tcam.Program, spec *lowSpec) *lowProgram {
	var lists [][]pir.Extract
	index := map[[2]int]int{}
	for i := range prog.States {
		st := &prog.States[i]
		if _, dup := index[[2]int{st.Table, st.ID}]; !dup {
			index[[2]int{st.Table, st.ID}] = i // Lookup returns the first match
		}
		for _, e := range st.Entries {
			lists = append(lists, e.Extracts)
		}
	}
	target := func(t tcam.Target) int {
		switch t.Kind {
		case tcam.Accept:
			return lowAccept
		case tcam.Reject:
			return lowReject
		}
		if i, ok := index[[2]int{t.Table, t.State}]; ok {
			return i
		}
		return lowMissing
	}
	l := &lowering{decl: prog.Spec, lens: lenFields(lists), slots: map[string]int{}, base: spec}
	lp := &lowProgram{states: make([]lowProgState, len(prog.States)), start: target(tcam.To(0, 0))}
	for i := range prog.States {
		st := &prog.States[i]
		ps := lowProgState{key: l.key(st.Key), entries: make([]lowEntry, len(st.Entries))}
		for j, e := range st.Entries {
			ps.entries[j] = lowEntry{
				lowRule:  lowRule{value: e.Value & e.Mask, mask: e.Mask, next: target(e.Next)},
				extracts: l.extracts(e.Extracts),
			}
		}
		lp.states[i] = ps
	}
	lp.slots = len(spec.names) + len(l.names)
	return lp
}

// regFile is a machine's field dictionary for one run. An extracted field
// is stored as (pos, n) — its offset and length in the input — never as a
// copy of its bits. A slot holds a field only when its generation equals
// cur, so starting a run is a counter increment, not a clear.
type regFile struct {
	gen  []uint32
	pos  []int
	n    []int
	val  []uint64 // captured varbit length values (lowExtract.capture)
	live []int    // slots extracted this generation, in first-extraction order
	cur  uint32
	// reach is one past the furthest input bit the run extracted or looked
	// ahead at. Every key, varbit length and sameFields read lies below it,
	// so the run goes the same way on any input that agrees on those bits.
	reach int
}

// reset empties the dictionary and sizes it for slots fields.
func (r *regFile) reset(slots int) {
	if grow := slots - len(r.gen); grow > 0 {
		r.gen = append(r.gen, make([]uint32, grow)...)
		r.pos = append(r.pos, make([]int, grow)...)
		r.n = append(r.n, make([]int, grow)...)
		r.val = append(r.val, make([]uint64, grow)...)
	}
	r.cur++
	if r.cur == 0 { // wrapped: stale generations could alias
		clear(r.gen)
		r.cur = 1
	}
	r.live = r.live[:0]
	r.reach = 0
}

func (r *regFile) has(slot int) bool { return r.gen[slot] == r.cur }

// field reads width bits of slot's field from bit lo, MSB first, as
// Bits.Uint reads the reference's copied Dict entry: bits past the
// extracted length, and every bit of a field not extracted, read as zero.
func (r *regFile) field(in bitstream.Bits, slot, lo, width int) uint64 {
	if !r.has(slot) {
		return 0
	}
	pos, n := r.pos[slot], r.n[slot]
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if j := lo + i; j >= 0 && j < n {
			if p := pos + j; p < len(in) && in[p] != 0 {
				v |= 1
			}
		}
	}
	return v
}

// extract performs one extraction at the cursor and returns the advanced
// cursor. The width rule is pir's extractWidth.
func (r *regFile) extract(in bitstream.Bits, x *lowExtract, pos int) int {
	w := x.width
	if x.lenSlot >= 0 {
		var lv uint64
		if r.has(x.lenSlot) {
			lv = r.val[x.lenSlot]
		}
		w = int(lv)*x.scale + x.bias
		if w < 0 {
			w = 0
		}
		if w > x.width {
			w = x.width
		}
	}
	if !r.has(x.slot) {
		r.gen[x.slot] = r.cur
		r.live = append(r.live, x.slot)
	}
	r.pos[x.slot], r.n[x.slot] = pos, w
	r.reach = max(r.reach, pos+w)
	if x.capture >= 0 {
		r.val[x.slot] = r.field(in, x.slot, 0, x.capture)
	}
	return pos + w
}

func (r *regFile) extractAll(in bitstream.Bits, xs []lowExtract, pos int) int {
	for i := range xs {
		pos = r.extract(in, &xs[i], pos)
	}
	return pos
}

func (r *regFile) key(in bitstream.Bits, parts []lowKey, pos int) uint64 {
	var key uint64
	for _, p := range parts {
		var v uint64
		if p.slot < 0 {
			v = in.Uint(pos+p.lo, p.width)
			r.reach = max(r.reach, pos+p.lo+p.width)
		} else {
			v = r.field(in, p.slot, p.lo, p.width)
		}
		key = key<<uint(p.width) | v
	}
	return key
}

// sameFields reports whether two machines' dictionaries after runs on the
// same input are equal: the same slots, each with the same length and
// either the same offset or the same bits. b must have at least a's slots.
func sameFields(in bitstream.Bits, a, b *regFile) bool {
	if len(a.live) != len(b.live) {
		return false
	}
	for _, s := range a.live {
		if !b.has(s) || a.n[s] != b.n[s] {
			return false
		}
		if a.pos[s] == b.pos[s] {
			continue
		}
		for j := 0; j < a.n[s]; j++ {
			if in.Bit(a.pos[s]+j) != in.Bit(b.pos[s]+j) {
				return false
			}
		}
	}
	return true
}

// run interprets the spec as pir.Spec.Run does, leaving the dictionary in
// r and, when path is non-nil, appending the visited states to it. It
// reports whether the spec accepts; otherwise it rejects.
func (ls *lowSpec) run(in bitstream.Bits, maxIter int, r *regFile, path *[]int) bool {
	if maxIter <= 0 {
		maxIter = pir.DefaultMaxIterations
	}
	r.reset(len(ls.names))
	cur, pos := 0, 0
	for iter := 0; iter < maxIter; iter++ {
		st := &ls.states[cur]
		if path != nil {
			*path = append(*path, cur)
		}
		pos = r.extractAll(in, st.extracts, pos)
		next := st.def
		if st.rules != nil {
			key := r.key(in, st.key, pos)
			for i := range st.rules {
				if key&st.rules[i].mask == st.rules[i].value {
					next = st.rules[i].next
					break
				}
			}
		}
		switch next {
		case lowAccept:
			return true
		case lowReject:
			return false
		}
		cur = next
	}
	return false // iteration budget exhausted
}

// run interprets the program as tcam.Program.Run does, leaving the
// dictionary in r. It reports whether the program accepts.
func (lp *lowProgram) run(in bitstream.Bits, maxIter int, r *regFile) bool {
	if maxIter <= 0 {
		maxIter = pir.DefaultMaxIterations
	}
	r.reset(lp.slots)
	cur, pos := lp.start, 0
	for iter := 0; iter < maxIter && cur >= 0; iter++ {
		st := &lp.states[cur]
		key := r.key(in, st.key, pos)
		next := lowMissing // no matching entry rejects
		for i := range st.entries {
			e := &st.entries[i]
			if key&e.mask == e.value {
				pos = r.extractAll(in, e.extracts, pos)
				next = e.next
				break
			}
		}
		if next == lowAccept {
			return true
		}
		cur = next
	}
	return false
}
