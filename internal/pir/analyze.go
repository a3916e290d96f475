package pir

import "sort"

// HasLoop reports whether the state-transition graph contains a cycle
// reachable from the start state. Loopy parsers (e.g. MPLS label stacks)
// require the loop-aware implementation on Tofino and are rejected outright
// by the IPU's forward-only pipeline (§6.7.1).
func (s *Spec) HasLoop() bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(s.States))
	var visit func(i int) bool
	visit = func(i int) bool {
		color[i] = grey
		st := &s.States[i]
		check := func(t Target) bool {
			if t.Kind != ToState {
				return false
			}
			switch color[t.State] {
			case grey:
				return true
			case white:
				return visit(t.State)
			}
			return false
		}
		for _, r := range st.Rules {
			if check(r.Next) {
				return true
			}
		}
		if check(st.Default) {
			return true
		}
		color[i] = black
		return false
	}
	return visit(0)
}

// Reachable returns, for each state, whether any path from the start state
// can visit it. Unreachable states arise from the +R2 rewrite (Figure 21)
// and are pruned for free by the semantic encoding.
func (s *Spec) Reachable() []bool {
	seen := make([]bool, len(s.States))
	var visit func(i int)
	visit = func(i int) {
		if seen[i] {
			return
		}
		seen[i] = true
		st := &s.States[i]
		for _, r := range st.Rules {
			if r.Next.Kind == ToState {
				visit(r.Next.State)
			}
		}
		if st.Default.Kind == ToState {
			visit(st.Default.State)
		}
	}
	visit(0)
	return seen
}

// BitRef identifies one bit of one packet field.
type BitRef struct {
	Field string
	Bit   int // 0 = MSB
}

// RelevantBits returns every field bit used by any state's transition key
// (Opt1, §6.1). The synthesizer restricts implementation key construction
// to exactly these bits. Lookahead windows are reported separately by
// LookaheadUse.
func (s *Spec) RelevantBits() []BitRef {
	seen := map[BitRef]bool{}
	var out []BitRef
	for i := range s.States {
		for _, p := range s.States[i].Key {
			if p.Lookahead {
				continue
			}
			for b := p.Lo; b < p.Hi; b++ {
				r := BitRef{Field: p.Field, Bit: b}
				if !seen[r] {
					seen[r] = true
					out = append(out, r)
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Field != out[b].Field {
			return out[a].Field < out[b].Field
		}
		return out[a].Bit < out[b].Bit
	})
	return out
}

// LookaheadUse describes the widest lookahead window any state requires:
// max(Skip+Width) over all lookahead key parts, or 0 when lookahead is
// unused. Targets compare it against their lookahead window limit.
func (s *Spec) LookaheadUse() int {
	max := 0
	for i := range s.States {
		for _, p := range s.States[i].Key {
			if p.Lookahead && p.Skip+p.Width > max {
				max = p.Skip + p.Width
			}
		}
	}
	return max
}

// IrrelevantFields returns the names of fields none of whose bits
// participate in any transition key and that never provide a varbit length
// (Opt2, §6.2). Their widths may be scaled to 1 bit during synthesis and
// restored afterwards, shrinking the input space exponentially.
func (s *Spec) IrrelevantFields() []string {
	used := map[string]bool{}
	for i := range s.States {
		for _, p := range s.States[i].Key {
			if !p.Lookahead {
				used[p.Field] = true
			}
		}
		for _, e := range s.States[i].Extracts {
			if e.LenField != "" {
				used[e.LenField] = true
			}
		}
	}
	var out []string
	for _, f := range s.Fields {
		if !used[f.Name] {
			out = append(out, f.Name)
		}
	}
	sort.Strings(out)
	return out
}

// SearchSpaceBits estimates the size (in bits) of the naive synthesis
// search space for a given entry budget: the symbolic constants (value and
// mask per entry at the state's key width), next-state selectors, and
// key-allocation variables. Table 3 reports this metric per benchmark.
func (s *Spec) SearchSpaceBits(entries int, stages int) int {
	maxKW := 0
	totalFieldBits := 0
	for i := range s.States {
		if kw := s.States[i].KeyWidth(); kw > maxKW {
			maxKW = kw
		}
	}
	for _, f := range s.Fields {
		totalFieldBits += f.Width
	}
	nStates := len(s.States)
	bitsPerEntry := 2*maxKW + log2ceil(nStates+2) // value + mask + next
	if stages > 1 {
		bitsPerEntry += log2ceil(stages) // stage assignment (Dist, Table 2)
	}
	alloc := 0
	for range s.RelevantBits() {
		alloc += log2ceil(nStates + 1) // which state's key each relevant bit joins
	}
	return entries*bitsPerEntry + alloc
}

func log2ceil(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	if b == 0 {
		return 1
	}
	return b
}
