// Canonicalization: a deterministic normal form for parser specs.
//
// Two specifications that differ only in state names, state declaration
// order, field names, unused field declarations, rule order (where order
// is semantically irrelevant under first-match priority), redundant
// value bits outside a rule's mask, or split-vs-merged contiguous key
// slices of the same field canonicalize to the identical Spec — so a
// content hash of the canonical form is a sound memoization key for any
// analysis that depends only on parser semantics and structure.
//
// The normal form is computed in four passes:
//
//  1. rule values are masked (Value &= Mask), and contiguous key parts
//     reading adjacent bits of the same field (or adjacent lookahead
//     windows) are merged;
//  2. each state's rules are reordered into a canonical order that
//     preserves first-match semantics: for any two rules that can match
//     a common key AND disagree on their target, the original relative
//     order is kept (a topological constraint); all remaining freedom is
//     resolved greedily by (Value, Mask, original index). For any input
//     key, the first matching rule in the new order names the same
//     target as in the old order, because all matching rules pairwise
//     overlap and order among differing-target overlapping pairs is
//     preserved;
//  3. states are renumbered in BFS discovery order from the start state,
//     following each state's canonical rule order and then its default;
//     states unreachable from the start are appended by iterated BFS
//     from structurally-least roots (see bfsOrder). States are renamed
//     s0, s1, …;
//  4. fields are renamed f0, f1, … in order of first use (extracts, then
//     length fields, then key slices, scanned in canonical state order);
//     declared-but-never-referenced fields are dropped. The spec name is
//     normalized to "canon".
//
// Pass 2 compares rule targets by identity (kind + ORIGINAL state
// index), never by canonical numbering — the numbering of pass 3 depends
// on the rule order of pass 2, and breaking that cycle by using raw
// identity is what makes Canonicalize idempotent.
package pir

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"parserhawk/internal/bitstream"
)

// Witness is the isomorphism produced by Canonicalize: enough to map
// names in the canonical spec back to the original (and vice versa), so
// a memoized artifact computed for the canonical form can be un-renamed
// for the requesting spec.
type Witness struct {
	// States maps canonical state index -> original state index.
	States []int
	// Fields maps canonical field name -> original field name.
	Fields map[string]string
}

// FieldToCanon returns the inverse field map: original name -> canonical
// name. Fields dropped by canonicalization (never referenced) are absent.
func (w *Witness) FieldToCanon() map[string]string {
	inv := make(map[string]string, len(w.Fields))
	for c, o := range w.Fields {
		inv[o] = c
	}
	return inv
}

// OrigDict renames a dictionary keyed by canonical field names back to
// the original field names; a key that is not a canonical name stays.
func (w *Witness) OrigDict(d bitstream.Dict) bitstream.Dict {
	out := make(bitstream.Dict, len(d))
	for k, v := range d {
		if o, ok := w.Fields[k]; ok {
			k = o
		}
		out[k] = v
	}
	return out
}

// Canonicalize returns the canonical form of s and the witness relating
// the two. The input spec is not modified. Canonicalize is idempotent:
// canonicalizing a canonical spec returns an equal spec and an identity
// witness.
func Canonicalize(s *Spec) (*Spec, *Witness, error) {
	if len(s.States) == 0 {
		return nil, nil, fmt.Errorf("pir: cannot canonicalize spec %q with no states", s.Name)
	}

	// Deep-copy states so the passes can rewrite freely.
	states := make([]State, len(s.States))
	for i := range s.States {
		st := s.States[i]
		st.Extracts = append([]Extract(nil), st.Extracts...)
		st.Key = append([]KeyPart(nil), st.Key...)
		st.Rules = append([]Rule(nil), st.Rules...)
		states[i] = st
	}

	// Pass 1: mask rule values; merge contiguous key parts.
	for i := range states {
		for r := range states[i].Rules {
			states[i].Rules[r].Value &= states[i].Rules[r].Mask
		}
		states[i].Key = mergeKeyParts(states[i].Key)
	}

	// Pass 2: canonical rule order per state.
	for i := range states {
		states[i].Rules = canonRuleOrder(states[i].Rules)
	}

	// Pass 3: BFS renumbering.
	perm := bfsOrder(states, s.Fields) // perm[new] = old
	inv := make([]int, len(states))
	for n, o := range perm {
		inv[o] = n
	}
	renumbered := make([]State, len(states))
	for n, o := range perm {
		st := states[o]
		st.Name = fmt.Sprintf("s%d", n)
		for r := range st.Rules {
			st.Rules[r].Next = retarget(st.Rules[r].Next, inv)
		}
		st.Default = retarget(st.Default, inv)
		renumbered[n] = st
	}

	// Pass 4: field renaming by first use; drop unreferenced fields.
	rename := map[string]string{} // original -> canonical
	var order []string            // original names in first-use order
	use := func(name string) {
		if name == "" {
			return
		}
		if _, ok := rename[name]; !ok {
			rename[name] = fmt.Sprintf("f%d", len(order))
			order = append(order, name)
		}
	}
	for i := range renumbered {
		st := &renumbered[i]
		for _, e := range st.Extracts {
			use(e.Field)
			use(e.LenField)
		}
		for _, p := range st.Key {
			if !p.Lookahead {
				use(p.Field)
			}
		}
	}
	fields := make([]Field, 0, len(order))
	for _, origName := range order {
		f, ok := s.Field(origName)
		if !ok {
			return nil, nil, fmt.Errorf("pir: canonicalize: state references unknown field %q", origName)
		}
		f.Name = rename[origName]
		fields = append(fields, f)
	}
	for i := range renumbered {
		st := &renumbered[i]
		for e := range st.Extracts {
			st.Extracts[e].Field = rename[st.Extracts[e].Field]
			if st.Extracts[e].LenField != "" {
				st.Extracts[e].LenField = rename[st.Extracts[e].LenField]
			}
		}
		for k := range st.Key {
			if !st.Key[k].Lookahead {
				st.Key[k].Field = rename[st.Key[k].Field]
			}
		}
	}

	canon, err := New("canon", fields, renumbered)
	if err != nil {
		return nil, nil, fmt.Errorf("pir: canonicalize: %w", err)
	}
	wit := &Witness{States: perm, Fields: make(map[string]string, len(order))}
	for _, origName := range order {
		wit.Fields[rename[origName]] = origName
	}
	return canon, wit, nil
}

func retarget(t Target, inv []int) Target {
	if t.Kind == ToState {
		t.State = inv[t.State]
	}
	return t
}

// mergeKeyParts collapses adjacent key parts that read contiguous bits:
// field slices [lo,m) [m,hi) of the same field, and lookahead windows
// whose second window starts exactly where the first ends. The key value
// is a straight concatenation, so merging never changes it.
func mergeKeyParts(key []KeyPart) []KeyPart {
	if len(key) < 2 {
		return key
	}
	out := key[:0]
	for _, p := range key {
		if n := len(out); n > 0 {
			q := &out[n-1]
			switch {
			case !q.Lookahead && !p.Lookahead && q.Field == p.Field && q.Hi == p.Lo:
				q.Hi = p.Hi
				continue
			case q.Lookahead && p.Lookahead && p.Skip == q.Skip+q.Width:
				q.Width += p.Width
				continue
			}
		}
		out = append(out, p)
	}
	return out
}

// canonRuleOrder reorders rules preserving first-match semantics (see
// the package comment for the argument). Rules must already be masked.
func canonRuleOrder(rules []Rule) []Rule {
	n := len(rules)
	if n < 2 {
		return rules
	}
	// before[j] lists the i that must precede j.
	indeg := make([]int, n)
	succ := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rulesOverlap(rules[i], rules[j]) && rules[i].Next != rules[j].Next {
				succ[i] = append(succ[i], j)
				indeg[j]++
			}
		}
	}
	out := make([]Rule, 0, n)
	placed := make([]bool, n)
	for len(out) < n {
		best := -1
		for i := 0; i < n; i++ {
			if placed[i] || indeg[i] != 0 {
				continue
			}
			if best == -1 || ruleLess(rules[i], rules[best]) {
				best = i
			}
		}
		placed[best] = true
		out = append(out, rules[best])
		for _, j := range succ[best] {
			indeg[j]--
		}
	}
	return out
}

// rulesOverlap reports whether some key matches both rules. With values
// already masked this is exactly: the bits constrained by both masks
// agree.
func rulesOverlap(a, b Rule) bool {
	return (a.Value^b.Value)&a.Mask&b.Mask == 0
}

func ruleLess(a, b Rule) bool {
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	if a.Mask != b.Mask {
		return a.Mask < b.Mask
	}
	return false
}

// bfsOrder returns the canonical state order: BFS from state 0 following
// rule order then default. States unreachable from the start are kept
// (lint diagnostics — including error-severity ones — can come from
// them, so they are part of the compile's observable behavior), ordered
// by iterated BFS: the next root is the unvisited state with the
// smallest structural color under Weisfeiler–Leman-style refinement, so
// the order is independent of declaration order. Color ties fall back to
// the original index — a sound (never-wrong) but potentially
// alias-missing resolution for exactly-symmetric unreachable clusters.
// The returned slice maps new index -> old index.
func bfsOrder(states []State, fields []Field) []int {
	n := len(states)
	seen := make([]bool, n)
	pos := make([]int, n) // visit position, -1 while unvisited
	for i := range pos {
		pos[i] = -1
	}
	order := make([]int, 0, n)
	bfsFrom := func(root int) {
		queue := []int{root}
		seen[root] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			pos[cur] = len(order)
			order = append(order, cur)
			visit := func(t Target) {
				if t.Kind == ToState && !seen[t.State] {
					seen[t.State] = true
					queue = append(queue, t.State)
				}
			}
			for _, r := range states[cur].Rules {
				visit(r.Next)
			}
			visit(states[cur].Default)
		}
	}
	bfsFrom(0)
	for len(order) < n {
		colors := refineColors(states, fields, pos)
		root := -1
		for i := 0; i < n; i++ {
			if !seen[i] && (root == -1 || colors[i] < colors[root]) {
				root = i
			}
		}
		bfsFrom(root)
	}
	return order
}

// refineColors computes a declaration-order-independent structural color
// for every unvisited state: the initial color captures the state's
// local shape (extract/key/rule structure with field identity numbered
// by first occurrence within the state, and targets rendered as
// accept/reject/the visit position/unvisited), then iterated refinement
// folds in the colors of each rule target until the partition is as fine
// as WL-1 can make it.
func refineColors(states []State, fields []Field, pos []int) []string {
	n := len(states)
	colors := make([]string, n)
	for i := range states {
		if pos[i] < 0 {
			colors[i] = localColor(&states[i], fields, pos)
		}
	}
	targetColor := func(t Target, colors []string) string {
		switch {
		case t.Kind == Accept:
			return "A"
		case t.Kind == Reject:
			return "R"
		case pos[t.State] >= 0:
			return fmt.Sprintf("v%d", pos[t.State])
		default:
			return colors[t.State]
		}
	}
	for round := 0; round < n; round++ {
		next := make([]string, n)
		for i := range states {
			if pos[i] >= 0 {
				continue
			}
			var sb strings.Builder
			sb.WriteString(colors[i])
			for _, r := range states[i].Rules {
				sb.WriteByte('|')
				sb.WriteString(targetColor(r.Next, colors))
			}
			sb.WriteByte('|')
			sb.WriteString(targetColor(states[i].Default, colors))
			sum := sha256.Sum256([]byte(sb.String()))
			next[i] = fmt.Sprintf("%x", sum[:8])
		}
		colors = next
	}
	return colors
}

// localColor renders an unvisited state's renaming-invariant local shape.
func localColor(st *State, fields []Field, pos []int) string {
	var sb strings.Builder
	decl := map[string]Field{}
	for _, f := range fields {
		decl[f.Name] = f
	}
	local := map[string]int{}
	// fieldID renders a field as its first-occurrence-within-the-state
	// number plus its declared width, so states touching distinct fields
	// of different widths never collide.
	fieldID := func(name string) string {
		if name == "" {
			return "-"
		}
		id, ok := local[name]
		if !ok {
			id = len(local)
			local[name] = id
		}
		f := decl[name]
		v := 0
		if f.Var {
			v = 1
		}
		return fmt.Sprintf("%d.%d.%d", id, f.Width, v)
	}
	for _, e := range st.Extracts {
		fmt.Fprintf(&sb, "x%s,%s,%d,%d;", fieldID(e.Field), fieldID(e.LenField), e.LenScale, e.LenBias)
	}
	for _, p := range st.Key {
		if p.Lookahead {
			fmt.Fprintf(&sb, "l%d,%d;", p.Skip, p.Width)
		} else {
			fmt.Fprintf(&sb, "k%s,%d,%d;", fieldID(p.Field), p.Lo, p.Hi)
		}
	}
	target := func(t Target) string {
		switch {
		case t.Kind == Accept:
			return "A"
		case t.Kind == Reject:
			return "R"
		case pos[t.State] >= 0:
			return fmt.Sprintf("v%d", pos[t.State])
		default:
			return "u"
		}
	}
	for _, r := range st.Rules {
		fmt.Fprintf(&sb, "r%#x,%#x,%s;", r.Value, r.Mask, target(r.Next))
	}
	fmt.Fprintf(&sb, "d%s", target(st.Default))
	return sb.String()
}
