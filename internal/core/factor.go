package core

import (
	"fmt"

	"parserhawk/internal/pir"
)

// FactorCommonSuffix implements the first future-work item of §8
// (Figure 23): when several states extract differently named fields that
// end in a structurally identical "common part" — same trailing widths,
// same select logic over those trailing bits, same targets — the parser
// can be rewritten to extract the individual prefixes in the original
// states and hand off to one shared state that extracts the common part
// and owns the single copy of the transition logic. The rewrite removes
// the duplicated TCAM entries that the per-state copies would cost.
//
// The transformation renames the factored trailing fields to a single
// shared field, so it is a cross-packet-definition optimization: callers
// opt in by calling this before compiling, and the output dictionary uses
// the shared field's name for the common part. ExplainFactoring reports
// what was merged.
func FactorCommonSuffix(spec *pir.Spec) (*pir.Spec, []Factoring, error) {
	type sig struct {
		keyShape string // trailing key structure relative to state end
		rules    string
		width    int
	}

	// A state is factorable when its entire key consists of slices of its
	// LAST extracted field (the "common" trailing field of Figure 23).
	classify := func(si int) (sig, bool) {
		st := &spec.States[si]
		if len(st.Extracts) == 0 || len(st.Key) == 0 || len(st.Rules) == 0 {
			return sig{}, false
		}
		last := st.Extracts[len(st.Extracts)-1]
		if last.LenField != "" {
			return sig{}, false // varbit suffixes are not shareable
		}
		f, _ := spec.Field(last.Field)
		keyShape := ""
		for _, p := range st.Key {
			if p.Lookahead || p.Field != last.Field {
				return sig{}, false
			}
			keyShape += fmt.Sprintf("[%d:%d)", p.Lo, p.Hi)
		}
		rules := ""
		for _, r := range st.Rules {
			rules += fmt.Sprintf("%x/%x->%v;", r.Value&r.Mask, r.Mask, r.Next)
		}
		rules += fmt.Sprintf("d->%v", st.Default)
		return sig{keyShape: keyShape, rules: rules, width: f.Width}, true
	}

	groups := map[sig][]int{}
	var order []sig
	for si := range spec.States {
		s, ok := classify(si)
		if !ok {
			continue
		}
		if _, seen := groups[s]; !seen {
			order = append(order, s)
		}
		groups[s] = append(groups[s], si)
	}

	var facts []Factoring
	factorable := map[int]sig{}
	for _, s := range order {
		if len(groups[s]) < 2 {
			continue
		}
		f := Factoring{CommonWidth: s.width}
		for _, si := range groups[s] {
			f.States = append(f.States, spec.States[si].Name)
			last := spec.States[si].Extracts[len(spec.States[si].Extracts)-1]
			f.FactoredFields = append(f.FactoredFields, last.Field)
			factorable[si] = s
		}
		facts = append(facts, f)
	}
	if len(facts) == 0 {
		return spec, nil, nil
	}

	// Build the rewritten spec: per group, one shared state; member states
	// lose their trailing extraction and transition logic and default into
	// the shared state.
	newFields := append([]pir.Field(nil), spec.Fields...)
	states := make([]pir.State, len(spec.States))
	for i := range spec.States {
		st := spec.States[i]
		states[i] = pir.State{
			Name:     st.Name,
			Extracts: append([]pir.Extract(nil), st.Extracts...),
			Key:      append([]pir.KeyPart(nil), st.Key...),
			Rules:    append([]pir.Rule(nil), st.Rules...),
			Default:  st.Default,
		}
	}
	sharedIdx := map[string]int{}
	for gi, s := range order {
		members := groups[s]
		if len(members) < 2 {
			continue
		}
		commonField := fmt.Sprintf("common%d.part", gi)
		newFields = append(newFields, pir.Field{Name: commonField, Width: s.width})
		// The shared state replicates the first member's logic over the
		// shared field.
		first := &spec.States[members[0]]
		shared := pir.State{
			Name:     fmt.Sprintf("common%d", gi),
			Extracts: []pir.Extract{{Field: commonField}},
			Default:  first.Default,
		}
		for _, p := range first.Key {
			shared.Key = append(shared.Key, pir.FieldSlice(commonField, p.Lo, p.Hi))
		}
		shared.Rules = append(shared.Rules, first.Rules...)
		states = append(states, shared)
		sharedIdx[shared.Name] = len(states) - 1
		target := pir.To(len(states) - 1)
		for _, si := range members {
			states[si].Extracts = states[si].Extracts[:len(states[si].Extracts)-1]
			states[si].Key = nil
			states[si].Rules = nil
			states[si].Default = target
		}
	}
	out, err := pir.New(spec.Name+"-factored", newFields, states)
	if err != nil {
		return nil, nil, fmt.Errorf("core: factoring produced invalid spec: %w", err)
	}
	return out, facts, nil
}

// Factoring describes one group of states whose common trailing structure
// was shared (Figure 23).
type Factoring struct {
	States         []string // the states that now share a common state
	FactoredFields []string // the per-state fields replaced by the shared one
	CommonWidth    int
}
