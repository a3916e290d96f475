package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
	"parserhawk/internal/sim"
)

// randomSpec generates a small random loop-free parser specification:
// 2-4 states, 1-3 fields each, random select keys over own or earlier
// fields, random exact/masked rules. The shapes cover extraction-only
// states, defaults to accept/reject/state, and cross-state keys.
func randomSpec(rng *rand.Rand, id int) *pir.Spec {
	nStates := 2 + rng.Intn(3)
	var fields []pir.Field
	type stateFields struct{ names []string }
	perState := make([]stateFields, nStates)
	for s := 0; s < nStates; s++ {
		nf := 1 + rng.Intn(2)
		for f := 0; f < nf; f++ {
			name := fmt.Sprintf("h%d.f%d", s, f)
			w := 1 + rng.Intn(4)
			fields = append(fields, pir.Field{Name: name, Width: w})
			perState[s].names = append(perState[s].names, name)
		}
	}
	width := func(name string) int {
		for _, f := range fields {
			if f.Name == name {
				return f.Width
			}
		}
		return 0
	}

	randTarget := func(from int) pir.Target {
		// Forward-only so the spec stays loop-free; bias toward accept.
		switch r := rng.Intn(4); {
		case r == 0 && from+1 < nStates:
			return pir.To(from + 1 + rng.Intn(nStates-from-1))
		case r == 1:
			return pir.RejectTarget
		default:
			return pir.AcceptTarget
		}
	}

	states := make([]pir.State, nStates)
	for s := 0; s < nStates; s++ {
		st := pir.State{Name: fmt.Sprintf("s%d", s)}
		for _, fn := range perState[s].names {
			st.Extracts = append(st.Extracts, pir.Extract{Field: fn})
		}
		if rng.Intn(4) > 0 { // 3/4 of states select
			// Key over one own field, possibly plus one earlier field. The
			// earlier-field option only exists for the immediate previous
			// state so back-offsets stay path-independent.
			own := perState[s].names[rng.Intn(len(perState[s].names))]
			st.Key = append(st.Key, pir.WholeField(own, width(own)))
			if s == 1 && rng.Intn(2) == 0 {
				prev := perState[0].names[rng.Intn(len(perState[0].names))]
				st.Key = append(st.Key, pir.WholeField(prev, width(prev)))
			}
			kw := st.KeyWidth()
			nRules := 1 + rng.Intn(3)
			for r := 0; r < nRules; r++ {
				mask := pir.ExactRule(0, kw, pir.AcceptTarget).Mask
				if rng.Intn(3) == 0 && kw > 1 {
					mask &^= 1 << uint(rng.Intn(kw)) // wildcard one bit
				}
				st.Rules = append(st.Rules, pir.Rule{
					Value: rng.Uint64() & mask,
					Mask:  mask,
					Next:  randTarget(s),
				})
			}
		}
		st.Default = randTarget(s)
		states[s] = st
	}
	return pir.MustNew(fmt.Sprintf("rand%d", id), fields, states)
}

// TestRandomSpecsCompileCorrectly is the whole-compiler property test:
// every randomly generated specification either compiles to a verified-
// equivalent program or fails with a resource error — never silently
// produces a wrong parser.
func TestRandomSpecsCompileCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized compile sweep")
	}
	rng := rand.New(rand.NewSource(20260704))
	profiles := []hw.Profile{hw.Tofino(), hw.IPU()}
	const trials = 24
	for i := 0; i < trials; i++ {
		spec := randomSpec(rng, i)
		for _, p := range profiles {
			opts := DefaultOptions()
			opts.Timeout = 20 * time.Second
			res, err := Compile(spec, p, opts)
			if err != nil {
				// Resource exhaustion is acceptable; wrongness is not.
				t.Logf("spec %d on %s: %v\n%s", i, p.Name, err, spec)
				continue
			}
			v, verr := newVerifier(spec, DefaultOptions(), int64(i)+100)
			if verr != nil {
				t.Fatalf("spec %d: %v", i, verr)
			}
			if cex, found, _ := v.counterexample(res.Program, nil); found {
				t.Fatalf("spec %d on %s: WRONG program on input %s\nspec:\n%s\nprogram:\n%s",
					i, p.Name, cex, spec, res.Program)
			}
			if rep := sim.Check(spec, res.Program, 2000, 16, 0, int64(i)+100); !rep.OK() {
				t.Fatalf("spec %d on %s: WRONG program (sim.Check): %s\nspec:\n%s\nprogram:\n%s",
					i, p.Name, rep, spec, res.Program)
			}
			if err := p.Validate(res.Program); err != nil {
				t.Fatalf("spec %d on %s: invalid program: %v", i, p.Name, err)
			}
		}
	}
}

// TestRandomSpecsNarrowDevice stresses key splitting: the same random
// specs compiled for a 2-bit-key device.
func TestRandomSpecsNarrowDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized compile sweep")
	}
	rng := rand.New(rand.NewSource(42))
	profile := hw.Parameterized(2, 12, 64)
	for i := 0; i < 10; i++ {
		spec := randomSpec(rng, 1000+i)
		opts := DefaultOptions()
		opts.Timeout = 20 * time.Second
		res, err := Compile(spec, profile, opts)
		if err != nil {
			t.Logf("spec %d: %v", i, err)
			continue
		}
		if res.Resources.MaxKeyWidth > 2 {
			t.Fatalf("spec %d: key width %d > 2\n%s", i, res.Resources.MaxKeyWidth, res.Program)
		}
		v, verr := newVerifier(spec, DefaultOptions(), int64(i))
		if verr != nil {
			t.Fatal(verr)
		}
		if cex, found, _ := v.counterexample(res.Program, nil); found {
			t.Fatalf("spec %d: wrong after split on %s\nspec:\n%s\nprogram:\n%s",
				i, cex, spec, res.Program)
		}
		if rep := sim.Check(spec, res.Program, 2000, 16, 0, int64(i)+100); !rep.OK() {
			t.Fatalf("spec %d: wrong after split (sim.Check): %s\nspec:\n%s\nprogram:\n%s",
				i, rep, spec, res.Program)
		}
	}
}
