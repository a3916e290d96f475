package core

import (
	"math/rand"
	"testing"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// Hooks into the lowered verifier and the encoder for package core_test,
// whose corpus tests and benchmarks need the scaled device profiles of
// internal/tables, a package that imports core.

// CrossCheckLowered cross-checks prog against spec's verifier on at least
// n inputs (see crossCheck), then each seeded corruption of prog, and
// returns how many corruptions the reference caught.
func CrossCheckLowered(t *testing.T, spec *pir.Spec, prog *tcam.Program, n int, seed int64) (caught int) {
	t.Helper()
	v, err := newVerifier(spec, DefaultOptions(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return crossCheckCorrupted(t, v, prog, n, rand.New(rand.NewSource(seed)))
}

// LoweredCheck returns the verifier's per-input check of prog against spec.
func LoweredCheck(spec *pir.Spec, prog *tcam.Program) (func(bitstream.Bits) bool, error) {
	v, err := newVerifier(spec, DefaultOptions(), 1)
	if err != nil {
		return nil, err
	}
	lp := lowerProgram(prog, v.low)
	return func(in bitstream.Bits) bool { return v.differs(lp, in) }, nil
}

// EncodeExamples prepares what a default compile of spec on profile
// encodes first: the first skeleton of the linted spec, Opt2-scaled
// unless scaling changes the skeletons' structure (as in CompileContext),
// and n seeded random inputs with the spec's outputs on them. Each call
// of the returned function builds a fresh synthesizer for that skeleton,
// encodes all n examples, and returns the solver's variable count.
func EncodeExamples(spec *pir.Spec, profile hw.Profile, maxIter, n int) (func() (int, error), error) {
	opts := DefaultOptions()
	opts.MaxIterations = maxIter
	spec, _, err := lintFixpoint(spec, profile, opts)
	if err != nil {
		return nil, err
	}
	if spec.HasLoop() && !profile.AllowLoops() {
		opts.MaxIterations = unrollDepth(opts.MaxIterations)
	}
	sks, eff, err := buildSkeletons(spec, profile, opts, opts.MaxIterations)
	if err != nil {
		return nil, err
	}
	scaled, effScaled, err := buildSkeletons(scaleSpec(spec), profile, opts, opts.MaxIterations)
	if err == nil && sameStructure(sks, scaled) {
		sks, eff = scaled, effScaled
	}
	ver, err := newVerifier(eff, opts, opts.Seed)
	if err != nil {
		return nil, err
	}
	examples := &exampleSet{spec: eff, iterBudget: ver.maxIterBudget()}
	for i := 0; i < n; i++ {
		examples.add(ver.randomInput())
	}
	return func() (int, error) {
		sy := newSynthesizer(eff, &sks[0], profile, opts)
		for _, ex := range examples.ex {
			if err := sy.addTestCase(ex.in, ex.out); err != nil {
				return 0, err
			}
		}
		return sy.s.NumVars(), nil
	}, nil
}
