package core

import (
	"math/rand"
	"testing"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// Hooks into the lowered verifier for package core_test, whose corpus
// tests and benchmarks need the scaled device profiles of internal/tables,
// a package that imports core.

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
