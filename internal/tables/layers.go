package tables

import (
	"fmt"
	"math/rand"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/bitstream"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// CompileContract compiles spec for profile with the given loop bound and
// returns the program together with the spec it must match: the spec
// itself, or on a loop-free device a loopy spec's unrolling to the bound
// (core.Unroll), the contract internal/sim and internal/cert check.
func CompileContract(spec *pir.Spec, profile hw.Profile, maxIter int) (*pir.Spec, *tcam.Program, error) {
	opts := core.DefaultOptions()
	opts.Timeout = 60 * time.Second
	opts.MaxIterations = maxIter
	res, err := core.Compile(spec, profile, opts)
	if err != nil {
		return nil, nil, err
	}
	if !spec.HasLoop() || profile.AllowLoops() {
		return spec, res.Program, nil
	}
	if maxIter <= 0 {
		maxIter = core.DefaultUnroll
	}
	want, err := core.Unroll(spec, maxIter)
	return want, res.Program, err
}

// LayerCell is one compiled cell prepared for the per-layer interpreter
// benchmarks (BenchmarkSpecRun, BenchmarkProgramRun,
// BenchmarkVerifierCheck): the spec its program must match, the program,
// and 256 seeded packets long enough for every path.
type LayerCell struct {
	Name    string // "<benchmark>@<profile>"
	Spec    *pir.Spec
	Program *tcam.Program
	Packets []bitstream.Bits
}

// LayerCells compiles the cells the per-layer benchmarks share: Parse MPLS
// on tofino-scaled (a loop unrolled for a single-table device) and Wire
// QinQ on the full Tofino (a wire-width stacked-VLAN parser).
func LayerCells() ([]LayerCell, error) {
	cells := []struct {
		bench   string
		profile hw.Profile
	}{
		{"Parse MPLS", TofinoScaled()},
		{"Wire QinQ", hw.Tofino()},
	}
	var out []LayerCell
	for _, c := range cells {
		var bench *benchdata.Benchmark
		for _, b := range append(benchdata.All(), benchdata.WireScale()...) {
			if b.Name() == c.bench {
				bench = &b
				break
			}
		}
		if bench == nil {
			return nil, fmt.Errorf("layer cell %q: no such benchmark", c.bench)
		}
		want, prog, err := CompileContract(bench.Spec, c.profile, bench.MaxIterations)
		if err != nil {
			return nil, fmt.Errorf("layer cell %s@%s: %w", c.bench, c.profile.Name, err)
		}
		n := max(want.MaxConsumedBits(0)+want.LookaheadUse(), 1)
		rng := rand.New(rand.NewSource(1))
		pkts := make([]bitstream.Bits, 256)
		for i := range pkts {
			pkts[i] = bitstream.Random(rng, n)
		}
		out = append(out, LayerCell{Name: c.bench + "@" + c.profile.Name, Spec: want, Program: prog, Packets: pkts})
	}
	return out, nil
}
