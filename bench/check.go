package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/lint"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
	"parserhawk/internal/sim"
	"parserhawk/internal/tcam"
)

// Span op names: the layer function each span wraps.
const (
	opCompile     = "core.CompileContext"
	opMemoCompile = "memo.Cache.CompileContext"
	opParse       = "p4.ParseSpec"
	opLint        = "lint.Run"
	opEffective   = "core.EffectiveSpec"
	opCanon       = "pir.Canonicalize"
	opSimCheck    = "sim.Check"
	opSpecRun     = "pir.Spec.Run"
	opProgRun     = "tcam.Program.Run"
)

const (
	checkSamples = 2000 // sampled inputs per sim.Check, as the compiler's own verifier uses
	replayPkts   = 256  // packets per program in the traced run's interpreter probes
)

// contract is the spec a program compiled for profile must match: the
// spec itself, or on loop-free devices its unrolling to the compile's loop
// bound (core.Unroll), the contract internal/sim, internal/cert and the
// fuzzer use.
func contract(c *cell) (*pir.Spec, error) {
	if !c.Spec.HasLoop() || c.Profile.AllowLoops() {
		return c.Spec, nil
	}
	k := c.MaxIter
	if k <= 0 {
		k = 4 // core.Compile's default unroll bound
	}
	return core.Unroll(c.Spec, k)
}

// checkProgram replays seeded inputs through the reference interpreter
// (internal/pir, which shares no code with the synthesizer) and through
// the returned program, and reports the first disagreement.
func (e *env) checkProgram(parent int, c *cell, prog *tcam.Program) error {
	want, err := contract(c)
	if err != nil {
		return fmt.Errorf("%s: %w", c.ID, err)
	}
	id := e.tr.start(parent, opSimCheck, c.ID)
	rep := sim.Check(want, prog, checkSamples, 16, 0, e.seed)
	e.tr.finish(id, nil, nil)
	if !rep.OK() {
		return fmt.Errorf("%s: wrong program: %s", c.ID, rep)
	}
	return nil
}

// probe times, in the traced run only, the calls into the layers a
// compile request passes through before and after synthesis, on one
// compiled cell: parsing its text, linting, the effective-spec pipeline,
// canonicalization, and interpreting packets through the spec and the
// program. Probe spans are siblings of the compile spans, so they never
// count in a compile's latency.
func (e *env) probe(parent int, c *cell, opts core.Options, prog *tcam.Program) error {
	timed := func(op string, fn func() error) error {
		id := e.tr.start(parent, op, c.ID)
		err := fn()
		e.tr.finish(id, nil, nil)
		if err != nil {
			return fmt.Errorf("%s %s: %w", op, c.ID, err)
		}
		return nil
	}
	profile := c.Profile
	opts.MaxIterations = c.MaxIter
	steps := []struct {
		op string
		fn func() error
	}{
		{opParse, func() error { _, err := p4.ParseSpec(c.Source); return err }},
		{opLint, func() error { lint.Run(c.Spec, &profile); return nil }},
		{opEffective, func() error { _, err := core.EffectiveSpec(c.Spec, profile, opts); return err }},
		{opCanon, func() error { _, _, err := pir.Canonicalize(c.Spec); return err }},
	}
	for _, s := range steps {
		if err := timed(s.op, s.fn); err != nil {
			return err
		}
	}
	want, err := contract(c)
	if err != nil {
		return err
	}
	pkts := packets(want, e.seed)
	e.replay(parent, opSpecRun, c.ID, pkts, func(in bitstream.Bits) { want.Run(in, 0) })
	e.replay(parent, opProgRun, c.ID, pkts, func(in bitstream.Bits) { prog.Run(in, 0) })
	return nil
}

// packets draws the replay inputs for spec: long enough for every path.
func packets(spec *pir.Spec, seed int64) []bitstream.Bits {
	n := spec.MaxConsumedBits(0) + spec.LookaheadUse()
	rng := rand.New(rand.NewSource(seed))
	out := make([]bitstream.Bits, replayPkts)
	for i := range out {
		out[i] = bitstream.Random(rng, max(n, 1))
	}
	return out
}

// replay times run over every packet and counts its heap allocations.
func (e *env) replay(parent int, op, name string, pkts []bitstream.Bits, run func(bitstream.Bits)) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for _, p := range pkts {
		run(p)
	}
	t1 := time.Now()
	runtime.ReadMemStats(&after)
	e.tr.record(parent, op, name, t0, t1, map[string]float64{
		"packets": float64(len(pkts)),
		"allocs":  float64(after.Mallocs - before.Mallocs),
	})
}

// cost is a result's resource use in its device objective's units
// (entries, stages or pipeline depth): the paper's quality metric.
func cost(p hw.Profile, r tcam.Resources) float64 {
	return float64(p.Objective.For(p.Arch).Cost(r))
}
