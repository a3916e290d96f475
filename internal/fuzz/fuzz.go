// Package fuzz is ParserHawk's differential fuzzer. It mutates seed
// specifications (kept pir.Validate-clean), compiles each mutant through
// core.Compile, and confronts three independent oracles on random packets:
//
//  1. Spec(I) — the §4 reference interpretation of the specification
//     (unrolled to the compile's loop bound on devices that cannot loop,
//     matching the equivalence contract of internal/sim);
//  2. the synthesized TCAM program executed under device semantics
//     (condition-before-extract, internal/tcam);
//  3. SpecLint's SAT-certified verdicts — a rule certified shadowed
//     (PH002) must never fire, and a default certified dead (PH003) must
//     never be taken, on any observed execution of the spec.
//
// Any disagreement is a Divergence. Divergences shrink (Shrink) by
// delta-debugging over states, rules, extracts, key parts, and fields,
// re-validating the divergence at every step, and render as ready-to-commit
// benchdata regression fixtures (Divergence.Fixture).
package fuzz

import (
	"errors"
	"fmt"
	"math/rand"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/lint"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// Kind names the oracle pair a divergence separates.
type Kind string

// Divergence kinds.
const (
	// KindSemantics: the spec interpretation and the synthesized program
	// disagree on a packet (acceptance or extracted dictionary).
	KindSemantics Kind = "spec-vs-program"
	// KindLint: a SAT-certified lint verdict is refuted by an observed
	// execution of the spec.
	KindLint Kind = "lint-vs-observed"
)

// Outcome classifies one Check run.
type Outcome int

// Check outcomes. The Skip* values are not failures: mutants routinely
// wander outside the device's resources or into lint-rejected territory,
// and the campaign merely counts them.
const (
	OK Outcome = iota
	Diverged
	SkipLint       // error-severity lint diagnostics (core would reject)
	SkipNoSolution // no implementation fits the device resources
	SkipTimeout    // compile budget expired
)

func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Diverged:
		return "diverged"
	case SkipLint:
		return "skip-lint"
	case SkipNoSolution:
		return "skip-no-solution"
	case SkipTimeout:
		return "skip-timeout"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Config parameterizes Check and the campaign driver.
type Config struct {
	Profile hw.Profile
	// Options is the base compile configuration (timeout, optimizations,
	// workers). Check overrides MaxIterations per seed.
	Options core.Options
	// Packets is the number of random inputs checked per spec (default
	// 4096). Small input spaces are enumerated exhaustively instead.
	Packets int
	// Seed drives packet generation; a fixed seed makes Check
	// deterministic for a given spec and profile.
	Seed int64

	// CorruptProgram and CorruptLint seed defects into the two
	// implementation-side oracles, so regression tests can prove the
	// fuzzer catches what it claims to catch: the first mutates the
	// compiled program in place, the second rewrites the lint verdicts.
	// Both are nil in real campaigns.
	CorruptProgram func(*tcam.Program)
	CorruptLint    func(*pir.Spec, []lint.Diag) []lint.Diag
}

// Divergence is one confirmed oracle disagreement, with enough context to
// reproduce it: the exact spec, profile, packet, and both results.
type Divergence struct {
	Kind    Kind
	Spec    *pir.Spec
	Profile string
	// Trail records the mutation edits that produced Spec from its seed
	// ("" when the seed itself diverged).
	Trail      string
	Input      bitstream.Bits
	SpecResult pir.Result
	ProgResult pir.Result // KindSemantics only
	Claim      lint.Diag  // KindLint only: the refuted verdict
	Detail     string
}

func (d *Divergence) String() string {
	s := fmt.Sprintf("%s divergence on %q [%s]", d.Kind, d.Spec.Name, d.Profile)
	if d.Trail != "" {
		s += " after " + d.Trail
	}
	return s + ": " + d.Detail
}

// Check compiles spec for cfg.Profile and drives the three oracles over
// cfg.Packets inputs. maxIter is the loop bound handed to the compiler
// and to the unrolled contract (0 = default: depth 4 on loop-free
// devices); the interpreters run at a budget no input can exhaust.
// It returns a non-nil Divergence exactly when the outcome is Diverged; an
// error reports infrastructure failure, never a divergence.
func Check(cfg Config, spec *pir.Spec, maxIter int) (*Divergence, Outcome, error) {
	packets := cfg.Packets
	if packets <= 0 {
		packets = 4096
	}
	diags := lint.Run(spec, &cfg.Profile)
	if lint.HasErrors(diags) {
		return nil, SkipLint, nil
	}

	opts := cfg.Options
	opts.MaxIterations = maxIter
	res, err := core.Compile(spec, cfg.Profile, opts)
	if err != nil {
		var le *core.LintError
		switch {
		case errors.Is(err, core.ErrNoSolution):
			return nil, SkipNoSolution, nil
		case errors.Is(err, core.ErrTimeout):
			return nil, SkipTimeout, nil
		case errors.As(err, &le):
			return nil, SkipLint, nil
		}
		return nil, OK, fmt.Errorf("fuzz: compiling %q for %s: %w", spec.Name, cfg.Profile.Name, err)
	}
	prog := res.Program
	if cfg.CorruptProgram != nil {
		cfg.CorruptProgram(prog)
	}
	if cfg.CorruptLint != nil {
		diags = cfg.CorruptLint(spec, diags)
	}

	// Index the SAT-certified claims by state name. Shadowed-rule and
	// dead-default proofs quantify over free key bits, and every observed
	// key value is one such assignment — so a single observed firing (or
	// default take) refutes the certificate outright.
	shadowed := map[string]map[int]lint.Diag{}
	dead := map[string]lint.Diag{}
	for _, d := range diags {
		switch d.Code {
		case lint.CodeShadowedRule:
			if shadowed[d.State] == nil {
				shadowed[d.State] = map[int]lint.Diag{}
			}
			shadowed[d.State][d.Rule] = d
		case lint.CodeDeadDefault:
			dead[d.State] = d
		}
	}

	// Equivalence contract (mirrors internal/sim's harness): pipelined and
	// streaming devices implement the K-unrolled spec, so that is what the
	// program is compared against. The lint oracle always observes the
	// original spec — its certificates are per-state, not per-unrolling.
	contract := spec
	if spec.HasLoop() && !cfg.Profile.AllowLoops() {
		depth := maxIter
		if depth <= 0 {
			depth = core.DefaultUnroll
		}
		unrolled, uerr := core.Unroll(spec, depth)
		if uerr != nil {
			return nil, OK, fmt.Errorf("fuzz: unrolling %q: %w", spec.Name, uerr)
		}
		contract = unrolled
	}

	// maxIter is the compile bound (loop depth / unroll depth), NOT the
	// execution budget. Inputs are sized for pir.DefaultMaxIterations spec
	// iterations, and every machine runs at a visit budget no input of
	// that length can exhaust: one visit per bit plus the states and
	// slack, the verifier's rule. A program may take several TCAM steps
	// per spec iteration (a key split across chunk states), so at the
	// spec's own budget it would reject where the spec accepts.
	maxLen := contract.MaxConsumedBits(0) + contract.LookaheadUse()
	if n := spec.MaxConsumedBits(0) + spec.LookaheadUse(); n > maxLen {
		maxLen = n
	}
	runIter := maxLen + max(len(spec.States), len(contract.States), len(prog.States)) + 4
	exhaustive := maxLen <= 22 && 1<<uint(maxLen) <= packets
	if exhaustive {
		packets = 1 << uint(maxLen)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < packets; i++ {
		var in bitstream.Bits
		if exhaustive {
			in = bitstream.FromUint(uint64(i), maxLen)
		} else {
			in = bitstream.Random(rng, maxLen)
		}

		specRes, trace := spec.RunTrace(in, runIter)
		contractRes := specRes
		if contract != spec {
			contractRes = contract.Run(in, runIter)
		}
		progRes := prog.Run(in, runIter)
		if !sameObservable(contractRes, progRes) {
			return &Divergence{
				Kind:       KindSemantics,
				Spec:       spec,
				Profile:    cfg.Profile.Name,
				Input:      in,
				SpecResult: contractRes,
				ProgResult: progRes,
				Detail: fmt.Sprintf(
					"spec accept=%v reject=%v vs program accept=%v reject=%v; dict diff: %s",
					contractRes.Accepted, contractRes.Rejected,
					progRes.Accepted, progRes.Rejected,
					contractRes.Dict.Diff(progRes.Dict)),
			}, Diverged, nil
		}

		if len(shadowed) == 0 && len(dead) == 0 {
			continue
		}
		for _, step := range trace {
			st := &spec.States[step.State]
			if step.Rule >= 0 {
				if claim, ok := shadowed[st.Name][step.Rule]; ok {
					return &Divergence{
						Kind:       KindLint,
						Spec:       spec,
						Profile:    cfg.Profile.Name,
						Input:      in,
						SpecResult: specRes,
						Claim:      claim,
						Detail: fmt.Sprintf(
							"rule %d of state %q is certified shadowed (PH002) yet fired on this input",
							step.Rule, st.Name),
					}, Diverged, nil
				}
			} else if len(st.Key) > 0 && len(st.Rules) > 0 {
				if claim, ok := dead[st.Name]; ok {
					return &Divergence{
						Kind:       KindLint,
						Spec:       spec,
						Profile:    cfg.Profile.Name,
						Input:      in,
						SpecResult: specRes,
						Claim:      claim,
						Detail: fmt.Sprintf(
							"default of state %q is certified dead (PH003) yet was taken on this input",
							st.Name),
					}, Diverged, nil
				}
			}
		}
	}
	return nil, OK, nil
}

// sameObservable is the device-observable equivalence relation: acceptance
// outcomes must agree, and the extracted dictionary must agree on accepted
// packets. Rejected packets are dropped by the device — no dictionary is
// delivered — so in-flight extraction state is not compared. This is
// strictly weaker than pir.Result.Same (which sim uses on the curated
// corpus, where rejecting paths never exhaust the iteration budget): a
// mutant that loops forever rejects on both sides at the budget, but the
// spec and the program reach the budget mid-extraction at different
// depths, and comparing those half-built dictionaries would report a
// divergence no packet-observing experiment could witness.
func sameObservable(a, b pir.Result) bool {
	if a.Accepted != b.Accepted || a.Rejected != b.Rejected {
		return false
	}
	return !a.Accepted || a.Dict.Equal(b.Dict)
}
