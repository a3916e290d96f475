package core

import (
	"fmt"
	"math/rand"
	"testing"

	"parserhawk/internal/hw"
	"parserhawk/internal/tcam"
)

// legacyCheaper is the dominance rule the synthesizer hard-coded before
// the objective abstraction, transcribed verbatim: non-single-table
// targets ranked by stages then entries, single-table targets by entries
// then states. It is the oracle the per-objective rule must reproduce on
// every pre-streaming profile.
func legacyCheaper(profile hw.Profile, a, b tcam.Resources) bool {
	if profile.Arch != hw.SingleTable {
		if a.Stages != b.Stages {
			return a.Stages < b.Stages
		}
		return a.Entries < b.Entries
	}
	if a.Entries != b.Entries {
		return a.Entries < b.Entries
	}
	return a.States < b.States
}

// legacyLadderCap is the pre-objective clamp on the iterative-deepening
// search cap: single-table devices stopped at TCAMLimit, everything else
// searched the full skeleton sum.
func legacyLadderCap(profile hw.Profile, capN int) int {
	if profile.Arch == hw.SingleTable && capN > profile.TCAMLimit {
		return profile.TCAMLimit
	}
	return capN
}

// TestObjectiveDominanceMatchesLegacy: on every profile that predates the
// streaming arch, the objective-generic dominance comparison must agree
// with the legacy rule on all resource pairs — the refactor moved the
// rule into hw.Objective, it must not have changed it.
func TestObjectiveDominanceMatchesLegacy(t *testing.T) {
	interleaved := hw.Tofino()
	interleaved.Arch = hw.Interleaved
	profiles := []hw.Profile{hw.Tofino(), hw.IPU(), hw.Parameterized(4, 16, 64), interleaved}
	rng := rand.New(rand.NewSource(20260704))
	draw := func() tcam.Resources {
		return tcam.Resources{Entries: rng.Intn(6), Stages: rng.Intn(4), States: rng.Intn(5)}
	}
	for _, p := range profiles {
		for i := 0; i < 5000; i++ {
			a, b := draw(), draw()
			if got, want := resultCheaper(p, a, b), legacyCheaper(p, a, b); got != want {
				t.Fatalf("%s: resultCheaper(%+v, %+v) = %v, legacy says %v", p.Name, a, b, got, want)
			}
		}
	}
}

// TestObjectiveLadderCapMatchesLegacy pins the budget-ladder cap to the
// legacy clamp on the same pre-streaming profiles, across the whole range
// of plausible skeleton sums.
func TestObjectiveLadderCapMatchesLegacy(t *testing.T) {
	interleaved := hw.Tofino()
	interleaved.Arch = hw.Interleaved
	for _, p := range []hw.Profile{hw.Tofino(), hw.IPU(), hw.Parameterized(4, 16, 64), interleaved} {
		obj := p.Objective.For(p.Arch)
		for capN := 0; capN <= 4*p.TCAMLimit; capN++ {
			if got, want := obj.LadderCap(p, capN), legacyLadderCap(p, capN); got != want {
				t.Fatalf("%s: LadderCap(%d) = %d, legacy says %d", p.Name, capN, got, want)
			}
		}
	}
}

// TestObjectiveAutoMatchesExplicitLegacyObjective is the compile-level
// identity sweep: every example spec and a seeded batch of random specs
// are compiled twice per legacy profile — once with the profile's
// implicit (Auto) objective and once with the legacy objective spelled
// out explicitly — at workers 1 and 4. Verdict, entry table, entries,
// stages, and final budget must be identical in all four cells, so the
// objective resolution is provably a no-op on the existing targets.
func TestObjectiveAutoMatchesExplicitLegacyObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("objective identity sweep")
	}
	explicit := func(p hw.Profile, o hw.Objective) hw.Profile {
		p.Objective = o
		return p
	}
	arms := []struct{ auto, legacy hw.Profile }{
		{hw.Tofino(), explicit(hw.Tofino(), hw.MinimizeEntries)},
		{hw.IPU(), explicit(hw.IPU(), hw.MinimizeStages)},
	}
	specs := exampleSpecs(t)
	rng := rand.New(rand.NewSource(20260704))
	for i := 0; i < 6; i++ {
		specs = append(specs, randomSpec(rng, 9000+i))
	}
	for _, arm := range arms {
		for _, spec := range specs {
			for _, w := range []int{1, 4} {
				base := compileAtWorkers(t, spec, arm.auto, w)
				got := compileAtWorkers(t, spec, arm.legacy, w)
				checkIdentical(t, fmt.Sprintf("%s on %s workers=%d auto-vs-explicit",
					spec.Name, arm.auto.Name, w), base, got)
			}
		}
	}
}
