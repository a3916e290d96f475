package tables

import (
	"os"
	"reflect"
	"testing"
	"time"

	"parserhawk/internal/core"
	"parserhawk/internal/sat"
)

func TestRunStatsRoundTrip(t *testing.T) {
	in := []RunStats{
		{
			Program: "Sai V1",
			Target:  "tofino-scaled",
			Mode:    "opt",
			OK:      true,
			Entries: 7,
			Stages:  1,
			Seconds: 1.25,

			StatesPrePrune:  5,
			StatesPostPrune: 4,
			RulesPrePrune:   9,
			RulesPostPrune:  8,
			Stats: core.Stats{
				Lint: core.LintStats{
					Warnings: 2, StatesBefore: 5, StatesAfter: 4,
					RulesBefore: 9, RulesAfter: 8,
				},
				CEGISIterations: 9,
				SkeletonsTried:  2,
				BudgetsTried:    3,
				EntryBudget:     7,
				SearchSpaceBits: 412,
				SolverVars:      15034,
				Elapsed:         1250 * time.Millisecond,
				SynthesisTime:   900 * time.Millisecond,
				VerifyTime:      200 * time.Millisecond,
				TestCases:       11,
				Solver: core.SolverStats{
					Metrics: sat.Metrics{
						Solves:          12,
						Decisions:       40321,
						Propagations:    991234,
						Conflicts:       812,
						LearnedClauses:  800,
						LearnedLiterals: 6400,
						Restarts:        3,
						Clauses:         51234,
						Vars:            15100,
					},
					Gates: 20110,
				},
				Iterations: []core.IterationStats{
					{Budget: 6, Examples: 2, Status: "unsat", SolveTime: 10 * time.Millisecond,
						Solver: core.SolverStats{Metrics: sat.Metrics{Solves: 1, Decisions: 100}}},
					{Budget: 7, Examples: 2, Status: "sat", SolveTime: 80 * time.Millisecond,
						VerifyTime: 5 * time.Millisecond,
						Solver:     core.SolverStats{Metrics: sat.Metrics{Solves: 1, Decisions: 900, Conflicts: 12}}},
				},
			},
		},
		{
			Program: "Sai V1",
			Target:  "tofino-scaled",
			Mode:    "orig",
			Error:   core.ErrTimeout.Error(),
			Seconds: 10,
		},
	}
	data, err := EncodeRunStats(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRunStats(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the record:\n in: %+v\nout: %+v", in, out)
	}
}

func TestDecodeRunStatsRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeRunStats([]byte(`[{"program":"x","bogus_counter":1}]`)); err == nil {
		t.Error("unknown field must be rejected, not silently dropped")
	}
}

// TestCheckedInBaselineDecodes keeps BENCH_baseline.json readable by the
// current schema: hawkab and the bench-trajectory CI job decode it with
// DecodeRunStats, which rejects unknown fields, so a field removed from
// the stats must also be removed from the baseline.
func TestCheckedInBaselineDecodes(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := DecodeRunStats(data)
	if err != nil {
		t.Fatal(err)
	}
	// Full Table 3: 38 benchmarks on the three scaled devices plus 6
	// wire-scale benchmarks on the three full ones.
	if len(runs) != 132 {
		t.Errorf("baseline holds %d records, want 132", len(runs))
	}
}

// TestStatsSinkReceivesRuns runs one real (tiny) compilation through the
// harness path and checks the sink observes it with live solver counters.
func TestStatsSinkReceivesRuns(t *testing.T) {
	var runs []RunStats
	cfg := Config{
		OptTimeout: 30 * time.Second,
		Filter:     "Multi-key (same pkt field) -R5-R3",
		StatsSink:  func(r RunStats) { runs = append(runs, r) },
	}
	rows := Table3(cfg)
	if len(rows) == 0 {
		t.Fatal("filter matched no benchmarks")
	}
	if len(runs) < 2 { // at least tofino + ipu per matched benchmark
		t.Fatalf("sink saw %d runs, want >= 2", len(runs))
	}
	for _, r := range runs {
		if r.Mode != "opt" {
			t.Errorf("unexpected mode %q without RunOrig", r.Mode)
		}
		if !r.OK {
			t.Errorf("%s/%s failed: %s", r.Program, r.Target, r.Error)
			continue
		}
		if r.Stats.Solver.Solves == 0 || r.Stats.Solver.Propagations == 0 || r.Stats.Solver.Vars == 0 {
			t.Errorf("%s/%s: solver counters look dead: %+v", r.Program, r.Target, r.Stats.Solver)
		}
		// Opt mode always lints, so the pre-prune sizes reflect the spec.
		if r.StatesPrePrune == 0 || r.RulesPrePrune == 0 ||
			r.StatesPostPrune > r.StatesPrePrune || r.RulesPostPrune > r.RulesPrePrune {
			t.Errorf("%s/%s: prune counters wrong: %d->%d states, %d->%d rules",
				r.Program, r.Target, r.StatesPrePrune, r.StatesPostPrune, r.RulesPrePrune, r.RulesPostPrune)
		}
	}
	if _, err := EncodeRunStats(runs); err != nil {
		t.Fatal(err)
	}
}
