// Package core implements ParserHawk's program-synthesis compiler (§5, §6).
//
// Compilation proceeds exactly as in Figure 8: the front end analyzes the
// parser specification (internal/pir) and the hardware profile
// (internal/hw); the synthesizer runs a CEGIS loop over the bitvector
// solver (internal/bv) to concretize the symbolic TCAM entries of a parser
// skeleton; the back end post-optimizes and emits a tcam.Program.
//
// Options toggles the §6 optimizations that change the search — Opt2, Opt4
// and Opt5 — so the evaluation harness can reproduce the paper's ablations
// (Tables 3 and 5). Opt7, the parallel portfolio, is Workers: every width
// gives the same outcome, so it is a speed setting, not a toggle. The
// other three are how the encoding works in both modes: transition keys
// are the spec's own keys realized at cursor-relative offsets (realizeKey,
// §6.1), extraction is preallocated per skeleton state (§6.3), and varbit
// widths are resolved per example (stateWidth, §6.6). The paper's Orig
// mode therefore differs from OPT here in Opt2/4/5, one worker and the
// SpecLint pre-pass only.
package core

import (
	"time"

	"parserhawk/internal/bv"
)

// Options configures a compilation. The zero value enables nothing; use
// DefaultOptions (all toggles on, as in the paper's OPT rows) or
// NaiveOptions (all off, the Orig rows).
type Options struct {
	// Opt2 scales fields irrelevant to control flow down to 1 bit during
	// synthesis and restores them afterwards (§6.2).
	Opt2BitWidthMin bool
	// Opt4 restricts symbolic match constants to values present in the
	// specification, their adjacent-state concatenations, and their
	// hardware-width subranges (§6.4).
	Opt4ConstantSynthesis bool
	// Opt5 groups contiguous bits of one field into indivisible key units
	// (§6.5).
	Opt5KeyGrouping bool

	// Timeout bounds the total compilation time; zero means no limit.
	// The paper uses 24 h; the scaled harness uses seconds.
	Timeout time.Duration

	// MaxIterations is the FSM unrolling bound K (§4). Zero picks a bound
	// derived from the specification.
	MaxIterations int

	// MaxBudget caps the iterative-deepening search budget, in the profile
	// objective's units (TCAM entries for entry-minimizing targets; see
	// hw.Objective). Zero derives a bound from the specification (one entry
	// per spec rule plus defaults).
	MaxBudget int

	// Workers is how many goroutines run Opt7's alternative structural
	// subproblems (skeletons) in parallel (§6.7). Zero means GOMAXPROCS;
	// 1 runs the same portfolio on the caller's goroutine alone.
	Workers int

	// SkipLint disables the SpecLint pre-pass: no diagnostics, no
	// error-severity rejection, and no pruning of unreachable states or
	// SAT-proved shadowed rules. The naive mode sets it — the paper's Orig
	// rows measure the plain encoding without any spec analysis — and tests
	// use it to compare pruned against unpruned compilations.
	SkipLint bool

	// QuerySink, when non-nil, enables DIMACS capture: each budget rung
	// reports its most-conflicted SAT query (instance plus that solve's
	// assumptions as unit clauses) for offline solver debugging. The sink
	// may be called concurrently from parallel skeleton ladders. Capture
	// costs one clause copy per AddClause; leave nil otherwise.
	QuerySink func(QueryDump)

	// EmitCertificate attaches a checkable certificate to the Result: the
	// effective spec and the compiled program, which the independent walk
	// in internal/cert proves equivalent (plus a DRAT proof bundle when
	// LogProofs is also set). A walk that could not decide the program is
	// recorded in the certificate, never an error.
	// Off by default. Outcome-invariant: the same program is produced
	// either way, so the flag is excluded from Fingerprint.
	EmitCertificate bool

	// LogProofs enables DRAT proof logging in every solver this compile
	// creates. Each budget rung's hardest UNSAT query then carries a
	// replayable refutation (QueryDump.Proof). Off by default: logging
	// copies every learnt clause. Outcome-invariant and excluded from
	// Fingerprint.
	LogProofs bool

	// Seed makes test-case generation deterministic.
	Seed int64
}

// DefaultOptions returns the paper's OPT configuration: every optimization
// toggle enabled and the portfolio on GOMAXPROCS workers.
func DefaultOptions() Options {
	return Options{
		Opt2BitWidthMin:       true,
		Opt4ConstantSynthesis: true,
		Opt5KeyGrouping:       true,
		Seed:                  1,
	}
}

// NaiveOptions returns the paper's Orig configuration: the plain synthesis
// encoding on one worker, with every optimization toggle and the SpecLint
// pre-pass disabled. Expect timeouts on all but the smallest inputs — that
// observation is the paper's Table 3.
func NaiveOptions() Options {
	return Options{
		Workers:  1,
		Seed:     1,
		SkipLint: true,
	}
}

// LintStats summarizes the SpecLint pre-pass of one compilation: the
// diagnostic tallies and how much specification the analyzer proved dead
// and pruned before skeleton enumeration.
type LintStats struct {
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`

	// Pre/post-prune specification size. Equal when nothing was prunable;
	// zero throughout when linting was skipped.
	StatesBefore int `json:"states_before"`
	StatesAfter  int `json:"states_after"`
	RulesBefore  int `json:"rules_before"`
	RulesAfter   int `json:"rules_after"`
}

// Stats reports how a compilation went; the evaluation tables are built
// from these numbers.
type Stats struct {
	CEGISIterations int           `json:"cegis_iterations"`  // synthesis/verification round trips (winning skeleton)
	SkeletonsTried  int           `json:"skeletons_tried"`   // structural subproblems attempted
	BudgetsTried    int           `json:"budgets_tried"`     // entry-budget rungs attempted on the winning skeleton
	EntryBudget     int           `json:"entry_budget"`      // final entry budget that succeeded
	SearchSpaceBits int           `json:"search_space_bits"` // free decision bits of the naive encoding (Table 3)
	SolverVars      int           `json:"solver_vars"`       // CNF variables of the final successful query
	Elapsed         time.Duration `json:"elapsed"`           // wall-clock compile time
	SynthesisTime   time.Duration `json:"synthesis_time"`
	VerifyTime      time.Duration `json:"verify_time"`
	TestCases       int           `json:"test_cases"` // final size of the CEGIS example set
	// Refuted counts the candidates the witness walk refuted, summed like
	// Solver over every ladder the compile ran (the Opt2 fallback's
	// included).
	Refuted int `json:"refuted"`

	// Lint reports the SpecLint pre-pass: diagnostic counts and the
	// specification shrink achieved by pruning unreachable states and
	// SAT-proved shadowed rules.
	Lint LintStats `json:"lint"`

	// Solver aggregates the CDCL/bit-blasting counters over every solver
	// instance the compilation ran — including skeleton attempts and budget
	// rungs that lost the race or were canceled — so it measures total
	// search effort, not just the winner's.
	Solver SolverStats `json:"solver"`
	// Portfolio reports the skeleton scheduler's activity: worker count,
	// ladders run, and skeletons dropped by the shared best-cost bound.
	// Every compile runs the scheduler, at every worker count.
	Portfolio PortfolioStats `json:"portfolio"`
	// Iterations is the winning budget rung's per-CEGIS-iteration trace.
	// Solver snapshots within it are cumulative for the skeleton ladder's
	// persistent solver (which may enter the rung with non-zero counters
	// from earlier rungs), so they grow monotonically across the trace.
	Iterations []IterationStats `json:"iterations,omitempty"`
}

// SolverStats is the bit-blasting solver's own counters (§6's cost model
// made observable): CDCL decisions, conflicts, propagations, learned
// clauses and restarts, plus the CNF size in clauses, Tseitin gates and
// variables. Stats.Solver sums them with Add over every solver a compile
// ran.
type SolverStats = bv.Metrics

// PortfolioStats reports what the parallel portfolio scheduler did during
// one compilation. The scheduler only ever acts on schedule-invariant facts
// (see portfolio.go), so these counters describe how the work was carved
// up, never why an outcome differs — outcomes do not differ.
type PortfolioStats struct {
	// Workers is the resolved goroutine count the portfolio ran with.
	Workers int `json:"workers"`
	// LaddersRun counts skeleton ladders actually started (skeletons
	// dropped by domination or a provably-cheapest sibling are not run).
	LaddersRun int `json:"ladders_run"`
	// SkeletonsDominated counts skeletons dropped (or canceled mid-ladder)
	// because a lower-index sibling reached the portfolio's entry lower
	// bound — the shared best-cost bound's provably-cheapest rule, the one
	// domination test that is schedule-invariant (see portfolio.go).
	SkeletonsDominated int `json:"skeletons_dominated"`
}

// QueryDump is one captured SAT query for offline debugging: the DIMACS
// CNF of the instance at solve time (assumptions included as unit
// clauses) plus enough metadata to tell which subproblem produced it.
// Options.QuerySink receives the most-conflicted query of each budget
// rung; a sink keeping the max-Conflicts dump sees the hardest query of
// the whole compilation.
type QueryDump struct {
	Spec     string // specification name
	Skeleton string // structural subproblem
	Budget   int    // entry-budget rung
	Examples int    // CEGIS examples encoded when the query ran
	Status   string // sat, unsat, or unknown
	// Conflicts is the solve's own conflict count (per-call delta), the
	// hardness measure used to pick which query to keep.
	Conflicts int64
	DIMACS    []byte
	// Proof is the DRAT log for this solve when Options.LogProofs is set
	// and the query was UNSAT: a refutation of exactly the CNF in DIMACS.
	Proof []byte
}

// IterationStats records one CEGIS iteration of one budget rung: the
// wall time split between encoding the new examples, the synthesis solve
// and verification (the counterexample search plus, when it finds
// nothing, the witness proof), and a cumulative snapshot of the ladder's
// solver counters taken right after the iteration's solve returned.
type IterationStats struct {
	Budget     int           `json:"budget"`
	Examples   int           `json:"examples"`    // CEGIS examples fed before this solve
	Status     string        `json:"status"`      // sat, unsat, canceled, or refuted (the walk refuted the model)
	EncodeTime time.Duration `json:"encode_time"` // encoding the examples fed since the last solve
	SolveTime  time.Duration `json:"solve_time"`
	VerifyTime time.Duration `json:"verify_time"`
	Solver     SolverStats   `json:"solver"` // cumulative over the ladder's solver
}
