package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/cert"
	"parserhawk/internal/hw"
	"parserhawk/internal/lint"
	"parserhawk/internal/pir"
	"parserhawk/internal/sat"
	"parserhawk/internal/tcam"
)

// Result is a successful compilation: the concrete TCAM program, its
// resource footprint, and synthesis statistics.
type Result struct {
	Program   *tcam.Program
	Resources tcam.Resources
	Stats     Stats
	// Certificate is the proof-carrying artifact built when
	// Options.EmitCertificate is set: the effective spec, the program,
	// and optionally a DRAT proof bundle, all checkable by internal/cert
	// (and the hawkcheck CLI) without trusting this package.
	Certificate *cert.Certificate

	// walkErr is why the walk (cert.Walk against the effective spec)
	// could not decide Program, or nil when it proved it; the
	// certificate records it.
	walkErr error
}

// ErrTimeout reports that the compilation budget expired before any
// skeleton/budget subproblem succeeded — the ">timeout" rows of Table 3.
var ErrTimeout = errors.New("core: compilation timed out")

// ErrNoSolution reports that the CEGIS search exhausted every skeleton and
// entry budget without finding an implementation within the device's
// resources.
var ErrNoSolution = errors.New("core: no implementation fits the device resources")

// LintError is the diagnostics-bearing rejection returned when SpecLint
// finds error-severity defects. All diagnostics — not just the errors —
// are attached so the caller can render the full report.
type LintError struct {
	Spec  string      // specification name
	Diags []lint.Diag // every diagnostic from the failed run, sorted
}

func (e *LintError) Error() string {
	errs, warns, _ := lint.Counts(e.Diags)
	msg := fmt.Sprintf("core: spec %q rejected by lint: %d error(s), %d warning(s)", e.Spec, errs, warns)
	for _, d := range e.Diags {
		if d.Severity == lint.Error {
			msg += "\n  " + d.String()
		}
	}
	return msg
}

// errCanceled marks a skeleton attempt or budget rung that was cut short by
// cancellation — either the compilation deadline or a sibling winning the
// race. It never escapes Compile: the collector translates it into
// ErrTimeout, the caller's context error, or simply drops it when a sibling
// produced a result.
var errCanceled = errors.New("core: attempt canceled")

// errBudgetTooSmall reports that a budget rung proved its search budget
// insufficient (solver UNSAT, or the shape exceeded device limits); the
// ladder climbs to the next rung. The budget is measured in the profile
// objective's units (see hw.Objective).
var errBudgetTooSmall = errors.New("core: search budget too small")

// errScalingMisled reports that an Opt2 ladder's candidate passed the
// search on the scaled spec but the walk does not prove it at full width;
// the skeleton then falls back to an unscaled ladder.
var errScalingMisled = errors.New("core: bit-width scaling misled synthesis")

// Compile synthesizes a TCAM parser program implementing spec on the given
// hardware profile. It is the whole Figure 8 pipeline: analysis, skeleton
// portfolio, CEGIS, post-synthesis optimization, and validation.
func Compile(spec *pir.Spec, profile hw.Profile, opts Options) (*Result, error) {
	return CompileContext(context.Background(), spec, profile, opts)
}

// CompileContext is Compile under a caller-supplied context. Cancellation
// is threaded down through every skeleton attempt, budget rung, and into
// the CDCL conflict loop itself, so canceling ctx aborts in-flight SAT
// solves instead of waiting for them to finish. Options.Timeout, when set,
// is applied as a deadline on top of ctx.
func CompileContext(ctx context.Context, spec *pir.Spec, profile hw.Profile, opts Options) (*Result, error) {
	start := time.Now()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(opts.Timeout))
		defer cancel()
	}

	// SpecLint pre-pass and loop-bound defaulting, shared with
	// EffectiveSpec so an independent checker reproduces the exact spec
	// the synthesizer targeted. orig is kept for the certificate: the
	// input spec's identity (SpecSHA) must be computed before pruning.
	orig := spec
	spec, lintStats, err := lintFixpoint(spec, profile, opts)
	if err != nil {
		return nil, err
	}

	// Loopy specs on pipelined devices are bounded by unrolling; the
	// verifier must use the same iteration bound so "deeper stack than the
	// device holds" counts as rejection on both sides.
	if spec.HasLoop() && !profile.AllowLoops() {
		opts.MaxIterations = unrollDepth(opts.MaxIterations)
	}

	// The hardest proof-bearing query is kept for the certificate; the
	// tee forwards every dump to the caller's sink unchanged, so -dimacs
	// and the certificate always describe the same solver call.
	var hardest *HardestQuery
	if opts.EmitCertificate && opts.LogProofs {
		hardest = &HardestQuery{}
		sink := opts.QuerySink
		opts.QuerySink = func(q QueryDump) {
			hardest.Consider(q)
			if sink != nil {
				sink(q)
			}
		}
	}

	// Opt2: synthesize against the bit-width-minimized spec.
	synthSpec := spec
	if opts.Opt2BitWidthMin {
		synthSpec = scaleSpec(spec)
	}

	unroll := opts.MaxIterations
	origSks, effOrig, err := buildSkeletons(spec, profile, opts, unroll)
	if err != nil {
		return nil, err
	}
	synthSks, effSynth, err := origSks, effOrig, error(nil)
	if synthSpec != spec {
		synthSks, effSynth, err = buildSkeletons(synthSpec, profile, opts, unroll)
		if err != nil || !sameStructure(origSks, synthSks) {
			// Width-dependent structural decisions (lookahead deferral,
			// quotient grouping) diverged between the scaled and original
			// specs; Opt2 cannot be applied to this program. Fall back to
			// synthesizing on the original widths.
			synthSpec, synthSks, effSynth = spec, origSks, effOrig
		}
	}

	stats := Stats{}
	estEntries := 0
	for i := range spec.States {
		estEntries += len(spec.States[i].Rules) + 1
	}
	stages := 1
	if profile.Arch != hw.SingleTable {
		stages = profile.StageLimit
	}
	stats.SearchSpaceBits = spec.SearchSpaceBits(estEntries, stages)

	// Portfolio objective lower bound: any solution from skeleton i uses at
	// least skeletonLowerBound(i) entries, so a solution at the portfolio
	// minimum cannot be beaten on the entry count by any sibling. Reaching
	// it cancels the rest of the race (§6.7 with early termination). Only
	// the entry-minimizing objective has such a bound; stage- and
	// depth-ranked devices always run the portfolio to completion.
	objective := profile.Objective.For(profile.Arch)
	minLB := 0
	if objective.UsesEntryLowerBound() && opts.Opt4ConstantSynthesis {
		for i := range synthSks {
			lb := skeletonLowerBound(effSynth, &synthSks[i])
			if minLB == 0 || lb < minLB {
				minLB = lb
			}
		}
	}
	provablyCheapest := func(r *Result) bool {
		return minLB > 0 && objective.Cost(r.Resources) <= minLB
	}

	// §6.7 as a bounded portfolio: skeletons form a work queue drained by
	// the resolved worker count, each worker running one skeleton's ladder
	// at a time (see portfolio.go for why every scheduler action is
	// schedule-invariant). With one worker the same scheduler runs on the
	// caller's goroutine alone. Results come back in skeleton-index order,
	// so the reduction below resolves ties identically at every worker
	// count.
	var outs []attemptOut
	outs, stats.Portfolio = runPortfolio(ctx, portfolioInput{
		spec: spec, effOrig: effOrig, effSynth: effSynth,
		origSks: origSks, synthSks: synthSks,
		profile: profile, opts: opts,
		workers:          effectiveWorkers(opts),
		provablyCheapest: provablyCheapest,
	})

	var best *Result
	var firstErr error
	for _, o := range outs {
		stats.SkeletonsTried++
		stats.Solver.Add(o.stats.Solver)
		stats.Refuted += o.stats.Refuted
		if o.err != nil {
			if firstErr == nil && !errors.Is(o.err, errCanceled) {
				firstErr = o.err
			}
			continue
		}
		if best == nil || resultCheaper(profile, o.res.Resources, best.Resources) {
			best = o.res
		}
	}
	if best == nil {
		// Order matters: a deadline explains canceled attempts, but it is
		// checked only here, after every collected result has been
		// considered — a success that lands after the deadline check in a
		// sibling goroutine still wins above, so ErrTimeout never masks it.
		switch {
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			return nil, ErrTimeout
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case firstErr != nil:
			return nil, firstErr
		}
		return nil, ErrNoSolution
	}
	best.Stats.SkeletonsTried = stats.SkeletonsTried
	best.Stats.SearchSpaceBits = stats.SearchSpaceBits
	best.Stats.Solver = stats.Solver
	best.Stats.Refuted = stats.Refuted
	best.Stats.Portfolio = stats.Portfolio
	best.Stats.Lint = lintStats
	if opts.EmitCertificate {
		unrollUsed := 0
		if effOrig != spec {
			unrollUsed = unrollDepth(unroll)
		}
		var proofDump *QueryDump
		if hardest != nil {
			proofDump = hardest.Proved()
		}
		best.Certificate = buildCertificate(orig, effOrig, profile, unrollUsed, best, proofDump)
	}
	best.Stats.Elapsed = time.Since(start)
	return best, nil
}

// lintFixpoint is the SpecLint pre-pass (Figure 8's analysis stage made
// checkable): reject error-severity specs before any solving starts,
// then prune what the analyzer proved dead — unreachable states and
// SAT-certified shadowed rules — to a fixpoint (removing a shadowed
// rule can orphan the state it targeted, which the next round then
// removes). Pruning is sound: the pruned spec is observationally
// equivalent to the original on every input (see lint.Prune), so the
// verifier's contract is unchanged. Shared by CompileContext and
// EffectiveSpec so certificates and checkers agree on the spec the
// synthesizer actually targeted.
func lintFixpoint(spec *pir.Spec, profile hw.Profile, opts Options) (*pir.Spec, LintStats, error) {
	var lintStats LintStats
	if opts.SkipLint {
		return spec, lintStats, nil
	}
	diags := lint.Run(spec, &profile)
	if lint.HasErrors(diags) {
		return nil, lintStats, &LintError{Spec: spec.Name, Diags: diags}
	}
	errs, warns, infos := lint.Counts(diags)
	lintStats = LintStats{Errors: errs, Warnings: warns, Infos: infos}
	pruned, pst := lint.Prune(spec, diags)
	lintStats.StatesBefore, lintStats.RulesBefore = pst.StatesBefore, pst.RulesBefore
	for pruned != spec {
		spec = pruned
		pruned, pst = lint.Prune(spec, lint.Run(spec, &profile))
	}
	lintStats.StatesAfter, lintStats.RulesAfter = pst.StatesAfter, pst.RulesAfter
	return spec, lintStats, nil
}

// EffectiveSpec reproduces the spec-transformation pipeline a compile
// applies before synthesis — the lint/prune fixpoint, the default loop
// bound, and unrolling for loopy specs on loop-free targets — without
// running any synthesis. hawkcheck uses it to recompute, from the input
// spec alone, the effective spec a certificate's walk must relate to the
// program, refusing certificates built against anything else.
func EffectiveSpec(spec *pir.Spec, profile hw.Profile, opts Options) (*pir.Spec, error) {
	pruned, _, err := lintFixpoint(spec, profile, opts)
	if err != nil {
		return nil, err
	}
	if pruned.HasLoop() && !profile.AllowLoops() {
		opts.MaxIterations = unrollDepth(opts.MaxIterations)
	}
	_, eff, err := buildSkeletons(pruned, profile, opts, opts.MaxIterations)
	if err != nil {
		return nil, err
	}
	return eff, nil
}

// HardestQuery keeps the most-conflicted query dump it is offered, both
// overall (Best) and among the dumps that carry a DRAT proof (Proved); on
// a tie the first dump stays. Portfolio workers offer dumps concurrently,
// so it locks. The zero value is ready to use.
type HardestQuery struct {
	mu           sync.Mutex
	best, proved *QueryDump
}

// Consider offers one dump; it is an Options.QuerySink.
func (h *HardestQuery) Consider(q QueryDump) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.best == nil || q.Conflicts > h.best.Conflicts {
		h.best = &q
	}
	if len(q.Proof) > 0 && (h.proved == nil || q.Conflicts > h.proved.Conflicts) {
		h.proved = &q
	}
}

// Best returns the most-conflicted dump, or nil when none was offered.
func (h *HardestQuery) Best() *QueryDump {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.best
}

// Proved returns the most-conflicted dump carrying a proof, or nil.
func (h *HardestQuery) Proved() *QueryDump {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.proved
}

// effectiveWorkers resolves Options.Workers: an explicit value wins, zero
// means one worker per schedulable CPU.
func effectiveWorkers(opts Options) int {
	if opts.Workers > 0 {
		return opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// resultCheaper orders resource footprints by the device's scarce
// resource, as declared by the profile objective: entries then states for
// entry-minimizing parsers, stages then entries for stage-ranked ones,
// depth then entries then states for streaming pipelines. Dominance is
// per-objective on purpose — a portfolio result that wins on one device's
// objective may lose on another's, so cross-target comparison happens in
// the harness, never inside one compile.
func resultCheaper(profile hw.Profile, a, b tcam.Resources) bool {
	return profile.Objective.For(profile.Arch).Less(a, b)
}

// ladderBounds computes one skeleton's budget ladder endpoints: the cap
// (sum of per-state maxima, clamped by the option and device limits) and
// the starting rung. The ladder always climbs entry counts — entries bound
// the symbolic table the encoder builds — but the device clamp is the
// objective's call (see hw.Objective.LadderCap). A starting rung above the
// cap means no program of the skeleton fits.
func ladderBounds(effSynth *pir.Spec, synthSk *skeleton, profile hw.Profile, opts Options) (low, capN int) {
	for _, ss := range synthSk.States {
		capN += ss.MaxEntries
	}
	if opts.MaxBudget > 0 && opts.MaxBudget < capN {
		capN = opts.MaxBudget
	}
	capN = profile.Objective.For(profile.Arch).LadderCap(profile, capN)
	// Semantic lower bound: a state realizing spec states with k distinct
	// implementation-level transition targets needs at least k entries
	// (mask merging only combines rules with the same target, §6.4.2).
	// Start the iterative-deepening ladder there. The bound is part of the
	// constant-synthesis domain knowledge, so the naive mode — which the
	// paper measures without any of it — starts from one entry.
	low = 1
	if opts.Opt4ConstantSynthesis {
		low = max(skeletonLowerBound(effSynth, synthSk), 1)
	}
	return low, capN
}

// newSkeletonEngine builds the immutable ladder context for one skeleton.
// spec is the user's original specification (used for the emitted
// program's field table); effOrig/effSynth are the effective verification
// specs — equal to spec/scaled-spec for loop-capable targets, their
// bounded unrollings for pipelined ones.
func newSkeletonEngine(spec, effOrig, effSynth *pir.Spec, origSk, synthSk *skeleton, profile hw.Profile, opts Options) *skeletonEngine {
	return &skeletonEngine{
		spec:     spec,
		effOrig:  effOrig,
		effSynth: effSynth,
		origSk:   origSk,
		synthSk:  synthSk,
		profile:  profile,
		opts:     opts,
	}
}

// skeletonEngine is the immutable context of one skeleton's budget ladder.
type skeletonEngine struct {
	spec, effOrig, effSynth *pir.Spec
	origSk, synthSk         *skeleton
	profile                 hw.Profile
	opts                    Options
}

// budgetEnv is the mutable CEGIS environment of one ladder: the
// counterexample search (whose RNG advances as candidates are checked)
// and the growing example pool. A ladder threads one env through every
// rung, carrying counterexamples up the ladder as classic iterative
// deepening does.
type budgetEnv struct {
	ver      *verifier
	examples *exampleSet
}

// newEnv builds a fresh deterministic environment: a search seeded from
// Options.Seed and a pool holding the two §5.2 seed examples.
func (eng *skeletonEngine) newEnv() (*budgetEnv, error) {
	ver, err := newVerifier(eng.effSynth, eng.opts, eng.opts.Seed)
	if err != nil {
		return nil, err
	}
	env := &budgetEnv{
		ver:      ver,
		examples: &exampleSet{spec: eng.effSynth, iterBudget: ver.maxIterBudget()},
	}
	env.examples.add(make(bitstream.Bits, ver.maxLen)) // all-zeros
	env.examples.add(ver.randomInput())                // §5.2: one random seed example
	return env, nil
}

// example is one CEGIS input/expected-output pair.
type example struct {
	in  bitstream.Bits
	out pir.Result
}

// exampleSet is an append-only CEGIS example pool. Each pool belongs to a
// single ladder, so it needs no locking.
type exampleSet struct {
	spec       *pir.Spec
	iterBudget int
	ex         []example
}

func (e *exampleSet) add(in bitstream.Bits) {
	out := e.spec.Run(in, e.iterBudget)
	e.ex = append(e.ex, example{in: in, out: out})
}

// pending returns the examples appended at index from and beyond.
func (e *exampleSet) pending(from int) []example {
	return e.ex[from:]
}

func (e *exampleSet) size() int { return len(e.ex) }

// runLadder climbs one skeleton's iterative-deepening entry-budget ladder
// over one persistent solver. The skeleton's symbolic entry table is
// encoded once at the ladder cap; rung k solves under the assumption that
// at most k entries are enabled, so an UNSAT rung's learned clauses, the
// solver's variable activity, and every encoded counterexample carry
// directly into rung k+1 instead of being rebuilt. The ladder's solver
// effort is therefore that one solver's final snapshot (plus the total of
// an Opt2 fallback ladder, when one ran). The ladder's Stats are returned
// even when the skeleton fails, so Compile can account for all the work
// in their Solver and Refuted.
func (eng *skeletonEngine) runLadder(ctx context.Context) (*Result, Stats, error) {
	var st Stats
	low, capN := ladderBounds(eng.effSynth, eng.synthSk, eng.profile, eng.opts)
	if low > capN {
		return nil, st, ErrNoSolution
	}
	env, err := eng.newEnv()
	if err != nil {
		return nil, st, err
	}
	sy := newSynthesizer(eng.effSynth, eng.synthSk, eng.profile, eng.opts)
	for budget := low; budget <= capN; budget++ {
		st.BudgetsTried++
		st.Iterations = nil // the trace kept is the winning rung's
		res, err := eng.runBudget(ctx, budget, env, sy, &st)
		if errors.Is(err, errBudgetTooSmall) {
			continue
		}
		st.Solver.Add(sy.s.Metrics())
		if err != nil {
			return nil, st, err
		}
		res.Stats = st
		return res, st, nil
	}
	st.Solver.Add(sy.s.Metrics())
	return nil, st, ErrNoSolution
}

// runBudget runs the CEGIS loop at one entry budget in env over the
// ladder's synthesizer: feed the pool's examples, solve, verify, and either
// return a validated Result, errBudgetTooSmall to climb the ladder, or
// errCanceled when ctx fired mid-search. An interrupted solve or
// verification is never mistaken for UNSAT / "no counterexample": both
// carry explicit interrupt signals (sat.ErrCanceled, the verifier's
// interrupted flag). Every iteration adds its times, its CEGIS round trip
// and its trace entry to st, the ladder's running Stats.
func (eng *skeletonEngine) runBudget(ctx context.Context, budget int, env *budgetEnv, sy *synthesizer, st *Stats) (*Result, error) {
	stop := func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}

	// Query capture (Options.QuerySink): remember the rung's hardest solve,
	// serialized at solve time so the dump is the exact instance the solver
	// saw, and report it once when the rung finishes.
	var dump *QueryDump
	if eng.opts.QuerySink != nil {
		defer func() {
			if dump != nil {
				eng.opts.QuerySink(*dump)
			}
		}()
	}
	capture := func(status sat.Status) {
		if eng.opts.QuerySink == nil {
			return
		}
		conflicts := sy.s.SAT.LastSolveDelta().Conflicts
		if dump != nil && conflicts <= dump.Conflicts {
			return
		}
		data, err := sy.lastQuery()
		if err != nil {
			return
		}
		// An UNSAT solve's DRAT log refutes exactly the CNF dumped above;
		// SAT solves carry no proof (the model is its own witness).
		var proof []byte
		if status == sat.Unsat {
			proof = sy.lastProof()
		}
		dump = &QueryDump{
			Spec:      eng.effSynth.Name,
			Skeleton:  eng.synthSk.Name,
			Budget:    budget,
			Examples:  sy.fed,
			Status:    status.String(),
			Conflicts: conflicts,
			DIMACS:    data,
			Proof:     proof,
		}
	}

	for {
		if stop() {
			return nil, errCanceled
		}
		tb := time.Now()
		for _, ex := range env.examples.pending(sy.fed) {
			if stop() {
				return nil, errCanceled
			}
			if err := sy.addTestCase(ex.in, ex.out); err != nil {
				return nil, err
			}
			sy.fed++
		}
		encodeTime := time.Since(tb)
		t0 := time.Now()
		status := sy.solveAt(budget, stop)
		solveTime := time.Since(t0)
		st.SynthesisTime += solveTime
		capture(status)
		iter := IterationStats{
			Budget:     budget,
			Examples:   sy.fed,
			Status:     status.String(),
			EncodeTime: encodeTime,
			SolveTime:  solveTime,
			Solver:     sy.s.Metrics(),
		}
		if status == sat.Unsat {
			st.Iterations = append(st.Iterations, iter)
			return nil, errBudgetTooSmall // budget too small; climb the ladder
		}
		if status == sat.Unknown {
			// The only Unknown source here is the cancellation poll: an
			// interrupted solve reports interruption, never UNSAT.
			iter.Status = "canceled"
			st.Iterations = append(st.Iterations, iter)
			return nil, errCanceled
		}
		st.CEGISIterations++

		// Verification phase: search the synthesis-side spec for a
		// counterexample, and prove the program when the search finds none.
		cand := sy.extract(eng.effSynth, eng.synthSk)
		t1 := time.Now()
		cex, found, interrupted := env.ver.counterexample(cand, stop)
		var res *Result
		var err error
		if !found && !interrupted {
			var me *cert.MismatchError
			if res, err = eng.prove(sy); errors.Is(err, cert.ErrMismatch) {
				iter.Status = "refuted"
				st.Refuted++
				// The packet is a counterexample like the search's. Without
				// one the search confirms, the model could come back.
				if errors.As(err, &me) {
					cex, found = env.ver.confirm(cand, me.Packet)
				}
				if !found {
					err = errBudgetTooSmall
				}
			}
		}
		iter.VerifyTime = time.Since(t1)
		st.VerifyTime += iter.VerifyTime
		st.Iterations = append(st.Iterations, iter)
		switch {
		case interrupted:
			return nil, errCanceled
		case found:
			env.examples.add(cex)
			continue
		case errors.Is(err, errScalingMisled):
			o2 := eng.opts
			o2.Opt2BitWidthMin = false
			fallback := newSkeletonEngine(eng.spec, eng.effOrig, eng.effOrig, eng.origSk, eng.origSk, eng.profile, o2)
			res, sub, err := fallback.runLadder(ctx)
			if err != nil {
				st.Solver.Add(sub.Solver)
				st.Refuted += sub.Refuted
				return nil, err
			}
			// The fallback's program wins: adopt its figures (its solver
			// total included) and add this ladder's work so far.
			fb := res.Stats
			fb.SynthesisTime += st.SynthesisTime
			fb.VerifyTime += st.VerifyTime
			fb.CEGISIterations += st.CEGISIterations
			fb.BudgetsTried += st.BudgetsTried
			fb.Refuted += st.Refuted
			*st = fb
			return res, nil
		case err != nil:
			return nil, err
		}
		st.EntryBudget = budget
		st.SolverVars = sy.s.NumVars()
		st.TestCases = env.examples.size()
		return res, nil
	}
}

// prove decides a candidate the counterexample search found nothing
// against: cert.Walk walks the full-width program against the
// original effective spec (undoing Opt2 scaling). The post-optimized
// program is kept only if the walk proves it. Folding changes iteration
// counts, which at the unrolling bound K can shift an outcome, so
// otherwise the unoptimized program, laid out for the device, is walked
// next: a refutation's packet then refutes the model's own program. An
// Opt2 ladder's search examined only the scaled program, so a full-width
// program the walk does not prove reports errScalingMisled and an
// unscaled ladder takes over. On an unscaled ladder a refutation
// (cert.ErrMismatch) is returned; a walk that cannot decide leaves the
// search's verdict on this program standing.
func (eng *skeletonEngine) prove(sy *synthesizer) (*Result, error) {
	unoptimized := sy.extract(eng.spec, eng.origSk)
	final, err := postOptimize(unoptimized, eng.profile)
	if err != nil {
		// Post-optimization found a hard resource violation (e.g. too
		// many stages); a larger budget will not help.
		return nil, err
	}
	werr := cert.Walk(eng.effOrig, final)
	if werr != nil {
		final = unoptimized
		if eng.profile.Arch != hw.SingleTable {
			if final, err = layoutPipeline(final, eng.profile); err != nil {
				return nil, errBudgetTooSmall
			}
		}
		werr = cert.Walk(eng.effOrig, final)
	}
	switch {
	case werr != nil && eng.effSynth != eng.effOrig:
		return nil, errScalingMisled
	case errors.Is(werr, cert.ErrMismatch):
		return nil, werr
	}
	if err := eng.profile.Validate(final); err != nil {
		return nil, errBudgetTooSmall // exceeds device limits at this shape; try next budget
	}
	return &Result{Program: final, Resources: final.Resources(), walkErr: werr}, nil
}

// skeletonLowerBound computes the minimum total entry count any correct
// implementation of the skeleton can use: per skeleton state, the number
// of distinct implementation-level targets (skeleton-state classes plus
// accept/reject) its spec rules and defaults reach. Key-split copies
// beyond the canonical one contribute nothing (they may stay empty).
func skeletonLowerBound(spec *pir.Spec, sk *skeleton) int {
	// Map each spec state to the skeleton state class realizing it.
	class := map[int]int{}
	seenClass := map[string]bool{}
	for si, ss := range sk.States {
		if seenClass[ss.Name] {
			continue
		}
		seenClass[ss.Name] = true
		for _, sp := range ss.SpecStates {
			if _, ok := class[sp]; !ok {
				class[sp] = si
			}
		}
	}
	total := 0
	counted := map[string]bool{} // one contribution per spec-state group
	for _, ss := range sk.States {
		sig := fmt.Sprint(ss.SpecStates)
		if counted[sig] {
			continue // later key-split copies of the same spec states
		}
		counted[sig] = true
		// A key-split chain needs at least one entry per continuation level
		// on top of its per-target entries.
		levels := 0
		for _, other := range sk.States {
			if fmt.Sprint(other.SpecStates) == sig && other.ChainLevel > levels {
				levels = other.ChainLevel
			}
		}
		total += levels
		targets := map[int]bool{}
		const (
			tAccept = -1
			tReject = -2
		)
		add := func(t pir.Target) {
			switch t.Kind {
			case pir.Accept:
				targets[tAccept] = true
			case pir.Reject:
				targets[tReject] = true
			default:
				if c, ok := class[t.State]; ok {
					targets[c] = true
				} else {
					targets[tReject] = true // unreachable spec target
				}
			}
		}
		for _, sp := range ss.SpecStates {
			for _, r := range spec.States[sp].Rules {
				add(r.Next)
			}
			add(spec.States[sp].Default)
		}
		n := len(targets)
		if n < 1 {
			n = 1
		}
		total += n
	}
	return total
}

// scaleSpec implements Opt2 (§6.2): every field irrelevant to control flow
// is shrunk to 1 bit, shrinking the synthesis input space exponentially.
// The structural search result transfers back to the original spec because
// transition keys never touch irrelevant fields.
func scaleSpec(spec *pir.Spec) *pir.Spec {
	irr := map[string]bool{}
	for _, f := range spec.IrrelevantFields() {
		irr[f] = true
	}
	if len(irr) == 0 {
		return spec
	}
	fields := make([]pir.Field, len(spec.Fields))
	for i, f := range spec.Fields {
		fields[i] = f
		if irr[f.Name] {
			fields[i].Width = 1
		}
	}
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
	scaled, err := pir.New(spec.Name+"-scaled", fields, states)
	if err != nil {
		// Scaling can only fail if the original was malformed; fall back.
		return spec
	}
	return scaled
}

// sameStructure reports whether two skeleton portfolios made identical
// structural decisions (same subproblems, same states), so a model found
// on one transfers to the other.
func sameStructure(a, b []skeleton) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].States) != len(b[i].States) {
			return false
		}
		for j := range a[i].States {
			sa, sb := &a[i].States[j], &b[i].States[j]
			if sa.Name != sb.Name || sa.KeyWidth != sb.KeyWidth ||
				len(sa.Key) != len(sb.Key) || len(sa.Extracts) != len(sb.Extracts) {
				return false
			}
		}
	}
	return true
}

// DefaultUnroll is the unrolling bound K a compile uses for a loopy spec
// on a loop-free target when Options.MaxIterations is not positive.
const DefaultUnroll = 4

// unrollDepth resolves an Options.MaxIterations value to the unrolling
// bound a compile applies to loopy specs on loop-free targets.
func unrollDepth(maxIter int) int {
	if maxIter > 0 {
		return maxIter
	}
	return DefaultUnroll
}

// Unroll rewrites a loopy specification into the bounded loop-free form
// used when compiling for pipelined devices: loop states are replicated
// depth times and a deeper stack is rejected. It is exported so callers
// can state the bounded-equivalence contract explicitly (the compiled
// pipeline is equivalent to Unroll(spec, depth), not to the unbounded
// loop).
func Unroll(spec *pir.Spec, depth int) (*pir.Spec, error) {
	return unrollSpec(spec, depth)
}
