package core

import (
	"context"
	"errors"
	"sync"

	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
	"parserhawk/internal/sat"
)

// The portfolio scheduler is how every compile runs its skeletons:
// candidate skeletons form a work queue drained by the resolved worker
// count, each ladder owning its own persistent solver. The calling
// goroutine is worker 0, so a one-worker compile never leaves it. With
// more than one worker, idle workers run refuter probes
// (skeletonEngine.refuteStatus) against still-running ladders, sharing
// glue clauses with them through a per-skeleton sat.Exchange. One worker
// never probes (it only asks for a job once its ladder is done), so it
// gets no pools either.
//
// Determinism contract. The scheduler may only act on facts that hold
// under every schedule:
//   - An authoritative ladder's search is never perturbed: its solver
//     exports clauses but imports nothing, so each ladder's outcome is the
//     same function of (spec, skeleton, options) it is at -workers 1.
//   - A refuter UNSAT at the ladder cap with only the seed examples proves
//     the skeleton infeasible at every rung under every example set, so
//     recording ErrNoSolution and cancelling the ladder reproduces the
//     verdict the ladder would have reached.
//   - The shared best-cost bound cancels dominated work only through the
//     provably-cheapest rule, and the reduction is truncated to the index
//     prefix a one-worker run visits (see onSuccess and runPortfolio).
//     Per-skeleton entry lower bounds must NOT prune siblings, even though
//     it looks safe: post-synthesis folding (foldSingletonStates) can
//     shrink a model below its skeleton's pre-fold lower bound, so a
//     "dominated" skeleton can still win the reduction. One worker runs
//     every skeleton up to the first provably-cheapest result for exactly
//     this reason.
//   - The reduction itself runs in skeleton-index order with a strict
//     "cheaper" comparison, so ties resolve to the lowest index no matter
//     which ladder finished first.

// ladderProducerID is the Exchange producer id reserved for a skeleton's
// authoritative ladder; refuter probes use 1+ordinal.
const ladderProducerID = 0

// maxRefutersPerSkeleton bounds concurrent refuter probes per ladder; more
// clones of the same two-example formula hit diminishing returns fast.
const maxRefutersPerSkeleton = 2

// attemptOut is one skeleton attempt's contribution to the reduction.
type attemptOut struct {
	res    *Result
	solver SolverStats
	err    error
}

type portfolioInput struct {
	spec, effOrig, effSynth *pir.Spec
	origSks, synthSks       []skeleton
	profile                 hw.Profile
	opts                    Options
	workers                 int
	provablyCheapest        func(*Result) bool

	// memo/keys, when both non-nil, enable the cross-compile tiers: keys
	// holds one tier-2 and one tier-3 key per skeleton (empty string =
	// unkeyable, skip memoization for that skeleton). See internal/core/memo.go.
	memo Memo
	keys *memoKeys
}

type skelPhase int

const (
	skelPending skelPhase = iota
	skelRunning
	skelDone
	skelSkipped // never started: dominated or made moot by a cheapest result
)

type portfolio struct {
	in  portfolioInput
	ctx context.Context

	mu   sync.Mutex
	cond *sync.Cond

	engs    []*skeletonEngine
	lows    []int
	caps    []int
	phase   []skelPhase
	ctxs    []context.Context
	cancels []context.CancelFunc
	outs    []*attemptOut
	pools   []*sat.Exchange

	cursor      int // first index that may still be pending
	pendingN    int
	laddersLive int
	refLive     []int  // concurrent refuters per skeleton
	refSeq      []int  // refuters ever launched per skeleton
	noMoreRef   []bool // a probe came back SAT; re-probing cannot help
	refuted     []bool

	stats PortfolioStats
}

// runPortfolio drains the skeleton queue on in.workers workers — the
// caller plus in.workers-1 goroutines — and returns the started attempts in
// skeleton-index order (skipped skeletons contribute nothing).
func runPortfolio(ctx context.Context, in portfolioInput) ([]attemptOut, PortfolioStats) {
	n := len(in.origSks)
	p := &portfolio{
		in:        in,
		ctx:       ctx,
		engs:      make([]*skeletonEngine, n),
		lows:      make([]int, n),
		caps:      make([]int, n),
		phase:     make([]skelPhase, n),
		ctxs:      make([]context.Context, n),
		cancels:   make([]context.CancelFunc, n),
		outs:      make([]*attemptOut, n),
		pools:     make([]*sat.Exchange, n),
		refLive:   make([]int, n),
		refSeq:    make([]int, n),
		noMoreRef: make([]bool, n),
		refuted:   make([]bool, n),
		pendingN:  n,
	}
	p.cond = sync.NewCond(&p.mu)
	p.stats.Workers = in.workers
	for i := 0; i < n; i++ {
		p.engs[i], p.lows[i], p.caps[i] = newSkeletonEngine(
			in.spec, in.effOrig, in.effSynth, &in.origSks[i], &in.synthSks[i], in.profile, in.opts)
		p.ctxs[i], p.cancels[i] = context.WithCancel(ctx)
		// Tier-2 memo hit: a previous compile proved this skeleton's cap
		// rung solver-UNSAT, so its ladder can only end in ErrNoSolution —
		// record that verdict without starting it. The attempt set (and
		// hence the reduction) is identical to the un-memoized run.
		if p.memoKey(i, tierUnsat) != "" && in.memo.SkeletonUnsat(p.memoKey(i, tierUnsat)) {
			p.phase[i] = skelDone
			p.outs[i] = &attemptOut{err: ErrNoSolution}
			p.pendingN--
			p.stats.SkeletonsMemoSkipped++
			continue
		}
		if in.workers > 1 {
			p.pools[i] = sat.NewExchange(0)
			p.engs[i].exchange = p.pools[i]
			// Tier-3 warm start: seed the pool with glue clauses a previous
			// run of this exact formula exported. Ladders attach export-only,
			// so seeding only ever accelerates refuter probes — the
			// authoritative search is untouched.
			if key := p.memoKey(i, tierGlue); key != "" {
				p.pools[i].Seed(in.memo.GlueClauses(key))
			}
		}
	}

	// Wake waiting workers when the compile context dies, so pending work
	// drains as canceled instead of blocking on a ladder that will never
	// broadcast.
	watcherDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		case <-watcherDone:
		}
	}()

	var wg sync.WaitGroup
	for w := 1; w < in.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	p.work()
	wg.Wait()
	close(watcherDone)
	for i := range p.cancels {
		p.cancels[i]()
	}

	// Truncate to the prefix a one-worker run visits: it stops after the
	// first (lowest-index) provably-cheapest success, so results beyond
	// that index — even ones whose ladders happened to finish first — must
	// not reach the reduction. Every index up to the cut has run to
	// completion (cancellation only ever targets higher indices), so the
	// prefix is exactly the one-worker attempt set.
	cut := n
	for i := 0; i < n; i++ {
		if o := p.outs[i]; o != nil && o.err == nil && in.provablyCheapest(o.res) {
			cut = i + 1
			break
		}
	}
	var outs []attemptOut
	for i := 0; i < cut; i++ {
		if p.outs[i] != nil {
			outs = append(outs, *p.outs[i])
		}
	}
	for i, pool := range p.pools {
		st := pool.Stats()
		p.stats.ExchangePublished += st.Published
		p.stats.ExchangeCollected += st.Collected
		p.stats.ExchangeDropped += st.Dropped
		p.stats.ExchangeSeeded += st.Seeded
		// Tier-3 store: persist the clauses this run learned at or below the
		// seed-example epoch — the only ones a future run's consumers are
		// guaranteed to have the examples for.
		if key := p.memoKey(i, tierGlue); key != "" {
			if cls := pool.Export(seedExampleCount); len(cls) > 0 {
				in.memo.RecordGlueClauses(key, cls)
			}
		}
	}
	return outs, p.stats
}

// Memo tier selectors for memoKey.
const (
	tierUnsat = 2
	tierGlue  = 3
)

// memoKey returns skeleton i's key in the given memo tier, or "" when
// memoization does not apply (no memo attached, spec unkeyable, or the
// skeleton itself unkeyable).
func (p *portfolio) memoKey(i int, tier int) string {
	if p.in.memo == nil || p.in.keys == nil {
		return ""
	}
	if tier == tierUnsat {
		return p.in.keys.tier2[i]
	}
	return p.in.keys.tier3[i]
}

// recordUnsat files skeleton idx's proven cap-level UNSAT in the tier-2
// memo. Lock may be held; the memo synchronizes itself.
func (p *portfolio) recordUnsat(idx int) {
	if key := p.memoKey(idx, tierUnsat); key != "" {
		p.in.memo.RecordSkeletonUnsat(key)
	}
}

type jobKind int

const (
	jobNone jobKind = iota
	jobLadder
	jobRefuter
)

func (p *portfolio) work() {
	for {
		kind, idx, ord := p.nextJob()
		switch kind {
		case jobNone:
			return
		case jobLadder:
			p.runLadder(idx)
		case jobRefuter:
			p.runRefuter(idx, ord)
		}
	}
}

// nextJob blocks until a ladder or refuter assignment is available, or
// until the portfolio has nothing left to do.
func (p *portfolio) nextJob() (jobKind, int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		// A dead compile context drains the still-pending ladders as
		// canceled attempts without running them.
		if p.ctx.Err() != nil && p.pendingN > 0 {
			for i := p.cursor; i < len(p.phase); i++ {
				if p.phase[i] == skelPending {
					p.phase[i] = skelDone
					p.outs[i] = &attemptOut{err: errCanceled}
					p.pendingN--
				}
			}
		}
		if i := p.takeLadder(); i >= 0 {
			return jobLadder, i, 0
		}
		if p.pendingN == 0 && p.laddersLive == 0 {
			return jobNone, 0, 0
		}
		if t := p.refuterTarget(); t >= 0 {
			p.refLive[t]++
			ord := p.refSeq[t]
			p.refSeq[t]++
			p.stats.RefutersRun++
			return jobRefuter, t, ord
		}
		p.cond.Wait()
	}
}

// takeLadder claims the lowest-index pending skeleton, if any. Lock held.
func (p *portfolio) takeLadder() int {
	for ; p.cursor < len(p.phase); p.cursor++ {
		if p.phase[p.cursor] == skelPending {
			i := p.cursor
			p.cursor++
			p.phase[i] = skelRunning
			p.pendingN--
			p.laddersLive++
			p.stats.LaddersRun++
			return i
		}
	}
	return -1
}

// refuterTarget picks the running ladder most worth probing: the one with
// the widest budget span (the most rungs a single cap-level UNSAT would
// skip), lowest index on ties. Single-rung ladders are not probed — the
// probe would just duplicate the ladder's only query. Lock held.
func (p *portfolio) refuterTarget() int {
	best, span := -1, 0
	for i := range p.phase {
		if p.phase[i] != skelRunning || p.refuted[i] || p.noMoreRef[i] {
			continue
		}
		if p.refLive[i] >= maxRefutersPerSkeleton {
			continue
		}
		if s := p.caps[i] - p.lows[i]; s > 0 && (best < 0 || s > span) {
			best, span = i, s
		}
	}
	return best
}

func (p *portfolio) runLadder(idx int) {
	eng := p.engs[idx]
	res, solver, err := eng.runLadder(p.ctxs[idx], p.lows[idx], p.caps[idx])

	p.mu.Lock()
	defer p.mu.Unlock()
	p.laddersLive--
	if p.phase[idx] == skelRunning {
		p.phase[idx] = skelDone
	}
	p.cancels[idx]() // this skeleton's refuters have nothing left to prove
	if p.outs[idx] != nil {
		// A refuter settled this skeleton's verdict first (ErrNoSolution);
		// keep it and fold the canceled ladder's effort in.
		p.outs[idx].solver.Add(solver)
	} else {
		p.outs[idx] = &attemptOut{res: res, solver: solver, err: err}
		if err == nil {
			p.onSuccess(idx, res)
		} else if errors.Is(err, ErrNoSolution) && eng.capUnsat {
			p.recordUnsat(idx)
		}
	}
	p.cond.Broadcast()
}

// onSuccess applies the shared best-cost bound after a ladder win: a result
// at the portfolio's entry lower bound cancels every higher-index sibling.
// Lock held.
//
// Only higher-index work is dropped, and lower-index ladders run to
// completion: because skeletons are claimed in index order, every index
// ≤ idx has already started, and the collection step truncates the
// reduction to the prefix ending at the lowest provably-cheapest index —
// exactly the set of attempts -workers 1 performs. A skeleton whose result
// is already in (phase done) but whose index is beyond that prefix is
// discarded there, not here, so the outcome does not depend on whether its
// ladder happened to beat the winner to the finish line.
func (p *portfolio) onSuccess(idx int, res *Result) {
	if !p.in.provablyCheapest(res) {
		return
	}
	for j := idx + 1; j < len(p.phase); j++ {
		switch p.phase[j] {
		case skelPending:
			p.phase[j] = skelSkipped
			p.pendingN--
			p.stats.SkeletonsDominated++
		case skelRunning:
			if p.ctxs[j].Err() == nil {
				p.cancels[j]()
				p.stats.SkeletonsDominated++
			}
		}
	}
}

func (p *portfolio) runRefuter(idx, ord int) {
	seed := p.in.opts.Seed + int64(1+idx*131+ord*17)
	status, solver := p.engs[idx].refuteStatus(p.ctxs[idx], p.caps[idx], seed, p.pools[idx], 1+ord)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.refLive[idx]--
	p.stats.RefuterEffort.Add(solver)
	switch status {
	case sat.Sat:
		// The two-example formula is satisfiable at the cap: no clone of it
		// can ever answer UNSAT, so stop probing this skeleton.
		p.noMoreRef[idx] = true
	case sat.Unsat:
		if !p.refuted[idx] {
			p.refuted[idx] = true
			p.stats.SkeletonsRefuted++
			if p.outs[idx] == nil {
				// The verdict the ladder would have ground out rung by rung.
				p.outs[idx] = &attemptOut{err: ErrNoSolution}
			}
			p.cancels[idx]()
			// A refuter kill is a genuine solver UNSAT at the cap (strict
			// DRAT-checked when proofs are on) — exactly the tier-2 fact.
			p.recordUnsat(idx)
		}
	}
	p.cond.Broadcast()
}
