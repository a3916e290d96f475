package core

import (
	"context"
	"sync"

	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
)

// The portfolio scheduler is how every compile runs its skeletons:
// candidate skeletons form a work queue drained by the resolved worker
// count, each worker claiming the lowest pending skeleton and climbing its
// ladder over that ladder's own persistent solver. The calling goroutine
// is worker 0, so a one-worker compile never leaves it.
//
// Determinism contract. The scheduler may only act on facts that hold
// under every schedule:
//   - A ladder's search is never perturbed: ladders share nothing, so each
//     ladder's outcome is the same function of (spec, skeleton, options)
//     it is at -workers 1.
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

// attemptOut is one skeleton attempt's contribution to the reduction.
type attemptOut struct {
	res   *Result
	stats Stats // the ladder's, for its Solver and Refuted totals
	err   error
}

type portfolioInput struct {
	spec, effOrig, effSynth *pir.Spec
	origSks, synthSks       []skeleton
	profile                 hw.Profile
	opts                    Options
	workers                 int
	provablyCheapest        func(*Result) bool
}

type skelPhase int

const (
	skelPending skelPhase = iota
	skelRunning
	skelDone
	skelSkipped // never started: made moot by a provably-cheapest result
)

type portfolio struct {
	in  portfolioInput
	ctx context.Context

	mu      sync.Mutex
	phase   []skelPhase
	ctxs    []context.Context
	cancels []context.CancelFunc
	outs    []*attemptOut
	cursor  int // first index that may still be pending

	stats PortfolioStats
}

// runPortfolio drains the skeleton queue on in.workers workers — the
// caller plus in.workers-1 goroutines — and returns the started attempts in
// skeleton-index order (skipped skeletons contribute nothing).
func runPortfolio(ctx context.Context, in portfolioInput) ([]attemptOut, PortfolioStats) {
	n := len(in.origSks)
	p := &portfolio{
		in:      in,
		ctx:     ctx,
		phase:   make([]skelPhase, n),
		ctxs:    make([]context.Context, n),
		cancels: make([]context.CancelFunc, n),
		outs:    make([]*attemptOut, n),
	}
	p.stats.Workers = in.workers
	for i := 0; i < n; i++ {
		p.ctxs[i], p.cancels[i] = context.WithCancel(ctx)
	}

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
	return outs, p.stats
}

// work runs ladders until the queue holds no pending skeleton.
func (p *portfolio) work() {
	for idx := p.take(); idx >= 0; idx = p.take() {
		p.runLadder(idx)
	}
}

// take claims the lowest-index pending skeleton, or returns -1 when none is
// left. A dead compile context drains the still-pending skeletons as
// canceled attempts without running them.
func (p *portfolio) take() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for ; p.cursor < len(p.phase); p.cursor++ {
		i := p.cursor
		if p.phase[i] != skelPending {
			continue
		}
		if p.ctx.Err() != nil {
			p.phase[i] = skelDone
			p.outs[i] = &attemptOut{err: errCanceled}
			continue
		}
		p.cursor++
		p.phase[i] = skelRunning
		p.stats.LaddersRun++
		return i
	}
	return -1
}

func (p *portfolio) runLadder(idx int) {
	in := &p.in
	eng := newSkeletonEngine(in.spec, in.effOrig, in.effSynth, &in.origSks[idx], &in.synthSks[idx], in.profile, in.opts)
	res, st, err := eng.runLadder(p.ctxs[idx])

	p.mu.Lock()
	defer p.mu.Unlock()
	p.phase[idx] = skelDone
	p.outs[idx] = &attemptOut{res: res, stats: st, err: err}
	if err == nil {
		p.onSuccess(idx, res)
	}
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
			p.stats.SkeletonsDominated++
		case skelRunning:
			if p.ctxs[j].Err() == nil {
				p.cancels[j]()
				p.stats.SkeletonsDominated++
			}
		}
	}
}
