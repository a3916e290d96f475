package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
)

// hardSpec is a deliberately expensive synthesis problem for the naive
// mode: a 16-bit transition key gives the unoptimized encoding a 2^16
// constant domain per entry, so uncancelled compilation runs for a very
// long time (that observation is the paper's Table 3). Ten rules keep it
// hard as the solver gets faster: on a 2-vCPU x86 machine the naive
// compile of the first five alone finishes in about 90 ms, before the
// tests below cancel it, while all ten do not finish within 8 s.
func hardSpec(t *testing.T) *pir.Spec {
	t.Helper()
	return pir.MustNew("hard",
		[]pir.Field{
			{Name: "k", Width: 16},
			{Name: "a", Width: 4}, {Name: "b", Width: 4}, {Name: "c", Width: 4},
		},
		[]pir.State{
			{
				Name:     "Start",
				Extracts: []pir.Extract{{Field: "k"}},
				Key:      []pir.KeyPart{pir.WholeField("k", 16)},
				Rules: []pir.Rule{
					pir.ExactRule(0x8100, 16, pir.To(1)),
					pir.ExactRule(0x0800, 16, pir.To(2)),
					pir.ExactRule(0x86DD, 16, pir.To(3)),
					pir.ExactRule(0x0806, 16, pir.To(1)),
					pir.ExactRule(0x8847, 16, pir.To(2)),
					pir.ExactRule(0x88A8, 16, pir.To(3)),
					pir.ExactRule(0x9100, 16, pir.To(1)),
					pir.ExactRule(0x88CC, 16, pir.To(2)),
					pir.ExactRule(0x8848, 16, pir.To(3)),
					pir.ExactRule(0x88E5, 16, pir.To(1)),
				},
				Default: pir.AcceptTarget,
			},
			{Name: "N1", Extracts: []pir.Extract{{Field: "a"}}, Default: pir.AcceptTarget},
			{Name: "N2", Extracts: []pir.Extract{{Field: "b"}}, Default: pir.AcceptTarget},
			{Name: "N3", Extracts: []pir.Extract{{Field: "c"}}, Default: pir.AcceptTarget},
		})
}

// TestCompileTimeoutPrompt checks the tentpole property of the cancellable
// engine: a too-small budget on a hard (naive-mode) problem returns
// ErrTimeout promptly, because the deadline is threaded into the CDCL
// conflict loop and the verification sweeps rather than only being checked
// between CEGIS iterations. The naive hardSpec compilation runs far longer
// than the budget when allowed to; with a 100 ms budget it must abort
// within seconds.
func TestCompileTimeoutPrompt(t *testing.T) {
	spec := hardSpec(t)
	opts := NaiveOptions()
	opts.Timeout = 100 * time.Millisecond
	start := time.Now()
	_, err := Compile(spec, hw.Tofino(), opts)
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("finished within 100ms; machine too fast to observe timeout")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err=%v want ErrTimeout", err)
	}
	// Generous bound for slow CI machines: the point is "seconds, not the
	// minutes an uncancelled naive compile takes".
	if elapsed > 10*time.Second {
		t.Errorf("timeout honored only after %v; cancellation is not reaching the solver", elapsed)
	}
}

type cancelMode struct {
	name string
	opts Options
}

// cancelModes are the worker counts the cancellation tests run at: the
// naive mode on the caller's goroutine alone, and the same compile on a
// four-worker portfolio, where idle workers must drain the pending queue
// as canceled instead of starting ladders.
func cancelModes() []cancelMode {
	parallel := NaiveOptions()
	parallel.Workers = 4
	return []cancelMode{{"naive-1-worker", NaiveOptions()}, {"naive-4-workers", parallel}}
}

// TestCompileContextPreCanceled checks that an already-canceled context is
// reported as the context's error, not as a bogus ErrTimeout or
// ErrNoSolution.
func TestCompileContextPreCanceled(t *testing.T) {
	for _, m := range cancelModes() {
		t.Run(m.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := CompileContext(ctx, hardSpec(t), hw.Tofino(), m.opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err=%v want context.Canceled", err)
			}
		})
	}
}

// TestCompileContextCancelMidFlight cancels a long naive compilation from
// another goroutine and checks it aborts promptly with the context error.
func TestCompileContextCancelMidFlight(t *testing.T) {
	for _, m := range cancelModes() {
		t.Run(m.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(100 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			res, err := CompileContext(ctx, hardSpec(t), hw.Tofino(), m.opts)
			elapsed := time.Since(start)
			if err == nil {
				// The compile won the race against the cancel; nothing to
				// assert beyond basic sanity.
				if res == nil {
					t.Fatal("nil result with nil error")
				}
				t.Skip("compilation finished before the cancel fired")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err=%v want context.Canceled", err)
			}
			if elapsed > 10*time.Second {
				t.Errorf("cancel honored only after %v", elapsed)
			}
		})
	}
}

// TestStatsSolverCountersLiveAndMonotone compiles the Figure 3 example and
// checks the solver-level statistics: the aggregate counters are non-zero,
// the winning runner's per-iteration snapshots are monotone (they are
// cumulative for that runner's solver), and the aggregate dominates the
// winner's final snapshot (it also includes losing budget rungs and
// skeleton attempts).
func TestStatsSolverCountersLiveAndMonotone(t *testing.T) {
	spec := fig3Spec(t)
	res, err := Compile(spec, hw.Tofino(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Solver.Solves == 0 || st.Solver.Propagations == 0 ||
		st.Solver.Clauses == 0 || st.Solver.Gates == 0 || st.Solver.Vars == 0 {
		t.Fatalf("aggregate solver counters look dead: %+v", st.Solver)
	}
	if st.BudgetsTried < 1 {
		t.Errorf("BudgetsTried=%d want >=1", st.BudgetsTried)
	}
	if len(st.Iterations) == 0 {
		t.Fatal("no per-iteration trace recorded")
	}
	var prev SolverStats
	for i, it := range st.Iterations {
		s := it.Solver
		if s.Decisions < prev.Decisions || s.Propagations < prev.Propagations ||
			s.Conflicts < prev.Conflicts || s.LearnedClauses < prev.LearnedClauses ||
			s.Clauses < prev.Clauses || s.Gates < prev.Gates || s.Vars < prev.Vars {
			t.Errorf("iteration %d snapshot not monotone: %+v after %+v", i, s, prev)
		}
		// Snapshots are cumulative for the rung's solver; the winning rung's
		// persistent session may enter with solves from earlier rungs, so the
		// first iteration only needs Solves >= 1, later ones exactly +1.
		if i == 0 && s.Solves < 1 {
			t.Errorf("iteration 0 snapshot has no solve: %+v", s)
		}
		if i > 0 && s.Solves != prev.Solves+1 {
			t.Errorf("iteration %d solve count %d, want %d", i, s.Solves, prev.Solves+1)
		}
		if it.Budget != st.EntryBudget {
			t.Errorf("iteration %d budget=%d, trace should be the winning runner's (budget %d)",
				i, it.Budget, st.EntryBudget)
		}
		prev = s
	}
	last := st.Iterations[len(st.Iterations)-1]
	if last.Status != "sat" {
		t.Errorf("winning runner's final iteration status=%q want sat", last.Status)
	}
	if st.Solver.Propagations < last.Solver.Propagations || st.Solver.Solves < last.Solver.Solves {
		t.Errorf("aggregate %+v smaller than the winner's own trace %+v", st.Solver, last.Solver)
	}
	if st.CEGISIterations == 0 || st.TestCases == 0 {
		t.Errorf("CEGIS bookkeeping dead: iterations=%d examples=%d", st.CEGISIterations, st.TestCases)
	}
}
