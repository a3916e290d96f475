package core_test

import (
	"testing"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/core"
	"parserhawk/internal/memo"
	"parserhawk/internal/tables"
)

// TestSingleWorkerContract pins what a one-worker compile does inside the
// portfolio scheduler: the caller runs every ladder itself and only asks
// for more work once its ladder is done, so it never launches a refuter
// probe, builds no clause pool, exports no clause, and neither reads nor
// writes the memo's tier-3 glue records. Large tran key on the scaled
// Tofino has several skeletons (its 16-bit key exceeds the 12-bit key
// limit), so there are siblings a probe could target.
func TestSingleWorkerContract(t *testing.T) {
	b, ok := benchdata.ByName("Large tran key")
	if !ok {
		t.Fatal("Large tran key not in the suite")
	}
	compile := func(workers int) (*core.Result, memo.Stats) {
		t.Helper()
		cache, err := memo.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Timeout = 60 * time.Second
		opts.MaxIterations = b.MaxIterations
		opts.Workers = workers
		opts.Memo = cache
		res, err := core.Compile(b.Spec, tables.TofinoScaled(), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, cache.Stats()
	}

	res, ms := compile(1)
	pf := res.Stats.Portfolio
	if pf.Workers != 1 || pf.LaddersRun < 1 {
		t.Errorf("portfolio ran with %d workers and %d ladders, want 1 worker and >= 1 ladder", pf.Workers, pf.LaddersRun)
	}
	if pf.RefutersRun != 0 || pf.ExchangePublished != 0 || res.Stats.Solver.ExportedClauses != 0 {
		t.Errorf("one worker probed or shared clauses: %d refuters, %d published, %d exported",
			pf.RefutersRun, pf.ExchangePublished, res.Stats.Solver.ExportedClauses)
	}
	if ms.T3Stores != 0 || ms.T3Hits+ms.T3Misses != 0 {
		t.Errorf("one worker touched tier 3: %d stores, %d lookups", ms.T3Stores, ms.T3Hits+ms.T3Misses)
	}

	// Control: at two workers the same compile builds pools and seeds them
	// from tier 3, so the tier-3 assertion above is not vacuous.
	if _, ms2 := compile(2); ms2.T3Hits+ms2.T3Misses == 0 {
		t.Errorf("two workers never consulted tier 3; the one-worker check proves nothing")
	}
}
