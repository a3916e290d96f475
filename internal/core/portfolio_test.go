package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/hw"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
)

// portfolioRun is the schedule-invariant fingerprint of one compilation:
// the verdict, and on success the exact program and its resource shape.
// The portfolio's determinism contract (see portfolio.go) promises this
// fingerprint is the same function of (spec, profile, options) at every
// worker count, so the tests below compare it bit for bit.
type portfolioRun struct {
	err     error
	program string
	entries int
	stages  int
	budget  int
	// ladders is scheduling telemetry, not part of the fingerprint: how
	// many skeleton ladders the portfolio actually started.
	ladders int
}

func compileAtWorkers(t *testing.T, spec *pir.Spec, profile hw.Profile, workers int) portfolioRun {
	t.Helper()
	opts := DefaultOptions()
	opts.Timeout = 60 * time.Second
	opts.Workers = workers
	res, err := Compile(spec, profile, opts)
	out := portfolioRun{err: err}
	if err != nil {
		return out
	}
	out.program = fmt.Sprint(res.Program)
	out.entries = res.Resources.Entries
	out.stages = res.Resources.Stages
	out.budget = res.Stats.EntryBudget
	out.ladders = res.Stats.Portfolio.LaddersRun
	if res.Stats.Portfolio.Workers != workers {
		t.Errorf("%s on %s: Stats.Portfolio.Workers = %d, want %d",
			spec.Name, profile.Name, res.Stats.Portfolio.Workers, workers)
	}
	return out
}

// checkIdentical asserts two runs of the same compilation agree on verdict,
// entry table, and stage count. Timeouts are resource exhaustion, not a
// verdict, and make the comparison inconclusive.
func checkIdentical(t *testing.T, label string, base, got portfolioRun) {
	t.Helper()
	if errors.Is(base.err, ErrTimeout) || errors.Is(got.err, ErrTimeout) {
		t.Logf("%s: inconclusive, timeout (base err=%v, got err=%v)", label, base.err, got.err)
		return
	}
	if (base.err == nil) != (got.err == nil) {
		t.Fatalf("%s: verdicts diverge: base err=%v, got err=%v", label, base.err, got.err)
	}
	if base.err != nil {
		if base.err.Error() != got.err.Error() {
			t.Fatalf("%s: failure reasons diverge: base=%v got=%v", label, base.err, got.err)
		}
		return
	}
	if base.program != got.program {
		t.Fatalf("%s: entry tables diverge:\nbase:\n%s\ngot:\n%s", label, base.program, got.program)
	}
	if base.entries != got.entries || base.stages != got.stages || base.budget != got.budget {
		t.Fatalf("%s: resources diverge: base=(%d entries, %d stages, budget %d) got=(%d entries, %d stages, budget %d)",
			label, base.entries, base.stages, base.budget, got.entries, got.stages, got.budget)
	}
}

func exampleSpecs(t *testing.T) []*pir.Spec {
	t.Helper()
	var specs []*pir.Spec
	root := filepath.Join("..", "..", "examples")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || filepath.Ext(path) != ".p4" {
			return err
		}
		src, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		spec, perr := p4.ParseSpec(string(src))
		if perr != nil {
			t.Fatalf("%s: %v", path, perr)
		}
		specs = append(specs, spec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no .p4 specs found under examples/")
	}
	return specs
}

// TestPortfolioDeterminismOverExampleCorpus compiles every example spec at
// -workers 1, 2, and 8 on both device families and requires identical
// verdicts, entry tables, and stage counts. The -workers 1 run climbs every
// ladder in index order on one goroutine, while the 2- and 8-worker runs
// race ladders and cancel higher-index siblings through the
// provably-cheapest rule, so this pins that neither scheduling nor
// domination ever changes an outcome.
func TestPortfolioDeterminismOverExampleCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("portfolio determinism sweep")
	}
	profiles := []hw.Profile{hw.Tofino(), hw.IPU()}
	for _, spec := range exampleSpecs(t) {
		for _, profile := range profiles {
			base := compileAtWorkers(t, spec, profile, 1)
			for _, w := range []int{2, 8} {
				got := compileAtWorkers(t, spec, profile, w)
				checkIdentical(t, fmt.Sprintf("%s on %s at workers=%d", spec.Name, profile.Name, w), base, got)
			}
		}
	}
}

// TestPortfolioDeterminismOverRandomSpecs is the seeded-random variant of
// the corpus sweep.
func TestPortfolioDeterminismOverRandomSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("portfolio determinism sweep")
	}
	rng := rand.New(rand.NewSource(20260806))
	profiles := []hw.Profile{hw.Tofino(), hw.Parameterized(2, 12, 64)}
	for i := 0; i < 10; i++ {
		spec := randomSpec(rng, 7000+i)
		for _, profile := range profiles {
			base := compileAtWorkers(t, spec, profile, 1)
			got := compileAtWorkers(t, spec, profile, 4)
			checkIdentical(t, fmt.Sprintf("%s on %s at workers=4", spec.Name, profile.Name), base, got)
		}
	}
}

// TestPortfolioUnderContention is the fast concurrency smoke the -race
// job targets: wide-key benchmarks whose split variants give the scheduler
// several skeletons and multi-rung ladders, compiled at -workers 8 so
// ladders and the shared bound all run at once, checked against the
// one-worker fingerprint.
func TestPortfolioUnderContention(t *testing.T) {
	// The scaled Tofino profile of the evaluation harness: its 12-bit key
	// limit forces key splitting, which is what multiplies the skeletons.
	profile := hw.Profile{
		Name:           "tofino-scaled",
		Arch:           hw.SingleTable,
		KeyLimit:       12,
		TCAMLimit:      24,
		LookaheadLimit: 24,
		ExtractLimit:   64,
	}
	for _, name := range []string{"Large tran key", "Multi-keys (diff pkt fields)"} {
		b, ok := benchdata.ByName(name)
		if !ok {
			t.Fatalf("benchmark %q not in the suite", name)
		}
		base := compileAtWorkers(t, b.Spec, profile, 1)
		if base.err != nil {
			t.Fatalf("%s: one-worker compile failed: %v", name, base.err)
		}
		for rep := 0; rep < 2; rep++ {
			got := compileAtWorkers(t, b.Spec, profile, 8)
			checkIdentical(t, fmt.Sprintf("%s rep %d", name, rep), base, got)
			if got.err == nil && got.ladders < 1 {
				t.Errorf("%s rep %d: portfolio ran no ladders", name, rep)
			}
			t.Logf("%s rep %d: %d ladders", name, rep, got.ladders)
		}
	}
}
