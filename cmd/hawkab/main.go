// Command hawkab compares two hawkbench -stats runs of the same benchmark
// slice — typically a build under test against a reference (an earlier
// build, or the checked-in BENCH_baseline.json) — and answers "did this
// change alter any outcome, and what did it do to wall time and solver
// effort":
//
//	hawkbench -table 3 -filter 'Parse,Deep' -timeout 60s -workers 1 -stats after.json
//	hawkab after.json BENCH_baseline.json
//
// hawkab exits nonzero when the two runs disagree on any compilation
// outcome — a different OK/failure verdict or a different entry or stage
// count on any benchmark — or when the first file's total wall time
// exceeds the second's beyond the tolerance. The verdict table reports
// the solver-effort movement (conflicts, propagations, learned clauses
// and their literals) alongside the wall-time and CNF-clause comparisons.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"parserhawk/internal/tables"
)

func main() {
	var (
		maxSlow = flag.Float64("max-slowdown", 1.25, "fail when the first file's total seconds exceed the second's times this factor")
		slack   = flag.Float64("slack", 2.0, "absolute seconds of slowdown always tolerated (absorbs timer noise on fast slices)")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: hawkab [flags] after.json before.json")
		flag.Usage()
		os.Exit(2)
	}

	aRuns, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	bRuns, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	const aLabel, bLabel = "after", "before"

	am, bm := index(aRuns), index(bRuns)
	var keys []string
	for k := range am {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(am) != len(bm) {
		fatalf("hawkab: run sets differ: %d %s vs %d %s records", len(am), aLabel, len(bm), bLabel)
	}

	bad := 0
	var aTot, bTot totals
	for _, k := range keys {
		a, b := am[k], bm[k]
		if b == nil {
			fmt.Fprintf(os.Stderr, "hawkab: %s: present only in the %s run\n", k, aLabel)
			bad++
			continue
		}
		if a.OK != b.OK {
			fmt.Fprintf(os.Stderr, "hawkab: %s: verdict changed: %s ok=%v, %s ok=%v (%s / %s)\n",
				k, aLabel, a.OK, bLabel, b.OK, a.Error, b.Error)
			bad++
		} else if a.OK && (a.Entries != b.Entries || a.Stages != b.Stages) {
			fmt.Fprintf(os.Stderr, "hawkab: %s: result changed: %s %d entries/%d stages, %s %d entries/%d stages\n",
				k, aLabel, a.Entries, a.Stages, bLabel, b.Entries, b.Stages)
			bad++
		}
		aTot.add(a)
		bTot.add(b)
	}

	// The verdict table: outcome identity plus the wall-time, CNF-size,
	// and solver-effort movement between the two runs.
	fmt.Printf("runs compared:     %d\n", len(keys))
	fmt.Printf("%-18s %14s %14s %8s\n", "metric", aLabel, bLabel, "ratio")
	row := func(name string, a, b int64) {
		fmt.Printf("%-18s %14d %14d %7.2fx\n", name, a, b, ratio(float64(a), float64(b)))
	}
	fmt.Printf("%-18s %14.2f %14.2f %7.2fx\n", "wall time (s)", aTot.seconds, bTot.seconds, ratio(aTot.seconds, bTot.seconds))
	row("conflicts", aTot.conflicts, bTot.conflicts)
	row("propagations", aTot.propagations, bTot.propagations)
	row("learned clauses", aTot.learned, bTot.learned)
	row("learned literals", aTot.learnedLits, bTot.learnedLits)
	row("CNF clauses", aTot.clauses, bTot.clauses)
	fmt.Printf("learned retained:  %d clauses carried across solves (%s run)\n", aTot.retained, aLabel)
	fmt.Printf("cons-cache hits:   %d gates deduplicated (%s run)\n", aTot.consHits, aLabel)

	if bad > 0 {
		fatalf("hawkab: FAIL: %d run(s) changed outcome between %s and %s", bad, aLabel, bLabel)
	}
	if aTot.seconds > bTot.seconds**maxSlow+*slack {
		fatalf("hawkab: FAIL: %s run is %.2fx slower than %s (limit %.2fx + %.1fs slack)",
			aLabel, ratio(aTot.seconds, bTot.seconds), bLabel, *maxSlow, *slack)
	}
	fmt.Println("hawkab: OK: identical outcomes, within the time budget")
}

// totals accumulates one run set's wall time and solver effort.
type totals struct {
	seconds      float64
	conflicts    int64
	propagations int64
	learned      int64
	learnedLits  int64
	clauses      int64
	retained     int64
	consHits     int64
}

func (t *totals) add(r *tables.RunStats) {
	t.seconds += r.Seconds
	t.conflicts += r.Stats.Solver.Conflicts
	t.propagations += r.Stats.Solver.Propagations
	t.learned += r.Stats.Solver.LearnedClauses
	t.learnedLits += r.Stats.Solver.LearnedLiterals
	t.clauses += r.Stats.Solver.Clauses
	t.retained += r.Stats.Solver.RetainedClauses
	t.consHits += r.Stats.Solver.ConsHits
}

func load(path string) ([]tables.RunStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hawkab: %w", err)
	}
	runs, err := tables.DecodeRunStats(data)
	if err != nil {
		return nil, fmt.Errorf("hawkab: %s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("hawkab: %s: no runs recorded", path)
	}
	return runs, nil
}

func index(runs []tables.RunStats) map[string]*tables.RunStats {
	m := make(map[string]*tables.RunStats, len(runs))
	for i := range runs {
		r := &runs[i]
		m[fmt.Sprintf("%s/%s/%s", r.Program, r.Target, r.Mode)] = r
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
