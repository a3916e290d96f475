package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/tables"
)

// encodingPin is what TestEncodingPinned fixes about one compile: a digest
// of every SAT query it dumped and the solver counters that follow from
// the CNF and the search over it.
type encodingPin struct {
	queries                            int
	digest                             string // first 16 hex digits, see queryDigest
	vars, clauses, gates               int64
	conflicts, propagations, decisions int64
}

// suiteBench returns the Table 3 or wire-scale benchmark with the given
// name.
func suiteBench(tb testing.TB, name string) benchdata.Benchmark {
	tb.Helper()
	for _, b := range append(benchdata.All(), benchdata.WireScale()...) {
		if b.Name() == name {
			return b
		}
	}
	tb.Fatalf("no benchmark %q", name)
	return benchdata.Benchmark{}
}

// queryDigest folds the dumps into one SHA-256: each dump contributes a
// line naming its skeleton, rung, example count and status plus the
// SHA-256 of its DIMACS text, and the lines are sorted so the digest does
// not depend on the order the sink saw them in.
func queryDigest(dumps []core.QueryDump) string {
	lines := make([]string, len(dumps))
	for i, q := range dumps {
		sum := sha256.Sum256(q.DIMACS)
		lines[i] = fmt.Sprintf("%s %d %d %s %x", q.Skeleton, q.Budget, q.Examples, q.Status, sum)
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// TestEncodingPinned pins the CNF the synthesizer builds, clause for
// clause, and the search the solver runs over it, on four fast cells: a
// multi-rung ladder, a loopy spec unrolled for a single-table device, a
// wire-scale parser, and a naive (Orig) compile. The query each budget
// rung dumps to Options.QuerySink (its hardest solve) is hashed, and the
// variable, clause, gate, conflict, propagation and decision counts are
// compared with constants recorded when the encoder or the solver's search
// last changed. A change that only makes encoding cheaper must leave all
// of them alone. One that changes the circuit on purpose (such as folding
// forbidden transition targets to constant false, or n-ary OR gates,
// ROADMAP item 4) re-records them and says why. So does a change to the
// search (such as learnt-clause minimization): the solver then finds
// other models, CEGIS adds other counterexamples, and the pins whose
// examples moved dump other queries, with other vars, clauses and gates
// from the same encoder.
func TestEncodingPinned(t *testing.T) {
	cells := []struct {
		bench   string
		profile hw.Profile
		naive   bool
		want    encodingPin
	}{
		{"Multi-keys (diff pkt fields)", tables.TofinoScaled(), false,
			encodingPin{2, "b80ba44a95b4b5d5", 957, 2701, 831, 22, 5705, 533}},
		{"Parse MPLS", tables.TofinoScaled(), false,
			encodingPin{1, "6ddb3bf4c35ba229", 2939, 8787, 2893, 6, 3965, 32}},
		{"Wire Large tran key", hw.Tofino(), false,
			encodingPin{1, "9250b0fe3e9e0f11", 3613, 10536, 3434, 8, 54690, 3412}},
		{"Deep SRv6", tables.IPUScaled(), true,
			encodingPin{11, "204d1c08d1339db8", 6990, 20492, 6583, 533, 272392, 8568}},
	}
	for _, c := range cells {
		t.Run(c.bench+"@"+c.profile.Name, func(t *testing.T) {
			bench := suiteBench(t, c.bench)
			opts := core.DefaultOptions()
			if c.naive {
				opts = core.NaiveOptions()
			}
			opts.Timeout = 60 * time.Second
			opts.MaxIterations = bench.MaxIterations
			opts.Workers = 1
			var dumps []core.QueryDump
			opts.QuerySink = func(q core.QueryDump) { dumps = append(dumps, q) }
			res, err := core.Compile(bench.Spec, c.profile, opts)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats.Solver
			got := encodingPin{
				queries: len(dumps), digest: queryDigest(dumps),
				vars: s.Vars, clauses: s.Clauses, gates: s.Gates,
				conflicts: s.Conflicts, propagations: s.Propagations, decisions: s.Decisions,
			}
			if got != c.want {
				t.Errorf("encoding moved:\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}
