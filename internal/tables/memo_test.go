package tables

import (
	"testing"
	"time"

	"parserhawk/internal/memo"
)

// TestMemoHarnessWarmRun runs one tiny benchmark through the harness path
// twice over one memo: the cold pass must record misses and stores, the
// warm pass must replay identical results as tier-1 hits, and both
// passes' records must carry the per-compilation memo counters.
func TestMemoHarnessWarmRun(t *testing.T) {
	mc, err := memo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var runs []RunStats
	cfg := Config{
		OptTimeout: 30 * time.Second,
		Filter:     "Multi-key (same pkt field) -R5-R3",
		Memo:       mc,
		StatsSink:  func(r RunStats) { runs = append(runs, r) },
	}
	cold := Table3(cfg)
	if len(cold) != 1 {
		t.Fatalf("filter matched %d benchmarks, want 1", len(cold))
	}
	coldRuns := runs
	for _, r := range coldRuns {
		if r.Memo == nil {
			t.Fatalf("%s/%s: cold record has no memo counters", r.Program, r.Target)
		}
		if r.Memo.T1Hits != 0 || r.Memo.T1Misses != 1 {
			t.Errorf("%s/%s: cold memo counters: %+v", r.Program, r.Target, r.Memo)
		}
	}

	runs = nil
	warm := Table3(cfg)
	if warm[0].Tofino.Entries != cold[0].Tofino.Entries ||
		warm[0].Tofino.Stages != cold[0].Tofino.Stages ||
		warm[0].IPU.Entries != cold[0].IPU.Entries ||
		warm[0].IPU.Stages != cold[0].IPU.Stages {
		t.Fatalf("warm row diverged from cold:\ncold %+v\nwarm %+v", cold[0], warm[0])
	}
	for _, r := range runs {
		if r.Memo == nil || r.Memo.T1Hits != 1 || r.Memo.T1Misses != 0 {
			t.Errorf("%s/%s: warm memo counters: %+v", r.Program, r.Target, r.Memo)
		}
	}
	if st := mc.Stats(); st.T1Stores == 0 {
		t.Errorf("no tier-1 entries stored: %+v", st)
	}
}

// TestMemoDeltaCanonMS pins canon_ms as fractional milliseconds: one
// canonicalization takes microseconds, which whole milliseconds round to
// zero on every record. Files that carry an integer canon_ms still decode.
func TestMemoDeltaCanonMS(t *testing.T) {
	if got := memoDelta(memo.Stats{CanonNanos: 30_000}).CanonMS; got != 0.03 {
		t.Errorf("30µs of canonicalization reported as canon_ms %v, want 0.03", got)
	}
	runs, err := DecodeRunStats([]byte(`[{"memo": {"t1_hits": 1, "canon_ms": 2}}]`))
	if err != nil {
		t.Fatal(err)
	}
	if m := runs[0].Memo; m == nil || m.CanonMS != 2 || m.T1Hits != 1 {
		t.Errorf("integer canon_ms decoded as %+v", m)
	}
}
