package tables

import (
	"strings"
	"testing"
	"time"
)

const testTimeout = 2 * time.Minute

func TestTable3FastModeSubset(t *testing.T) {
	rows := Table3(Config{Filter: "Parse Ethernet", OptTimeout: testTimeout})
	if len(rows) != 4 {
		t.Fatalf("rows=%d want 4", len(rows))
	}
	base := rows[0]
	if base.Tofino.Err != "" || base.IPU.Err != "" {
		t.Fatalf("ParserHawk must compile the base program: %+v", base)
	}
	// ParserHawk's resources must be invariant across the semantic-
	// preserving rewrites — the paper's central robustness claim.
	for _, r := range rows[1:] {
		if r.Tofino.Entries != base.Tofino.Entries {
			t.Errorf("%s: Tofino entries %d != base %d (style dependence!)",
				r.Program, r.Tofino.Entries, base.Tofino.Entries)
		}
		if r.IPU.Stages != base.IPU.Stages {
			t.Errorf("%s: IPU stages %d != base %d", r.Program, r.IPU.Stages, base.IPU.Stages)
		}
	}
	// The written-form compiler pays for the +R1 redundancy.
	r1 := rows[1]
	if r1.VendorTofino.Err == "" && r1.VendorTofino.Entries <= base.VendorTofino.Entries {
		t.Errorf("+R1 must inflate vendor entries: %d vs %d",
			r1.VendorTofino.Entries, base.VendorTofino.Entries)
	}
	// +R2 makes the IPU compiler report a conflict.
	r2 := rows[3]
	if !strings.Contains(r2.VendorIPU.Err, "conflict") {
		t.Errorf("+R2 vendor IPU: err=%q want conflict", r2.VendorIPU.Err)
	}
	// ParserHawk never uses more entries than the vendor output.
	for _, r := range rows {
		if r.VendorTofino.Err == "" && r.Tofino.Entries > r.VendorTofino.Entries {
			t.Errorf("%s: ParserHawk %d > vendor %d entries", r.Program,
				r.Tofino.Entries, r.VendorTofino.Entries)
		}
	}
}

func TestTable3MPLSVendorRejections(t *testing.T) {
	rows := Table3(Config{Filter: "Parse MPLS", OptTimeout: testTimeout})
	for _, r := range rows {
		if r.Program == "Parse MPLS +unroll" {
			if r.VendorIPU.Err != "" {
				t.Errorf("unrolled MPLS must pass the IPU compiler: %q", r.VendorIPU.Err)
			}
			continue
		}
		if !strings.Contains(r.VendorIPU.Err, "loop") {
			t.Errorf("%s: IPU compiler must reject the loop, got %q", r.Program, r.VendorIPU.Err)
		}
		if r.IPU.Err != "" {
			t.Errorf("%s: ParserHawk must compile via unrolling, got %q", r.Program, r.IPU.Err)
		}
	}
}

func TestTable3WideKeyVendorRejection(t *testing.T) {
	rows := Table3(Config{Filter: "Large tran key", OptTimeout: testTimeout})
	for _, r := range rows {
		if r.Program == "Large tran key" {
			if !strings.Contains(r.VendorTofino.Err, "wide tran key") {
				t.Errorf("vendor must reject the wide key, got %q", r.VendorTofino.Err)
			}
			if r.Tofino.Err != "" {
				t.Errorf("ParserHawk must split the key: %q", r.Tofino.Err)
			}
		} else if r.VendorTofino.Err != "" {
			// The +R4 rewrites split the key in source form; the vendor
			// compiler accepts those.
			t.Errorf("%s: vendor should accept the source-split key, got %q",
				r.Program, r.VendorTofino.Err)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	var runs []RunStats
	rows := Table4(Config{OptTimeout: testTimeout, StatsSink: func(r RunStats) { runs = append(runs, r) }})
	if len(rows) != 5 {
		t.Fatalf("rows=%d", len(rows))
	}
	if len(runs) != len(rows) {
		t.Fatalf("stats sink saw %d compiles, want one per row (%d)", len(runs), len(rows))
	}
	for i, r := range rows {
		if runs[i].Program != r.Name || !runs[i].OK || runs[i].Entries != r.PH || runs[i].Stats.Solver.Solves == 0 {
			t.Errorf("row %s: stats record %s ok=%v entries=%d solves=%d", r.Name,
				runs[i].Program, runs[i].OK, runs[i].Entries, runs[i].Stats.Solver.Solves)
		}
	}
	if rows[2].Name != "ME-2@16" || rows[3].Name != "ME-2@8" {
		t.Errorf("ME-2 rows named %q and %q, want ME-2@16 and ME-2@8", rows[2].Name, rows[3].Name)
	}
	// ME-2@8's key-split candidates are wrong only on chunk
	// cross-combinations the counterexample search never builds, so the
	// witness walk refutes them whatever the solver proposes, and each
	// refutation's packet becomes an example.
	if runs[3].Stats.Refuted == 0 || runs[3].Entries != 8 {
		t.Errorf("ME-2@8: %d refuted candidates and %d entries, want some and 8", runs[3].Stats.Refuted, runs[3].Entries)
	}
	for _, r := range rows {
		if r.PHErr != "" {
			t.Fatalf("%s: ParserHawk failed: %s", r.Name, r.PHErr)
		}
		if r.DPErr != "" {
			t.Fatalf("%s: DPParserGen failed: %s", r.Name, r.DPErr)
		}
		if r.PH > r.DP {
			t.Errorf("%s: ParserHawk %d > DPParserGen %d", r.Name, r.PH, r.DP)
		}
	}
	// Strict improvements on the motivating examples.
	if rows[1].PH >= rows[1].DP {
		t.Errorf("ME-1: want strict win, got %d vs %d", rows[1].PH, rows[1].DP)
	}
	if rows[3].PH >= rows[3].DP {
		t.Errorf("ME-2@8: want strict win, got %d vs %d", rows[3].PH, rows[3].DP)
	}
	if rows[4].PH != 1 {
		t.Errorf("ME-3: ParserHawk must collapse to 1 entry, got %d", rows[4].PH)
	}
	out := FormatTable4(rows)
	if !strings.Contains(out, "ME-3") || !strings.Contains(out, "Tofino") {
		t.Errorf("format output incomplete:\n%s", out)
	}
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeviceAParserHawk >= r.DeviceADPParserGen {
		t.Errorf("device A: ParserHawk %d must beat DPParserGen %d",
			r.DeviceAParserHawk, r.DeviceADPParserGen)
	}
	if r.DeviceBParserHawk > r.DeviceBDPParserGen {
		t.Errorf("device B: ParserHawk %d worse than DPParserGen %d",
			r.DeviceBParserHawk, r.DeviceBDPParserGen)
	}
	if !strings.Contains(FormatFigure4(r), "device A") {
		t.Error("format output incomplete")
	}
}

func TestFigure5StyleIndependence(t *testing.T) {
	r, err := Figure5(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sol1PH != r.Sol2PH {
		t.Errorf("ParserHawk must be style-independent: %d vs %d", r.Sol1PH, r.Sol2PH)
	}
	if r.Sol1DP == r.Sol2DP {
		t.Errorf("rule-based flow must be style-dependent here: both %d", r.Sol1DP)
	}
	if !strings.Contains(FormatFigure5(r), "style-independent") {
		t.Error("format output incomplete")
	}
}

func TestSummarize(t *testing.T) {
	rows := []T3Row{
		{
			Program:      "a",
			Tofino:       TargetResult{Entries: 3, OptSeconds: 1, OrigSeconds: 10, Speedup: 10},
			VendorTofino: TargetResult{Entries: 6},
			IPU:          TargetResult{Stages: 2, OptSeconds: 1, OrigSeconds: 40, Speedup: 40},
			VendorIPU:    TargetResult{Err: "parser loop"},
			FPGA:         TargetResult{Stages: 3, OptSeconds: 1, OrigSeconds: 20, Speedup: 20},
			VendorFPGA:   TargetResult{Stages: 5},
		},
	}
	s := Summarize(rows)
	if s.Cases != 3 || s.ParserHawkOK != 3 {
		t.Errorf("cases=%d ok=%d", s.Cases, s.ParserHawkOK)
	}
	if s.VendorRejects != 1 || s.VendorSuboptimal != 2 {
		t.Errorf("rejects=%d subopt=%d", s.VendorRejects, s.VendorSuboptimal)
	}
	if s.GeomeanSpeedup < 19.9 || s.GeomeanSpeedup > 20.1 {
		t.Errorf("geomean=%f want 20", s.GeomeanSpeedup)
	}
	if !strings.Contains(FormatSummary(s), "geomean") {
		t.Error("summary format incomplete")
	}
}

// TestSummaryMarksCensoredExtremes: a naive compile that timed out gives
// only a lower bound on its speedup, so a min or max taken from such a cell
// prints with ">", and an exact extreme prints without one.
func TestSummaryMarksCensoredExtremes(t *testing.T) {
	exact := func(s float64) TargetResult {
		return TargetResult{Entries: 1, Stages: 1, OptSeconds: 1, OrigSeconds: s, Speedup: s}
	}
	censored := func(s float64) TargetResult {
		r := exact(s)
		r.OrigTimeout = true
		return r
	}
	for _, tc := range []struct {
		name              string
		tofino, ipu, fpga TargetResult
		want              string
	}{
		{"censored max", exact(2), exact(5), censored(300), "(min 2.00x, max >300.00x; 1 censored)"},
		{"censored min", censored(1.5), exact(5), exact(40), "(min >1.50x, max 40.00x; 1 censored)"},
		{"exact", exact(2), exact(5), exact(40), "(min 2.00x, max 40.00x; 0 censored)"},
		{"exact min ties a bound", censored(2), exact(2), exact(40), "(min 2.00x, max 40.00x; 1 censored)"},
		{"censored max ties an exact", exact(2), exact(40), censored(40), "(min 2.00x, max >40.00x; 1 censored)"},
	} {
		rows := []T3Row{{Program: "p", Tofino: tc.tofino, IPU: tc.ipu, FPGA: tc.fpga}}
		if got := FormatSummary(Summarize(rows)); !strings.Contains(got, tc.want) {
			t.Errorf("%s: summary\n%s\nwant it to contain %q", tc.name, got, tc.want)
		}
	}
}

func TestFormatTable3(t *testing.T) {
	rows := Table3(Config{Filter: "Pure Extraction", OptTimeout: testTimeout})
	out := FormatTable3(rows, false)
	if !strings.Contains(out, "Pure Extraction states") {
		t.Errorf("missing row:\n%s", out)
	}
	outOrig := FormatTable3(rows, true)
	if !strings.Contains(outOrig, "Orig(s)") {
		t.Error("orig columns missing")
	}
}

func TestTable5Ablation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation timing run")
	}
	rows := Table5(30 * time.Second)
	if len(rows) != 6 {
		t.Fatalf("rows=%d want 6", len(rows))
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%s/%s: full-OPT config failed: %s", r.Program, r.Target, r.Err)
		}
		if r.PlusOpt4 <= 0 {
			t.Errorf("%s/%s: missing full-OPT time", r.Program, r.Target)
		}
		// The full configuration must never be slower than the ablated
		// ones by more than measurement noise.
		if r.PlusOpt4 > r.OtherOpt*2+1 {
			t.Errorf("%s/%s: full OPT %.2fs slower than ablated %.2fs",
				r.Program, r.Target, r.PlusOpt4, r.OtherOpt)
		}
	}
	if !strings.Contains(FormatTable5(rows), "+OPT4,5") {
		t.Error("format output incomplete")
	}
}

func TestOrigModeOnSmallBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("naive-mode timing run")
	}
	rows := Table3(Config{Filter: "Multi-key (same pkt field) -R5-R3",
		OptTimeout: testTimeout, OrigTimeout: 30 * time.Second, RunOrig: true})
	if len(rows) != 1 {
		t.Fatalf("rows=%d", len(rows))
	}
	r := rows[0].Tofino
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if r.OrigSeconds == 0 {
		t.Error("naive mode did not run")
	}
	if !r.OrigTimeout && r.Speedup < 1 {
		t.Logf("note: naive mode faster than OPT on a tiny benchmark (%.2fx)", r.Speedup)
	}
}

func TestMatchFilter(t *testing.T) {
	cases := []struct {
		name, filter string
		want         bool
	}{
		{"Deep QUIC", "", true},
		{"Deep QUIC", "Deep", true},
		{"Parse MPLS", "Deep", false},
		{"Parse MPLS", "Parse,Deep", true},
		{"Deep SRv6", "Parse,Deep", true},
		{"Multi-key", "Parse, Deep", false},
		{"Deep GRE", "Parse, Deep", true},
		{"Deep GRE", ",", false},
	}
	for _, c := range cases {
		if got := matchFilter(c.name, c.filter); got != c.want {
			t.Errorf("matchFilter(%q, %q) = %v, want %v", c.name, c.filter, got, c.want)
		}
	}
}
