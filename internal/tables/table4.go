package tables

import (
	"fmt"
	"strings"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/core"
	"parserhawk/internal/dpgen"
	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
)

// The motivating examples (ME) of §3.2 / Table 4, compared against
// DPParserGen under parameterized hardware. Each ME isolates one failure
// mode of rule-based generation:
//
//   - ME-1 needs a merging strategy that exploits TCAM priority: three of
//     four key values share a target, and a correct compiler can cover
//     them with one shadowed wildcard entry. DPParserGen's cube merging
//     cannot use priority, so it pays per-cube.
//   - ME-2 needs transition-key splitting; the chunk-check order and tree
//     shape decide the entry count (Figure 4 Step 2).
//   - ME-3 contains rules that are all redundant with the default —
//     semantic analysis collapses the state to a single wildcard entry,
//     while written-form compilation keeps every rule.

// me1Spec: 2-bit key; values {0,1,2} -> A, {3} -> B. Optimal: entry
// "11 -> B" shadowing a wildcard "-> A" (2 entries + A's work).
func me1Spec() *pir.Spec {
	return pir.MustNew("ME-1",
		[]pir.Field{{Name: "k", Width: 2}, {Name: "a", Width: 2}, {Name: "b", Width: 2}},
		[]pir.State{
			{
				Name:     "S",
				Extracts: []pir.Extract{{Field: "k"}},
				Key:      []pir.KeyPart{pir.WholeField("k", 2)},
				Rules: []pir.Rule{
					pir.ExactRule(0, 2, pir.To(1)),
					pir.ExactRule(1, 2, pir.To(1)),
					pir.ExactRule(2, 2, pir.To(1)),
					pir.ExactRule(3, 2, pir.To(2)),
				},
				Default: pir.RejectTarget,
			},
			{Name: "A", Extracts: []pir.Extract{{Field: "a"}}, Default: pir.AcceptTarget},
			{Name: "B", Extracts: []pir.Extract{{Field: "b"}}, Default: pir.AcceptTarget},
		})
}

// me2Spec: a 16-bit transition key with three rules; fits a 16-bit device
// directly but must be split on an 8-bit device.
func me2Spec() *pir.Spec {
	return pir.MustNew("ME-2",
		[]pir.Field{{Name: "k", Width: 16}, {Name: "d", Width: 2}, {Name: "e", Width: 2}},
		[]pir.State{
			{
				Name:     "S",
				Extracts: []pir.Extract{{Field: "k"}},
				Key:      []pir.KeyPart{pir.WholeField("k", 16)},
				Rules: []pir.Rule{
					pir.ExactRule(0xF0F0, 16, pir.To(1)),
					pir.ExactRule(0xF0F1, 16, pir.To(1)),
					pir.ExactRule(0x0F0F, 16, pir.To(2)),
				},
				Default: pir.AcceptTarget,
			},
			{Name: "D", Extracts: []pir.Extract{{Field: "d"}}, Default: pir.AcceptTarget},
			{Name: "E", Extracts: []pir.Extract{{Field: "e"}}, Default: pir.AcceptTarget},
		})
}

// me3Spec: every rule transitions to the same state the default reaches —
// all entries are redundant, and the whole state collapses to a wildcard.
func me3Spec() *pir.Spec {
	values := []uint64{1, 2, 4, 7, 8, 11, 13, 14} // poorly cube-mergeable
	var rules []pir.Rule
	for _, v := range values {
		rules = append(rules, pir.ExactRule(v, 4, pir.To(1)))
	}
	return pir.MustNew("ME-3",
		[]pir.Field{{Name: "k", Width: 4}, {Name: "a", Width: 2}},
		[]pir.State{
			{
				Name:     "S",
				Extracts: []pir.Extract{{Field: "k"}},
				Key:      []pir.KeyPart{pir.WholeField("k", 4)},
				Rules:    rules,
				Default:  pir.To(1),
			},
			{Name: "A", Extracts: []pir.Extract{{Field: "a"}}, Default: pir.AcceptTarget},
		})
}

// T4Row is one Table 4 row: ParserHawk vs DPParserGen entry counts under
// one parameterized hardware configuration.
type T4Row struct {
	Name       string
	PH, DP     int
	PHErr      string
	DPErr      string
	KeyWidth   int // 0 renders as "Tofino" (the scaled Tofino profile)
	Lookahead  int
	ExtractLim int
}

// Table4 reproduces the DPParserGen comparison. Each ParserHawk compile
// runs under cfg.OptTimeout on cfg.Workers portfolio workers and is
// recorded into cfg.StatsSink; the two ME-2 rows are named by their key
// width.
func Table4(cfg Config) []T4Row {
	cfg = cfg.withDefaults()
	type t4case struct {
		name    string
		spec    *pir.Spec
		profile hw.Profile
		keyW    int
		la, ex  int
	}
	ltk, _ := benchdata.ByName("Large tran key")
	// The paper's first row uses the real Tofino's limits, whose 32-bit key
	// window fits the benchmark without splitting.
	tofinoFull := hw.Tofino()
	cases := []t4case{
		{"Large tran key", ltk.Spec, tofinoFull, 0, 0, 0},
		{"ME-1", me1Spec(), hw.Parameterized(4, 2, 10), 4, 2, 10},
		{"ME-2@16", me2Spec(), hw.Parameterized(16, 2, 24), 16, 2, 24},
		{"ME-2@8", me2Spec(), hw.Parameterized(8, 2, 24), 8, 2, 24},
		{"ME-3", me3Spec(), hw.Parameterized(16, 2, 10), 16, 2, 10},
	}
	var rows []T4Row
	for _, c := range cases {
		row := T4Row{Name: c.name, KeyWidth: c.keyW, Lookahead: c.la, ExtractLim: c.ex}
		opts := core.DefaultOptions()
		opts.Timeout = cfg.OptTimeout
		opts.Workers = cfg.Workers
		t0 := time.Now()
		res, err := core.Compile(c.spec, c.profile, opts)
		cfg.record(runRecord(c.name, c.profile, "opt", time.Since(t0).Seconds(), res, err))
		if err != nil {
			row.PHErr = err.Error()
		} else {
			row.PH = res.Resources.Entries
		}
		if r, err := dpgen.Compile(c.spec, c.profile); err != nil {
			row.DPErr = shortDPErr(err)
		} else {
			row.DP = r.Entries
		}
		rows = append(rows, row)
	}
	return rows
}

func shortDPErr(err error) string {
	return strings.TrimPrefix(err.Error(), "dpgen: ")
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []T4Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s | %10s | %12s | %-10s %-10s %-10s\n",
		"Example", "ParserHawk", "DPParserGen", "key width", "lookahead", "extract")
	sb.WriteString(strings.Repeat("-", 80) + "\n")
	for _, r := range rows {
		ph := fmt.Sprintf("%d", r.PH)
		if r.PHErr != "" {
			ph = "FAIL"
		}
		dp := fmt.Sprintf("%d", r.DP)
		if r.DPErr != "" {
			dp = r.DPErr
		}
		kw := "Tofino"
		la := "Tofino"
		ex := "Tofino"
		if r.KeyWidth > 0 {
			kw = fmt.Sprintf("%d-bit", r.KeyWidth)
			la = fmt.Sprintf("%d-bit", r.Lookahead)
			ex = fmt.Sprintf("%d-bit", r.ExtractLim)
		}
		fmt.Fprintf(&sb, "%-16s | %10s | %12s | %-10s %-10s %-10s\n", r.Name, ph, dp, kw, la, ex)
	}
	return sb.String()
}
