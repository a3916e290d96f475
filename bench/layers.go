package main

import (
	"fmt"
	"sort"
	"strings"
)

// layerMetrics derives the per-layer metrics from a traced run's spans.
// Compile spans count only inside the measured phase (not the set-up's
// memo fill); probe and check spans count wherever they ran. Every metric
// is present for every workload: a layer a workload does not exercise
// reads 0.
func layerMetrics(spans []span) map[string]float64 {
	measured := descendants(spans, "measure")
	sumDur := map[string]float64{} // op -> total duration, ns
	attr := map[string]float64{}   // attribute -> total over measured spans
	var compiles float64
	for _, s := range spans {
		sumDur[s.Op] += float64(s.dur())
		if !measured[s.ID] && s.Op != "measure" {
			continue
		}
		for k, v := range s.Attrs {
			attr[k] += v
		}
		if _, ok := s.Attrs["compile_ns"]; ok {
			compiles++
		}
	}
	compileNs, synthNs, verifyNs := attr["compile_ns"], attr["synthesis_ns"], attr["verify_ns"]
	synthS := synthNs / 1e9
	memoLookups := attr["memo.t1_hits"] + attr["memo.t1_alias_hits"] + attr["memo.t1_misses"]
	m := map[string]float64{
		"core.compile_s":        compileNs / 1e9,
		"core.synthesis_s":      synthS,
		"core.verify_s":         verifyNs / 1e9,
		"core.unattributed_s":   (compileNs - synthNs - verifyNs) / 1e9,
		"core.attributed_ratio": ratio(synthNs+verifyNs, compileNs),
		"core.compiles":         compiles,
		"core.cegis_iterations": attr["cegis_iterations"],
		"core.test_cases":       attr["test_cases"],
		"lint.rules_pruned":     attr["rules_pruned"],

		"p4.parse_ms":            sumDur[opParse] / 1e6,
		"lint.run_ms":            sumDur[opLint] / 1e6,
		"core.effective_spec_ms": sumDur[opEffective] / 1e6,
		"pir.canon_ms":           sumDur[opCanon] / 1e6,

		"pir.run_ns_per_pkt":      ratio(sumDur[opSpecRun], sumAttr(spans, opSpecRun, "packets")),
		"pir.run_allocs_per_pkt":  ratio(sumAttr(spans, opSpecRun, "allocs"), sumAttr(spans, opSpecRun, "packets")),
		"tcam.run_ns_per_pkt":     ratio(sumDur[opProgRun], sumAttr(spans, opProgRun, "packets")),
		"tcam.run_allocs_per_pkt": ratio(sumAttr(spans, opProgRun, "allocs"), sumAttr(spans, opProgRun, "packets")),

		"sat.solves":          attr["sat.solves"],
		"sat.conflicts":       attr["sat.conflicts"],
		"sat.propagations":    attr["sat.propagations"],
		"sat.decisions":       attr["sat.decisions"],
		"sat.learned_clauses": attr["sat.learned"],
		"sat.conflicts_per_s": ratio(attr["sat.conflicts"], synthS),
		"sat.props_per_s":     ratio(attr["sat.propagations"], synthS),
		"bv.clauses":          attr["bv.clauses"],
		"bv.vars":             attr["bv.vars"],
		"bv.gates":            attr["bv.gates"],
		"bv.cons_hits":        attr["bv.cons_hits"],

		"memo.t1_hits":       attr["memo.t1_hits"],
		"memo.t1_alias_hits": attr["memo.t1_alias_hits"],
		"memo.t1_misses":     attr["memo.t1_misses"],
		"memo.t1_stores":     attr["memo.t1_stores"],
		"memo.t1_hit_ratio":  ratio(attr["memo.t1_hits"]+attr["memo.t1_alias_hits"], memoLookups),
		"memo.bytes_read":    attr["memo.bytes_read"],
		"memo.bytes_written": attr["memo.bytes_written"],

		"go.alloc_mb":          attr["go.alloc_bytes"] / (1 << 20),
		"go.gc_pause_ms":       attr["go.gc_pause_ns"] / 1e6,
		"trace.overhead_ratio": ratio(sumDur["measure"]+sumDur["probe"], sumDur["measure"]),
		"trace.spans":          float64(len(spans)),
	}
	return m
}

// traceSummary explains a traced run in a few lines: self time per op
// (each span's duration minus its children's), and the cells whose
// compiles spent the most time outside synthesis and verification.
func traceSummary(spans []span) []string {
	self := selfTimes(spans)
	byOp := map[string]int64{}
	type cellTime struct {
		name string
		ns   float64
	}
	var unattributed []cellTime
	for _, s := range spans {
		byOp[s.Op] += self[s.ID]
		if c, ok := s.Attrs["compile_ns"]; ok {
			unattributed = append(unattributed, cellTime{s.Name, c - s.Attrs["synthesis_ns"] - s.Attrs["verify_ns"]})
		}
	}
	ops := make([]string, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return byOp[ops[i]] > byOp[ops[j]] })
	var sb strings.Builder
	sb.WriteString("self time by op:")
	for _, op := range ops {
		fmt.Fprintf(&sb, " %s %.3fs;", op, float64(byOp[op])/1e9)
	}
	out := []string{sb.String()}
	sort.Slice(unattributed, func(i, j int) bool { return unattributed[i].ns > unattributed[j].ns })
	for _, c := range unattributed[:min(5, len(unattributed))] {
		out = append(out, fmt.Sprintf("unattributed compile time: %s %.1f ms", c.name, c.ns/1e6))
	}
	return out
}

// descendants is the set of span ids below any span with the given op.
func descendants(spans []span, op string) map[int]bool {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	out := map[int]bool{}
	for _, s := range spans {
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if byID[p].Op == op {
				out[s.ID] = true
				break
			}
		}
	}
	return out
}

func sumAttr(spans []span, op, key string) float64 {
	var t float64
	for _, s := range spans {
		if s.Op == op {
			t += s.Attrs[key]
		}
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
