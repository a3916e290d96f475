package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// minPairs is how many same-seed pairs of parent and change runs a
// workload needs before compare judges it.
const minPairs = 10

// compareMain implements `compare A B`: A holds the parent commit's run
// records, B the change's, from at least ten alternating same-seed pairs
// per workload. For every workload and end-to-end metric it prints each
// side's median and quartiles and a verdict:
//
//   - gain: the change wins at least nine in ten pairs (ties count for
//     neither) and the medians differ by more than the parent's
//     interquartile range;
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound, and either the parent's spread (its
//     interquartile range over its median) is within the bound or every
//     change run reads worse than every parent run;
//   - unresolved: the parent's spread is wider than the bound, and not
//     every change run reads better than every parent run;
//   - same: none of the above.
//
// It exits 1 on any regression, and on any increase in failed operations
// or wrong outputs.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	cat, err := loadCatalogue()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	a, err := loadRecords(args[0])
	if err == nil {
		var b []record
		if b, err = loadRecords(args[1]); err == nil {
			var ok bool
			if ok, err = compare(os.Stdout, cat, a, b); err == nil && !ok {
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	return 0
}

// loadRecords reads the untraced run records in dir.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload != "" && !r.Trace {
			out = append(out, r)
		}
	}
	return out, nil
}

// compare writes the table and reports whether the change passes.
func compare(w io.Writer, cat *catalogue, parent, change []record) (bool, error) {
	pass := true
	for _, wl := range cat.Workloads {
		pa, ch := pairUp(parent, change, wl.Name)
		if len(pa) == 0 {
			continue
		}
		if len(pa) < minPairs {
			return false, fmt.Errorf("%s: %d same-seed pairs, need %d", wl.Name, len(pa), minPairs)
		}
		fmt.Fprintf(w, "%s (%d pairs)\n", wl.Name, len(pa))
		if failShare(ch) > failShare(pa) || wrongOutputs(ch) > wrongOutputs(pa) {
			pass = false
			fmt.Fprintf(w, "  FAIL: failed share %.4f -> %.4f, wrong outputs %d -> %d\n",
				failShare(pa), failShare(ch), wrongOutputs(pa), wrongOutputs(ch))
		}
		for _, d := range cat.EndToEnd {
			v := judge(d, values(pa, d.Name), values(ch, d.Name))
			if v.verdict == "regression" {
				pass = false
			}
			fmt.Fprintf(w, "  %-18s %-6s parent %s  change %s  wins %d/%d  %s\n",
				d.Name, d.Unit, v.parent, v.change, v.wins, len(pa), v.verdict)
		}
	}
	return pass, nil
}

// pairUp returns the parent and change records of one workload that share
// a seed, aligned by seed.
func pairUp(parent, change []record, workload string) (pa, ch []record) {
	bySeed := map[int64]record{}
	for _, r := range change {
		if r.Workload == workload {
			bySeed[r.Seed] = r
		}
	}
	for _, r := range parent {
		if c, ok := bySeed[r.Seed]; ok && r.Workload == workload {
			pa, ch = append(pa, r), append(ch, c)
		}
	}
	return pa, ch
}

func values(rs []record, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric]
	}
	return out
}

func failShare(rs []record) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

func wrongOutputs(rs []record) int {
	n := 0
	for _, r := range rs {
		n += r.Wrong
	}
	return n
}

type judgement struct {
	parent, change string // "median [q1, q3]"
	wins           int
	verdict        string
}

// judge applies the paired-runs rule to one metric; pa[i] and ch[i] are a
// pair.
func judge(d metricDef, pa, ch []float64) judgement {
	sign := 1.0 // +1 when lower is better
	if d.Better == "higher" {
		sign = -1
	}
	better := func(x, y float64) bool { return sign*x < sign*y }
	j := judgement{}
	for i := range pa {
		if better(ch[i], pa[i]) {
			j.wins++
		}
	}
	q1a, ma, q3a := quartiles(pa)
	q1c, mc, q3c := quartiles(ch)
	j.parent = fmt.Sprintf("%.6g [%.6g, %.6g]", ma, q1a, q3a)
	j.change = fmt.Sprintf("%.6g [%.6g, %.6g]", mc, q1c, q3c)
	allBetter, allWorse := true, true
	for _, x := range ch {
		for _, p := range pa {
			allBetter = allBetter && better(x, p)
			allWorse = allWorse && better(p, x)
		}
	}
	steady := ratio(q3a-q1a, math.Abs(ma)) <= d.Bound
	worse := sign * (mc - ma) // > 0 when the change is worse
	switch {
	case better(mc, ma) && float64(j.wins) >= 0.9*float64(len(pa)) && math.Abs(mc-ma) > q3a-q1a:
		j.verdict = "gain"
	case worse > d.Bound*math.Abs(ma) && (steady || allWorse):
		j.verdict = "regression"
	case !steady && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "same"
	}
	return j
}
