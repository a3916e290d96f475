package main

import (
	"io"
	"math"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{16, 50}, {99, 50}, {100, 90}, {132, 90}, {199, 90},
		{200, 95}, {246, 95}, {250, 95}, {999, 95}, {1000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
		// The rule itself: at least ten samples beyond the tail, unless
		// the tail fell back to the median.
		if p := tailPercentile(c.n); p != 50 && float64(c.n)*(100-p)/100 < 10 {
			t.Errorf("p%g of %d samples has fewer than ten beyond it", p, c.n)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.5, 1.25, 9, 7, 2, 8}, [3]float64{1.8125, 5.25, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestRefTime checks the conversion to reference time: an interval is
// divided by the slowness of the chunks around it, a chunk inside it does
// not count, and an interval with no chunk nearby takes the nearest chunk
// on each side.
func TestRefTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	chunk := func(ms int, slow float64) mark { return mark{start: at(ms), end: at(ms + 10), slow: slow} }
	s := &speedometer{marks: []mark{
		chunk(0, 2), chunk(500, 2), chunk(1000, 2),
		chunk(5000, 1), chunk(5500, 1),
		chunk(20000, 1), chunk(30000, 3),
	}}
	ms := time.Millisecond
	for _, c := range []struct {
		name     string
		from, to int
		want     time.Duration
	}{
		{"between chunks, machine twice as slow", 10, 500, 245 * ms},
		{"across a chunk, which does not count", 10, 1000, 490 * ms},
		{"only nearby chunks judge the speed", 5010, 5500, 490 * ms},
		{"no chunk within the window", 24000, 25000, 500 * ms},
	} {
		if got := s.ref(at(c.from), at(c.to)); got != c.want {
			t.Errorf("%s: ref = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Op: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Op: "c", Start: 70, End: 80},
		{ID: 5, Parent: 1, Op: "d", Start: 90, End: 120}, // runs past the parent
		{ID: 6, Parent: 3, Op: "e", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	// Children cover [10,50] ∪ [70,80] ∪ [90,100] = 60 of the parent's 100.
	for id, want := range map[int]int64{1: 40, 2: 20, 3: 20, 4: 10, 5: 30, 6: 10} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
}

func TestLayerMetricsCountOnlyTheMeasuredPhase(t *testing.T) {
	spans := []span{
		{ID: 1, Op: "setup", Start: 0, End: 10},
		{ID: 2, Parent: 1, Op: opCompile, Start: 0, End: 10,
			Attrs: map[string]float64{"compile_ns": 10, "synthesis_ns": 1, "verify_ns": 1}},
		{ID: 3, Op: "measure", Start: 10, End: 110},
		{ID: 4, Parent: 3, Op: opCompile, Start: 10, End: 110,
			Attrs: map[string]float64{"compile_ns": 100e9, "synthesis_ns": 20e9, "verify_ns": 5e9, "sat.conflicts": 40}},
		{ID: 5, Op: "probe", Start: 110, End: 120},
		{ID: 6, Parent: 5, Op: opLint, Start: 110, End: 2e6 + 110},
	}
	m := layerMetrics(spans)
	for name, want := range map[string]float64{
		"core.compile_s":        100,
		"core.synthesis_s":      20,
		"core.unattributed_s":   75,
		"core.attributed_ratio": 0.25,
		"core.compiles":         1,
		"sat.conflicts_per_s":   2,
		"lint.run_ms":           2,
		"trace.overhead_ratio":  1.1,
	} {
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.2}
	higher := metricDef{Name: "throughput", Better: "higher", Bound: 0.2}
	exact := metricDef{Name: "resource_cost", Better: "lower", Bound: 0}
	around := func(m float64, spread float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = m * (1 + spread*(float64(i)/9-0.5))
		}
		return out
	}
	for _, c := range []struct {
		name   string
		d      metricDef
		pa, ch []float64
		want   string
	}{
		{"faster in every pair", lower, around(100, 0.02), around(80, 0.02), "gain"},
		{"higher throughput", higher, around(100, 0.02), around(120, 0.02), "gain"},
		{"30% slower", lower, around(100, 0.02), around(130, 0.02), "regression"},
		{"5% slower, within the bound", lower, around(100, 0.02), around(105, 0.02), "same"},
		{"lower throughput", higher, around(100, 0.02), around(70, 0.02), "regression"},
		{"parent spread wider than the bound", lower, around(100, 0.6), around(110, 0.6), "unresolved"},
		{"wide spread but every run slower", lower, around(100, 0.6), around(300, 0.1), "regression"},
		{"wide spread but every run faster", lower, around(100, 0.6), around(20, 0.1), "gain"},
		{"deterministic and equal", exact, around(456, 0), around(456, 0), "same"},
		{"deterministic and one worse", exact, around(456, 0), around(457, 0), "regression"},
	} {
		if got := judge(c.d, c.pa, c.ch).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFailsOnMoreFailuresOrWrongOutputs(t *testing.T) {
	cat := &catalogue{
		Workloads: []workloadDef{{Name: "w"}},
		EndToEnd:  []metricDef{{Name: "throughput", Unit: "1/s", Better: "higher", Bound: 0.2}},
	}
	runs := func(failed, wrong int) []record {
		var rs []record
		for s := int64(1); s <= minPairs; s++ {
			rs = append(rs, record{Workload: "w", Seed: s, Attempted: 100, Failed: failed, Wrong: wrong,
				Metrics: map[string]float64{"throughput": 10}})
		}
		return rs
	}
	for _, c := range []struct {
		name          string
		failed, wrong int
		want          bool
	}{{"identical", 0, 0, true}, {"one more failure", 1, 0, false}, {"a wrong output", 0, 1, false}} {
		got, err := compare(io.Discard, cat, runs(0, 0), runs(c.failed, c.wrong))
		if err != nil || got != c.want {
			t.Errorf("%s: compare = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	if _, err := compare(io.Discard, cat, runs(0, 0)[:minPairs-1], runs(0, 0)); err == nil {
		t.Error("compare accepted fewer than ten pairs")
	}
}
