// Command bench is ParserHawk's end-to-end benchmark. Each of its three
// workloads puts a different layer on the critical path: cold-suite the
// whole compile pipeline, naive-solve the SAT and bit-blasting layers, and
// memo-rerun the cross-compile memo. A run prints every metric by name
// with its unit, checks every returned program against the reference
// interpreter, and ends with one JSON line. Times are in reference time
// (speed.go): wall time corrected for the machine's speed as it drifts.
//
// Run it from the repository root through bench/run.sh, which builds it
// from source first:
//
//	bash bench/run.sh --workload cold-suite --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh compare A/ B/   # the paired-runs rule for claiming a gain
//	bash bench/run.sh regen           # re-record expected.json
//
// BENCHMARK.json at the repository root names the workloads and the
// metrics with their units, directions and regression bounds;
// bench/README.md explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "regen":
			os.Exit(regenMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// catalogue is BENCHMARK.json.
type catalogue struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadCatalogue() (*catalogue, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// record is one run's full outcome, written under -out; compare reads it.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Wrong     int                `json:"wrong_outputs"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON line a run ends with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: input order and check packets")
	seconds := fs.Float64("seconds", 30, "measured phase length; a workload always finishes its first pass, so a run may measure longer")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics and writes its spans")
	out := fs.String("out", ".bench_build/results", "directory for the run's record and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func run(name string, seed int64, seconds float64, traced bool, out string) error {
	cat, err := loadCatalogue()
	if err != nil {
		return err
	}
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	scratch := filepath.Join(".bench_build", "tmp")
	for _, dir := range []string{scratch, out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	e := &env{seed: seed, seconds: time.Duration(seconds * float64(time.Second)),
		scratch: scratch, sp: newSpeedometer()}
	if traced {
		e.tr = newTracer()
	}
	res, err := w(e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	res.notef("machine slowness %.3f: median over %d reference chunks of their duration / %v",
		e.sp.machineSlowness(), len(e.sp.marks), refNominal)

	rec := record{Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		Correct: res.wrong == 0, Attempted: res.attempted, Failed: res.failed, Wrong: res.wrong,
		Metrics: res.metrics, Notes: res.notes}
	defs := cat.EndToEnd
	base := fmt.Sprintf("%s-s%d", name, seed)
	if traced {
		base += "-traced"
		spans := e.tr.snapshot()
		for k, v := range layerMetrics(spans) {
			rec.Metrics[k] = v
		}
		rec.Notes = append(rec.Notes, traceSummary(spans)...)
		defs = cat.PerLayer
		if err := e.tr.write(filepath.Join(out, base+".spans.json")); err != nil {
			return err
		}
	}
	final := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rec.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s did not produce metric %s", name, d.Name)
		}
		final.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, base+".json"), data, 0o644); err != nil {
		return err
	}

	fmt.Printf("workload %s, seed %d, traced %v\n", name, seed, traced)
	for _, n := range rec.Notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  attempted %d, failed %d, wrong outputs %d\n", rec.Attempted, rec.Failed, rec.Wrong)
	names := make([]string, 0, len(final.Metrics))
	for n := range final.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, final.Metrics[n].Value, final.Metrics[n].Unit)
	}
	js, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	if !rec.Correct {
		return fmt.Errorf("%d returned programs disagree with the reference interpreter", rec.Wrong)
	}
	return nil
}
