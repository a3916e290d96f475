package main

import (
	"os"
	"testing"
	"time"
)

// The benchmark reads its data files and BENCHMARK.json relative to the
// repository root, where bench/run.sh runs it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at the smoke size, traced, and checks that
// it completes with correct outputs and produces every metric
// BENCHMARK.json lists, end-to-end and per-layer.
func TestSmoke(t *testing.T) {
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range cat.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			run, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json lists workload %s, which the benchmark does not define", w.Name)
			}
			e := &env{seed: 3, seconds: time.Second, tr: newTracer(), small: true, scratch: dir, sp: newSpeedometer()}
			res, err := run(e)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.failed != 0 || res.wrong != 0 {
				t.Fatalf("attempted %d, failed %d, wrong %d; notes: %q", res.attempted, res.failed, res.wrong, res.notes)
			}
			for _, d := range cat.EndToEnd {
				if v, ok := res.metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v), want > 0", d.Name, v, ok)
				}
			}
			layers := layerMetrics(e.tr.snapshot())
			for _, d := range cat.PerLayer {
				if _, ok := layers[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			if len(layers) != len(cat.PerLayer) {
				t.Errorf("layerMetrics gives %d metrics, BENCHMARK.json lists %d", len(layers), len(cat.PerLayer))
			}
		})
	}
}
