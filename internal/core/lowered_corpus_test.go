package core_test

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
	"parserhawk/internal/tables"
)

// TestLoweredCheckCorpus is the equivalence property over every example
// spec (on the full Tofino, the target the examples document) and the
// 132-cell Table 3 suite (benchdata.All on the three scaled devices, the
// wire-scale set on the three full ones): on at least 10k inputs per
// program, from the verifier's exhaustive, directed and random generators,
// the lowered check must equal the reference interpreters' verdict — for
// each compiled program and for corrupted copies of it.
func TestLoweredCheckCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole suite")
	}
	type cell struct {
		name    string
		spec    *pir.Spec
		profile hw.Profile
		maxIter int
	}
	var cells []cell
	paths, err := filepath.Glob("../../examples/*/*.p4")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := p4.ParseSpec(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		cells = append(cells, cell{filepath.Base(filepath.Dir(path)), spec, hw.Tofino(), 0})
	}
	add := func(benches []benchdata.Benchmark, profiles ...hw.Profile) {
		for _, b := range benches {
			for _, p := range profiles {
				cells = append(cells, cell{b.Name(), b.Spec, p, b.MaxIterations})
			}
		}
	}
	add(benchdata.All(), tables.TofinoScaled(), tables.IPUScaled(), tables.FPGAScaled())
	add(benchdata.WireScale(), hw.Tofino(), hw.IPU(), hw.FPGAStreaming())

	var caught atomic.Int64
	t.Run("cells", func(t *testing.T) {
		for i, c := range cells {
			t.Run(c.name+"@"+c.profile.Name, func(t *testing.T) {
				t.Parallel()
				want, prog, err := tables.CompileContract(c.spec, c.profile, c.maxIter)
				if err != nil {
					t.Fatal(err)
				}
				caught.Add(int64(core.CrossCheckLowered(t, want, prog, 10000, int64(i))))
			})
		}
	})
	if caught.Load() == 0 {
		t.Fatal("no corrupted program disagreed anywhere: disagreement never exercised")
	}
}

// BenchmarkVerifierCheck measures the verifier's lowered equivalence check,
// one input per op, on the layer cells' packets. Compare it with
// BenchmarkSpecRun plus BenchmarkProgramRun, the reference it replaces.
func BenchmarkVerifierCheck(b *testing.B) {
	cells, err := tables.LayerCells()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cells {
		b.Run(c.Name, func(b *testing.B) {
			check, err := core.LoweredCheck(c.Spec, c.Program)
			if err != nil {
				b.Fatal(err)
			}
			// One pass sizes the register files, so that even -benchtime 1x
			// reports the steady state: 0 allocs/op.
			for _, in := range c.Packets {
				check(in)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if check(c.Packets[i%len(c.Packets)]) {
					b.Fatal("compiled program disagrees with its spec")
				}
			}
		})
	}
}
