package core_test

import (
	"testing"

	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/tables"
)

// BenchmarkAddTestCase measures example encoding, the CEGIS step that
// appends Figure 9's simulation circuit for one input to the ladder's
// solver: per op, a fresh synthesizer for the cell's first skeleton
// encodes 32 seeded inputs. vars/op is the CNF it builds.
func BenchmarkAddTestCase(b *testing.B) {
	cells := []struct {
		bench   string
		profile hw.Profile
	}{
		{"Parse MPLS", tables.TofinoScaled()},
		{"Wire QinQ", hw.Tofino()},
		{"Sai V2", tables.TofinoScaled()},
	}
	for _, c := range cells {
		b.Run(c.bench+"@"+c.profile.Name, func(b *testing.B) {
			bench := suiteBench(b, c.bench)
			encode, err := core.EncodeExamples(bench.Spec, c.profile, bench.MaxIterations, 32)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			vars := 0
			for i := 0; i < b.N; i++ {
				if vars, err = encode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(vars), "vars/op")
		})
	}
}
