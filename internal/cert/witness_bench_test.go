package cert_test

import (
	"testing"

	"parserhawk/internal/cert"
	"parserhawk/internal/tables"
)

// BenchmarkWalk measures the product-automaton walk that accepts every
// CEGIS candidate, one whole walk per op, on the per-layer benchmark
// cells (tables.LayerCells).
func BenchmarkWalk(b *testing.B) {
	cells, err := tables.LayerCells()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cells {
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cert.Walk(c.Spec, c.Program); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
