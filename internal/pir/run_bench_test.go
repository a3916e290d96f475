package pir_test

import (
	"testing"

	"parserhawk/internal/pir"
	"parserhawk/internal/tables"
)

var runSink pir.Result

// BenchmarkSpecRun measures the reference specification interpreter, one
// packet per op, on the per-layer benchmark cells (tables.LayerCells).
func BenchmarkSpecRun(b *testing.B) {
	cells, err := tables.LayerCells()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cells {
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runSink = c.Spec.Run(c.Packets[i%len(c.Packets)], 0)
			}
		})
	}
}
