package tcam_test

import (
	"testing"

	"parserhawk/internal/pir"
	"parserhawk/internal/tables"
)

var runSink pir.Result

// BenchmarkProgramRun measures the reference TCAM program interpreter, one
// packet per op, on the per-layer benchmark cells (tables.LayerCells).
func BenchmarkProgramRun(b *testing.B) {
	cells, err := tables.LayerCells()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cells {
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runSink = c.Program.Run(c.Packets[i%len(c.Packets)], 0)
			}
		})
	}
}
