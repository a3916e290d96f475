package cert_test

import (
	"errors"
	"slices"
	"testing"

	"parserhawk/internal/cert"
	"parserhawk/internal/tables"
	"parserhawk/internal/tcam"
)

// BenchmarkWalk measures the product-automaton walk that accepts every
// CEGIS candidate, one whole walk per op, on the per-layer benchmark
// cells (tables.LayerCells), and the walk that refutes one and replays
// its packet, on the Parse MPLS cell with its loop entry's extraction
// dropped (the stutter mutant of TestWalkRefutesMPLSStutter).
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
	mpls := cells[0]
	stutter := &tcam.Program{Spec: mpls.Program.Spec, States: slices.Clone(mpls.Program.States)}
	row := &stutter.States[0]
	row.Entries = slices.Clone(row.Entries)
	if loop := &row.Entries[0]; loop.Next != tcam.To(row.Table, row.ID) || len(loop.Extracts) == 0 {
		b.Fatalf("%s: first entry is not an extracting self-loop:\n%s", mpls.Name, mpls.Program)
	}
	row.Entries[0].Extracts = nil
	b.Run(mpls.Name+"-stutter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var me *cert.MismatchError
			if err := cert.Walk(mpls.Spec, stutter); !errors.As(err, &me) {
				b.Fatalf("Walk on the stutter mutant: %v, want a refutation with a packet", err)
			}
		}
	})
}
