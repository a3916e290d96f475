package fuzz

// Native go test -fuzz targets. They run their seed corpora (f.Add plus
// testdata/fuzz/<Name>/) on every plain `go test`, and explore with the
// coverage-guided engine under `go test -fuzz=FuzzSpecInterp` /
// `-fuzz=FuzzCanonicalize`. Unlike the differential campaign (which needs a
// compile per spec), these targets exercise only front-end invariants —
// parse, interpret, canonicalize — so the engine gets millions of
// executions per minute.

import (
	"testing"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/bitstream"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
)

// FuzzSpecInterp fuzzes the §4 reference interpreter: any source the P4
// front end accepts must interpret without panicking, and Run, RunTrace,
// and the consumption bound must stay mutually consistent.
func FuzzSpecInterp(f *testing.F) {
	f.Add(benchdata.FuzzSeedSrcA, []byte{0x4a}, 0)
	f.Add(benchdata.FuzzSeedSrcB, []byte{0x55, 0xaa}, 8)
	f.Add(benchdata.FuzzSeedSrcC, []byte{0xff, 0x00}, 3)
	f.Fuzz(func(t *testing.T, src string, packet []byte, maxIter int) {
		spec, err := p4.ParseSpec(src)
		if err != nil {
			t.Skip()
		}
		if maxIter < 0 || maxIter > 4*pir.DefaultMaxIterations {
			maxIter = 0
		}
		in := bitstream.FromBytes(packet)
		res := spec.Run(in, maxIter)
		traced, trace := spec.RunTrace(in, maxIter)

		if res.Accepted && res.Rejected {
			t.Fatalf("both accepted and rejected: %+v", res)
		}
		if !res.Same(traced) || res.Accepted != traced.Accepted || res.Rejected != traced.Rejected {
			t.Fatalf("Run and RunTrace disagree: %+v vs %+v", res, traced)
		}
		if len(trace) != len(traced.Path) {
			t.Fatalf("trace length %d != path length %d", len(trace), len(traced.Path))
		}
		for i, step := range trace {
			if step.State != traced.Path[i] {
				t.Fatalf("trace step %d attributes state %d, path says %d", i, step.State, traced.Path[i])
			}
			if step.State < 0 || step.State >= len(spec.States) {
				t.Fatalf("trace step %d: state %d out of range", i, step.State)
			}
			if nr := len(spec.States[step.State].Rules); step.Rule < -1 || step.Rule >= nr {
				t.Fatalf("trace step %d: rule %d out of range [-1,%d)", i, step.Rule, nr)
			}
		}
		if bound := spec.MaxConsumedBits(maxIter); res.Consumed > bound {
			t.Fatalf("consumed %d bits, static bound says at most %d", res.Consumed, bound)
		}
	})
}

// FuzzCanonicalize fuzzes the spec canonicalizer: the canonical form must
// validate, canonicalization must be idempotent, and the witness must map
// canonical executions back to the original's observable behavior.
func FuzzCanonicalize(f *testing.F) {
	f.Add(benchdata.FuzzSeedSrcA, []byte{0x4a})
	f.Add(benchdata.FuzzSeedSrcB, []byte{0x55, 0xaa})
	f.Add(benchdata.FuzzSeedSrcC, []byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, src string, packet []byte) {
		spec, err := p4.ParseSpec(src)
		if err != nil {
			t.Skip()
		}
		canon, wit, err := pir.Canonicalize(spec)
		if err != nil {
			t.Fatalf("canonicalize rejected a parsed spec: %v", err)
		}
		if err := canon.Validate(); err != nil {
			t.Fatalf("canonical form does not validate: %v", err)
		}

		again, _, err := pir.Canonicalize(canon)
		if err != nil {
			t.Fatalf("re-canonicalize: %v", err)
		}
		if canon.String() != again.String() {
			t.Fatalf("canonicalize not idempotent:\n%s\nvs\n%s", canon, again)
		}

		in := bitstream.FromBytes(packet)
		want := spec.Run(in, 0)
		got := canon.Run(in, 0)
		got.Dict = wit.OrigDict(got.Dict)
		if !got.Same(want) {
			t.Fatalf("canonical spec not equivalent on input %s:\norig %+v\ncanon %+v", in, want, got)
		}
	})
}
