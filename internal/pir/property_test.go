package pir

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parserhawk/internal/bitstream"
)

// Property: interpretation is deterministic and padding-invariant — a
// zero-extended input yields the same result.
func TestRunPaddingInvariance(t *testing.T) {
	spec := MustNew("pad",
		[]Field{{Name: "a", Width: 3}, {Name: "b", Width: 5}},
		[]State{
			{
				Name:     "S",
				Extracts: []Extract{{Field: "a"}},
				Key:      []KeyPart{WholeField("a", 3)},
				Rules:    []Rule{ExactRule(5, 3, To(1))},
				Default:  AcceptTarget,
			},
			{Name: "T", Extracts: []Extract{{Field: "b"}}, Default: AcceptTarget},
		})
	f := func(v uint8, pad uint8) bool {
		in := bitstream.FromUint(uint64(v), 8)
		padded := in.Concat(make(bitstream.Bits, int(pad)%16))
		return spec.Run(in, 0).Same(spec.Run(padded, 0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MaxConsumedBits really bounds consumption for arbitrary
// inputs and iteration budgets.
func TestMaxConsumedBitsIsAnUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	specs := []*Spec{
		MustNew("loop", []Field{{Name: "l", Width: 4}},
			[]State{{
				Name:     "L",
				Extracts: []Extract{{Field: "l"}},
				Key:      []KeyPart{FieldSlice("l", 3, 4)},
				Rules:    []Rule{ExactRule(0, 1, To(0))},
				Default:  AcceptTarget,
			}}),
		MustNew("dag",
			[]Field{{Name: "a", Width: 2}, {Name: "b", Width: 6}},
			[]State{
				{
					Name:     "A",
					Extracts: []Extract{{Field: "a"}},
					Key:      []KeyPart{WholeField("a", 2)},
					Rules:    []Rule{ExactRule(1, 2, To(1))},
					Default:  AcceptTarget,
				},
				{Name: "B", Extracts: []Extract{{Field: "b"}}, Default: AcceptTarget},
			}),
	}
	for _, spec := range specs {
		for _, k := range []int{1, 2, 3, 5, 8} {
			bound := spec.MaxConsumedBits(k)
			for i := 0; i < 200; i++ {
				in := bitstream.Random(rng, bound+8)
				if got := spec.Run(in, k).Consumed; got > bound {
					t.Fatalf("%s k=%d: consumed %d > bound %d", spec.Name, k, got, bound)
				}
			}
		}
	}
}

// Property: Reachable is consistent with actual execution paths.
func TestReachableSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	spec := MustNew("r",
		[]Field{{Name: "k", Width: 3}},
		[]State{
			{
				Name:     "S0",
				Extracts: []Extract{{Field: "k"}},
				Key:      []KeyPart{WholeField("k", 3)},
				Rules:    []Rule{ExactRule(1, 3, To(1)), ExactRule(2, 3, To(2))},
				Default:  AcceptTarget,
			},
			{Name: "S1", Default: AcceptTarget},
			{Name: "S2", Default: AcceptTarget},
			{Name: "dead", Default: AcceptTarget},
		})
	reach := spec.Reachable()
	visited := map[int]bool{}
	for i := 0; i < 500; i++ {
		res := spec.Run(bitstream.Random(rng, 3), 0)
		for _, s := range res.Path {
			visited[s] = true
		}
	}
	for s := range visited {
		if !reach[s] {
			t.Errorf("state %d visited but not reachable", s)
		}
	}
	if reach[3] {
		t.Error("dead state must be unreachable")
	}
}
