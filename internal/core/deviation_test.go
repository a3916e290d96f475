package core

import (
	"testing"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/cert"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// Regression scenario for the silently-wrong-interior-hop class of bug:
// a TCAM entry on an interior hop carries a wrong mask bit, and the
// wrongly entered state extracts nothing and falls through to accept, so
// the mistake is invisible on exact rule patterns and on every input
// where the downstream key does not match. It only shows on the
// combination (deviating interior hop, exact downstream pattern) — the
// inputs the one-deviation directed suite provides.
//
// The spec is a three-state chain. The middle state branches on pure
// lookahead without extracting, which is what makes a wrong entry into
// it fall through silently:
//
//	start --t1==0xAA--> mid --lookahead==0xBB--> leaf
//	  |                   |                        |
//	default accept   default accept          extract + accept
func hopChainSpec(t *testing.T) *pir.Spec {
	t.Helper()
	return pir.MustNew("chain",
		[]pir.Field{{Name: "t1", Width: 8}, {Name: "pay", Width: 8}},
		[]pir.State{
			{
				Name:     "start",
				Extracts: []pir.Extract{{Field: "t1"}},
				Key:      []pir.KeyPart{pir.WholeField("t1", 8)},
				Rules:    []pir.Rule{pir.ExactRule(0xAA, 8, pir.To(1))},
				Default:  pir.AcceptTarget,
			},
			{
				Name:    "mid",
				Key:     []pir.KeyPart{pir.LookaheadBits(0, 8)},
				Rules:   []pir.Rule{pir.ExactRule(0xBB, 8, pir.To(2))},
				Default: pir.AcceptTarget,
			},
			{
				Name:     "leaf",
				Extracts: []pir.Extract{{Field: "pay"}},
				Default:  pir.AcceptTarget,
			},
		})
}

// hopChainProg is the correct match-then-extract translation of hopChainSpec.
func hopChainProg(spec *pir.Spec) *tcam.Program {
	return &tcam.Program{
		Spec: spec,
		States: []tcam.State{
			{
				Table: 0, ID: 0,
				Key: []pir.KeyPart{pir.LookaheadBits(0, 8)},
				Entries: []tcam.Entry{
					{Value: 0xAA, Mask: 0xFF, Extracts: []pir.Extract{{Field: "t1"}}, Next: tcam.To(0, 1)},
					{Value: 0, Mask: 0, Extracts: []pir.Extract{{Field: "t1"}}, Next: tcam.AcceptTarget},
				},
			},
			{
				Table: 0, ID: 1,
				Key: []pir.KeyPart{pir.LookaheadBits(0, 8)},
				Entries: []tcam.Entry{
					{Value: 0xBB, Mask: 0xFF, Next: tcam.To(0, 2)},
					{Value: 0, Mask: 0, Next: tcam.AcceptTarget},
				},
			},
			{
				Table: 0, ID: 2,
				Entries: []tcam.Entry{
					{Value: 0, Mask: 0, Extracts: []pir.Extract{{Field: "pay"}}, Next: tcam.AcceptTarget},
				},
			},
		},
	}
}

// brokenChainProg clears the low mask bit of the interior hop: first
// bytes 0xAA and 0xAB now both enter mid. On 0xAB the spec accepts at
// start while the impl wrongly sits in mid — but mid extracts nothing
// and falls through to accept, so the outcomes still agree unless the
// second byte is exactly 0xBB.
func brokenChainProg(spec *pir.Spec) *tcam.Program {
	prog := hopChainProg(spec)
	prog.States[0].Entries[0].Mask = 0xFE
	return prog
}

// bytesInput packs bytes MSB-first into a bit stream of n bits.
func bytesInput(n int, bs ...byte) bitstream.Bits {
	in := make(bitstream.Bits, n)
	for i, b := range bs {
		for j := 0; j < 8 && i*8+j < n; j++ {
			in[i*8+j] = b >> uint(7-j) & 1
		}
	}
	return in
}

func TestInteriorHopDeviationIsSilentOnExactPatterns(t *testing.T) {
	spec := hopChainSpec(t)
	bad := brokenChainProg(spec)
	v, err := newVerifier(spec, DefaultOptions(), 7)
	if err != nil {
		t.Fatal(err)
	}
	k := v.maxIterBudget()
	agree := func(bs ...byte) bool {
		in := bytesInput(v.maxLen, bs...)
		return bad.Run(in, k).Same(spec.Run(in, k))
	}
	// Exact patterns and single deviations are silent: the wrong mask bit
	// needs BOTH the deviating first byte and the matching second byte.
	for _, tc := range []struct {
		name string
		bs   []byte
	}{
		{"exact path", []byte{0xAA, 0xBB, 0x5C}},
		{"deviating hop, quiet downstream", []byte{0xAB, 0x00, 0x5C}},
		{"exact hop, matching downstream", []byte{0xAA, 0xBB, 0x00}},
	} {
		if !agree(tc.bs...) {
			t.Fatalf("%s: expected silent agreement on % x", tc.name, tc.bs)
		}
	}
	if agree(0xAB, 0xBB, 0x5C) {
		t.Fatal("deviating hop with matching downstream key should diverge")
	}
}

func TestDirectedSuiteCatchesInteriorHopDeviation(t *testing.T) {
	spec := hopChainSpec(t)
	good := hopChainProg(spec)
	bad := brokenChainProg(spec)
	v, err := newVerifier(spec, DefaultOptions(), 7)
	if err != nil {
		t.Fatal(err)
	}
	k := v.maxIterBudget()

	// The correct program is equivalent: no counterexample anywhere.
	if cex, found, _ := v.counterexample(good); found {
		t.Fatalf("correct program rejected on %s", cex)
	}

	// The deterministic one-deviation suite alone must expose the wrong
	// interior mask bit — no reliance on random sampling luck.
	// Both the reference interpreters and the verifier's lowered check
	// must see it.
	lowBad := lowerProgram(bad, v.low)
	caught, caughtLowered := false, false
	v.directedSuite(func(in bitstream.Bits) bool {
		caught = caught || !bad.Run(in, k).Same(spec.Run(in, k))
		caughtLowered = caughtLowered || v.differs(lowBad, in)
		return !caught || !caughtLowered
	})
	if !caught || !caughtLowered {
		t.Fatalf("one-deviation directed suite missed the wrong interior-hop mask bit (reference %v, lowered %v)", caught, caughtLowered)
	}
	if _, found, _ := v.counterexample(bad); !found {
		t.Fatal("counterexample search missed the wrong interior-hop mask bit")
	}
}

func TestWitnessCatchesInteriorHopDeviation(t *testing.T) {
	spec := hopChainSpec(t)
	good := hopChainProg(spec)
	bad := brokenChainProg(spec)

	// The certificate-side checker accepts the correct translation...
	w, err := cert.BuildWitness(spec, good)
	if err != nil {
		t.Fatalf("BuildWitness rejected the correct program: %v", err)
	}
	if err := cert.CheckWitness(spec, good, w); err != nil {
		t.Fatalf("CheckWitness rejected the correct program: %v", err)
	}

	// ...and independently rejects the deviating one, even though the
	// deviation is silent on almost all inputs. The witness checker's
	// product traversal explores the symbolic configuration where the
	// impl wrongly sits in mid while the spec has accepted, so it does
	// not depend on any concrete input hitting the 2^-16 corner.
	if _, err := cert.BuildWitness(spec, bad); err == nil {
		t.Fatal("BuildWitness accepted a program with a wrong interior-hop mask bit")
	}
	if err := cert.CheckWitness(spec, bad, w); err == nil {
		t.Fatal("CheckWitness accepted a program with a wrong interior-hop mask bit")
	}
}
