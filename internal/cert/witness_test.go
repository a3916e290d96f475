package cert

import (
	"errors"
	"strings"
	"testing"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// miniSpec is an ethernet-like two-state spec: extract a 16-bit type,
// branch on it, maybe extract one more byte.
func miniSpec(t *testing.T) *pir.Spec {
	t.Helper()
	return pir.MustNew("mini",
		[]pir.Field{{Name: "ethertype", Width: 16}, {Name: "v4", Width: 8}},
		[]pir.State{
			{
				Name:     "start",
				Extracts: []pir.Extract{{Field: "ethertype"}},
				Key:      []pir.KeyPart{pir.WholeField("ethertype", 16)},
				Rules:    []pir.Rule{pir.ExactRule(0x0800, 16, pir.To(1))},
				Default:  pir.AcceptTarget,
			},
			{
				Name:     "v4",
				Extracts: []pir.Extract{{Field: "v4"}},
				Default:  pir.AcceptTarget,
			},
		})
}

// miniProg is the match-then-extract TCAM translation of miniSpec: the
// type is matched by lookahead before it is extracted.
func miniProg(spec *pir.Spec) *tcam.Program {
	return &tcam.Program{
		Spec: spec,
		States: []tcam.State{
			{
				Table: 0, ID: 0,
				Key: []pir.KeyPart{pir.LookaheadBits(0, 16)},
				Entries: []tcam.Entry{
					{Value: 0x0800, Mask: 0xffff, Extracts: []pir.Extract{{Field: "ethertype"}}, Next: tcam.To(0, 1)},
					{Value: 0, Mask: 0, Extracts: []pir.Extract{{Field: "ethertype"}}, Next: tcam.AcceptTarget},
				},
			},
			{
				Table: 0, ID: 1,
				Entries: []tcam.Entry{
					{Value: 0, Mask: 0, Extracts: []pir.Extract{{Field: "v4"}}, Next: tcam.AcceptTarget},
				},
			},
		},
	}
}

// TestWitnessRoundTrip: the walk proves the translation, a certificate
// carrying the spec and program survives Encode and Decode and checks,
// and Decode refuses another schema version.
func TestWitnessRoundTrip(t *testing.T) {
	spec := miniSpec(t)
	prog := miniProg(spec)
	if err := Walk(spec, prog); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	eff, err := EncodeSpecJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := prog.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	data, err := (&Certificate{Version: Version, Spec: spec.Name, Effective: eff, Program: pj}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := c.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}
	c.Version = 1
	if data, err = c.Encode(); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Fatal("Decode accepted a version-1 certificate")
	}
}

func TestWitnessCatchesWrongTarget(t *testing.T) {
	spec := miniSpec(t)
	prog := miniProg(spec)
	// Corrupt the program: the IPv4 branch accepts immediately instead
	// of extracting the next byte.
	prog.States[0].Entries[0].Next = tcam.AcceptTarget
	if err := Walk(spec, prog); !errors.Is(err, ErrMismatch) {
		t.Fatalf("Walk on a program that skips an extraction: %v, want ErrMismatch", err)
	}
}

func TestWitnessCatchesExtractionMismatch(t *testing.T) {
	spec := miniSpec(t)
	prog := miniProg(spec)
	prog.States[0].Entries[1].Extracts = nil // accept path forgets the extraction
	if err := Walk(spec, prog); !errors.Is(err, ErrMismatch) {
		t.Fatalf("Walk on a program that drops an extraction: %v, want ErrMismatch", err)
	}
}

func TestWitnessShadowedEntryPruned(t *testing.T) {
	// The second, fully-wildcarded entry shadows everything after it;
	// an unreachable garbage entry must not fail the check.
	spec := miniSpec(t)
	prog := miniProg(spec)
	prog.States[0].Entries = append(prog.States[0].Entries, tcam.Entry{
		Value: 0x1234, Mask: 0xffff, Next: tcam.RejectTarget,
	})
	if err := Walk(spec, prog); err != nil {
		t.Fatalf("Walk rejected a program with a shadowed entry: %v", err)
	}
}

func TestWitnessNoMatchMustReject(t *testing.T) {
	// An impl state whose entries do not cover the key space rejects on
	// the uncovered values while the spec accepts: must be caught.
	spec := miniSpec(t)
	prog := miniProg(spec)
	prog.States[0].Entries = prog.States[0].Entries[:1] // only the 0x0800 entry
	if err := Walk(spec, prog); !errors.Is(err, ErrMismatch) {
		t.Fatalf("Walk on a program with an uncovered key space: %v, want ErrMismatch", err)
	}
}

// TestWalkRefutesNonConsumingCycle: the spec extracts a 4-bit a and
// accepts. When a's top bit is 0, rows 0.0 and 0.1 send the packet to
// each other without extracting anything, so the device rejects at its
// visit bound. Every single transition agrees with the spec; only the
// cycle disagrees.
func TestWalkRefutesNonConsumingCycle(t *testing.T) {
	spec := pir.MustNew("stutter",
		[]pir.Field{{Name: "a", Width: 4}},
		[]pir.State{{Name: "start", Extracts: []pir.Extract{{Field: "a"}}, Default: pir.AcceptTarget}})
	prog := &tcam.Program{
		Spec: spec,
		States: []tcam.State{
			{
				Table: 0, ID: 0,
				Key: []pir.KeyPart{pir.LookaheadBits(0, 1)},
				Entries: []tcam.Entry{
					{Value: 1, Mask: 1, Extracts: []pir.Extract{{Field: "a"}}, Next: tcam.AcceptTarget},
					{Value: 0, Mask: 0, Next: tcam.To(0, 1)},
				},
			},
			{
				Table: 0, ID: 1,
				Entries: []tcam.Entry{{Value: 0, Mask: 0, Next: tcam.To(0, 0)}},
			},
		},
	}
	in := bitstream.FromUint(0x3, 4)
	if got, want := prog.Run(in, 64), spec.Run(in, 64); got.Accepted || !want.Accepted {
		t.Fatalf("fixture: device accepted=%v, spec accepted=%v on %s; want a reject against an accept", got.Accepted, want.Accepted, in)
	}
	err := Walk(spec, prog)
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("Walk on a non-consuming cycle: %v, want ErrMismatch", err)
	}
	const want = "loops without consuming input from row 0.0 while the spec side is at start"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Walk: %v, want a message containing %q", err, want)
	}
	var me *MismatchError
	if !errors.As(err, &me) || prog.Run(me.Packet, 64).Accepted || !spec.Run(me.Packet, 64).Accepted {
		t.Fatalf("Walk: %#v, want a packet the device rejects and the spec accepts", err)
	}

	// A non-consuming hop that leaves the cycle is no disagreement.
	prog.States[1].Entries[0].Extracts = []pir.Extract{{Field: "a"}}
	prog.States[1].Entries[0].Next = tcam.AcceptTarget
	if err := Walk(spec, prog); err != nil {
		t.Fatalf("Walk on a non-consuming hop to an extracting row: %v", err)
	}
}

// TestWitnessFieldWidthIsNoMismatch: a program whose field table
// disagrees with the spec's is refused, but the walk never ran, so the
// failure says nothing about the machines disagreeing.
func TestWitnessFieldWidthIsNoMismatch(t *testing.T) {
	spec := miniSpec(t)
	prog := miniProg(pir.MustNew("mini",
		[]pir.Field{{Name: "ethertype", Width: 16}, {Name: "v4", Width: 16}},
		spec.States))
	err := Walk(spec, prog)
	if err == nil || errors.Is(err, ErrMismatch) {
		t.Fatalf("Walk on a field-width mismatch: %v, want a non-mismatch failure", err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := miniSpec(t)
	data, err := EncodeSpecJSON(spec)
	if err != nil {
		t.Fatalf("EncodeSpecJSON: %v", err)
	}
	back, err := DecodeSpecJSON(data)
	if err != nil {
		t.Fatalf("DecodeSpecJSON: %v", err)
	}
	if back.String() != spec.String() {
		t.Fatalf("spec round-trip drift:\n%s\nvs\n%s", back, spec)
	}
}

func TestCheckDRAT(t *testing.T) {
	cnf := "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"
	proof := "2 0\n0\n"
	if err := CheckDRAT([]byte(cnf), []byte(proof)); err != nil {
		t.Fatalf("valid refutation rejected: %v", err)
	}
	// Dropping the lemma leaves the empty clause underivable.
	if err := CheckDRAT([]byte(cnf), []byte("0\n")); err == nil {
		t.Fatal("truncated proof accepted")
	}
	// A non-RUP addition must be rejected, even one a comment labels an
	// import.
	bogus := "c import\n3 0\n0\n"
	if err := CheckDRAT([]byte(cnf), []byte(bogus)); err == nil {
		t.Fatal("checker accepted a non-RUP addition")
	}
	// A satisfiable instance has no refutation.
	sat := "p cnf 2 1\n1 2 0\n"
	if err := CheckDRAT([]byte(sat), []byte("0\n")); err == nil {
		t.Fatal("claimed refutation of a satisfiable instance accepted")
	}
	if err := CheckDRAT([]byte("garbage in"), []byte("0\n")); err == nil {
		t.Fatal("malformed DIMACS not reported")
	}
}

func TestCheckDRATDeletion(t *testing.T) {
	cnf := "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"
	proof := "2 0\nd 1 2 0\n0\n"
	if err := CheckDRAT([]byte(cnf), []byte(proof)); err != nil {
		t.Fatalf("refutation with deletion rejected: %v", err)
	}
}

// TestCheckDRATRepeatedLiteral: a clause that repeats a literal means
// the clause without the repeat, and one holding l and ¬l is satisfied.
func TestCheckDRATRepeatedLiteral(t *testing.T) {
	for _, first := range []string{"1 2 0", "1 1 2 0", "2 1 2 1 0"} {
		cnf := "p cnf 3 4\n" + first + "\n-2 0\n-1 3 0\n-1 -3 0\n"
		if err := CheckDRAT([]byte(cnf), []byte("0\n")); err != nil {
			t.Errorf("first clause %q: valid refutation rejected: %v", first, err)
		}
	}
	// A tautology constrains nothing: this instance is satisfiable.
	if err := CheckDRAT([]byte("p cnf 2 2\n1 -1 0\n-2 2 0\n"), []byte("0\n")); err == nil {
		t.Error("claimed refutation of a satisfiable instance with tautologies accepted")
	}
	// A deletion names its clause in the same normal form: once "1 2"
	// is deleted by "d 2 1 1", re-adding it is no longer RUP.
	err := CheckDRAT([]byte("p cnf 2 1\n1 2 0\n"), []byte("d 2 1 1 0\n1 2 0\n0\n"))
	if err == nil || !strings.Contains(err.Error(), "not RUP") {
		t.Errorf("re-adding a deleted clause: %v, want a non-RUP rejection", err)
	}
}

// TestWalkWithoutPacketIsPlainMismatch: a refutation the interpreters do
// not replay carries no packet.
//
//   - spurious: the program is right on every input, but once field f is
//     extracted again, gc drops the clauses that made its second bit 0,
//     so the walk follows a branch with f = 1 that no packet takes. Its
//     trail has no model.
//   - varbit: the program really is wrong, on the 16 bits after a
//     varbit, whose positions depend on the packet. Neither zeros, ones
//     nor the six random fills put 0xA5C3 there.
func TestWalkWithoutPacketIsPlainMismatch(t *testing.T) {
	extract := func(fs ...string) []pir.Extract {
		var out []pir.Extract
		for _, f := range fs {
			out = append(out, pir.Extract{Field: f})
		}
		return out
	}
	spurious := pir.MustNew("spurious",
		[]pir.Field{{Name: "f", Width: 1}, {Name: "g", Width: 1}},
		[]pir.State{
			{
				Name: "s0", Extracts: extract("f"),
				Key: []pir.KeyPart{pir.WholeField("f", 1), pir.LookaheadBits(0, 1)},
				Rules: []pir.Rule{
					pir.ExactRule(0b11, 2, pir.RejectTarget),
					pir.ExactRule(0b01, 2, pir.RejectTarget),
				},
				Default: pir.To(1),
			},
			{Name: "s1", Extracts: extract("f"), Default: pir.To(2)},
			{
				Name: "s2", Extracts: extract("g"),
				Key:     []pir.KeyPart{pir.WholeField("f", 1)},
				Rules:   []pir.Rule{pir.ExactRule(1, 1, pir.AcceptTarget)},
				Default: pir.RejectTarget,
			},
		})
	varbit := pir.MustNew("varbit",
		[]pir.Field{{Name: "len", Width: 4}, {Name: "opt", Width: 32, Var: true}, {Name: "x", Width: 1}},
		[]pir.State{
			{
				Name:     "s0",
				Extracts: []pir.Extract{{Field: "len"}, {Field: "opt", LenField: "len", LenScale: 8}},
				Key:      []pir.KeyPart{pir.LookaheadBits(0, 16)},
				Rules:    []pir.Rule{pir.ExactRule(0xA5C3, 16, pir.To(1))},
				Default:  pir.AcceptTarget,
			},
			{Name: "s1", Extracts: extract("x"), Default: pir.AcceptTarget},
		})
	for _, tc := range []struct {
		name string
		prog *tcam.Program
		// wrongOn is an input the program mishandles; nil when it agrees
		// with the spec on every input.
		wrongOn bitstream.Bits
	}{
		{"spurious", &tcam.Program{Spec: spurious, States: []tcam.State{
			{Table: 0, ID: 0, Key: []pir.KeyPart{pir.LookaheadBits(0, 2)}, Entries: []tcam.Entry{
				{Value: 0b11, Mask: 0b11, Extracts: extract("f"), Next: tcam.RejectTarget},
				{Value: 0b01, Mask: 0b11, Extracts: extract("f"), Next: tcam.RejectTarget},
				{Extracts: extract("f"), Next: tcam.To(0, 1)},
			}},
			{Table: 0, ID: 1, Entries: []tcam.Entry{{Extracts: extract("f"), Next: tcam.To(0, 2)}}},
			{Table: 0, ID: 2, Key: []pir.KeyPart{pir.WholeField("f", 1)}, Entries: []tcam.Entry{
				{Value: 1, Mask: 1, Extracts: extract("g"), Next: tcam.RejectTarget},
				{Extracts: extract("g"), Next: tcam.RejectTarget},
			}},
		}}, nil},
		{"varbit", &tcam.Program{Spec: varbit, States: []tcam.State{
			{Table: 0, ID: 0, Entries: []tcam.Entry{{Extracts: varbit.States[0].Extracts, Next: tcam.To(0, 1)}}},
			{Table: 0, ID: 1, Key: []pir.KeyPart{pir.LookaheadBits(0, 16)}, Entries: []tcam.Entry{
				{Value: 0xA5C3, Mask: 0xFFFF, Next: tcam.AcceptTarget},
				{Next: tcam.AcceptTarget},
			}},
		}}, bitstream.FromUint(0, 4).Concat(bitstream.FromUint(0xA5C3, 16))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.prog.Spec
			if tc.wrongOn != nil && spec.Run(tc.wrongOn, 0).Same(tc.prog.Run(tc.wrongOn, 0)) {
				t.Fatalf("fixture: the program is right on %s", tc.wrongOn)
			}
			for x := uint64(0); tc.wrongOn == nil && x < 16; x++ {
				if in := bitstream.FromUint(x, 4); !spec.Run(in, 0).Same(tc.prog.Run(in, 0)) {
					t.Fatalf("fixture: the program is wrong on %s", in)
				}
			}
			err := Walk(spec, tc.prog)
			var me *MismatchError
			if !errors.Is(err, ErrMismatch) || errors.As(err, &me) {
				t.Fatalf("Walk: %v (%T), want the plain ErrMismatch", err, err)
			}
		})
	}
}
