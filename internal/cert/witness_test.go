package cert

import (
	"errors"
	"testing"

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

func TestWitnessRoundTrip(t *testing.T) {
	spec := miniSpec(t)
	prog := miniProg(spec)
	w, err := BuildWitness(spec, prog)
	if err != nil {
		t.Fatalf("BuildWitness: %v", err)
	}
	want := map[Pair]bool{
		{Spec: "start", Impl: "0.0"}: true,
		{Spec: "v4", Impl: "0.1"}:    true,
	}
	if len(w.Pairs) != len(want) {
		t.Fatalf("got pairs %v, want %v", w.Pairs, want)
	}
	for _, p := range w.Pairs {
		if !want[p] {
			t.Fatalf("unexpected pair %s", p)
		}
	}
	if err := CheckWitness(spec, prog, w); err != nil {
		t.Fatalf("CheckWitness: %v", err)
	}
}

func TestWitnessRejectsMissingPair(t *testing.T) {
	spec := miniSpec(t)
	prog := miniProg(spec)
	w, err := BuildWitness(spec, prog)
	if err != nil {
		t.Fatalf("BuildWitness: %v", err)
	}
	for i := range w.Pairs {
		cut := &Witness{Pairs: append(append([]Pair(nil), w.Pairs[:i]...), w.Pairs[i+1:]...)}
		if err := CheckWitness(spec, prog, cut); err == nil {
			t.Fatalf("dropping pair %s was not rejected", w.Pairs[i])
		}
	}
}

func TestWitnessCatchesWrongTarget(t *testing.T) {
	spec := miniSpec(t)
	prog := miniProg(spec)
	// Corrupt the program: the IPv4 branch accepts immediately instead
	// of extracting the next byte.
	prog.States[0].Entries[0].Next = tcam.AcceptTarget
	if _, err := BuildWitness(spec, prog); !errors.Is(err, ErrMismatch) {
		t.Fatalf("BuildWitness on a program that skips an extraction: %v, want ErrMismatch", err)
	}
	w, _ := BuildWitness(spec, miniProg(spec))
	if err := CheckWitness(spec, prog, w); err == nil {
		t.Fatal("CheckWitness accepted a program that skips an extraction")
	}
}

func TestWitnessCatchesExtractionMismatch(t *testing.T) {
	spec := miniSpec(t)
	prog := miniProg(spec)
	prog.States[0].Entries[1].Extracts = nil // accept path forgets the extraction
	if _, err := BuildWitness(spec, prog); !errors.Is(err, ErrMismatch) {
		t.Fatalf("BuildWitness on a program that drops an extraction: %v, want ErrMismatch", err)
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
	if _, err := BuildWitness(spec, prog); err != nil {
		t.Fatalf("BuildWitness rejected a program with a shadowed entry: %v", err)
	}
}

func TestWitnessNoMatchMustReject(t *testing.T) {
	// An impl state whose entries do not cover the key space rejects on
	// the uncovered values while the spec accepts: must be caught.
	spec := miniSpec(t)
	prog := miniProg(spec)
	prog.States[0].Entries = prog.States[0].Entries[:1] // only the 0x0800 entry
	if _, err := BuildWitness(spec, prog); !errors.Is(err, ErrMismatch) {
		t.Fatalf("BuildWitness on a program with an uncovered key space: %v, want ErrMismatch", err)
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
	_, err := BuildWitness(spec, prog)
	if err == nil || errors.Is(err, ErrMismatch) {
		t.Fatalf("BuildWitness on a field-width mismatch: %v, want a non-mismatch failure", err)
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
