package core_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/cert"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/p4"
	"parserhawk/internal/sim"
	"parserhawk/internal/tables"
)

// certCompile compiles one benchmark with certificates and proof logging
// on, skipping (not failing) on timeout so slow CI machines degrade
// gracefully; every completed compile must carry a checkable certificate.
func certCompile(t *testing.T, b benchdata.Benchmark, profile hw.Profile) *core.Result {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Timeout = 60 * time.Second
	opts.MaxIterations = b.MaxIterations
	opts.EmitCertificate = true
	opts.LogProofs = true
	res, err := core.Compile(b.Spec, profile, opts)
	if errors.Is(err, core.ErrTimeout) {
		t.Skipf("%s on %s: timed out", b.Name(), profile.Name)
	}
	if err != nil {
		t.Fatalf("%s on %s: %v", b.Name(), profile.Name, err)
	}
	return res
}

// TestCertificateEndToEnd compiles representative Table 3 benchmarks on
// both scaled targets and validates the emitted certificate exactly the
// way hawkcheck does: decode, self-check (walk + DRAT), pin the spec
// hash, and recompute the effective spec independently. The full-suite
// sweep runs in CI via hawkcheck -table3.
func TestCertificateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compilations are slow")
	}
	pick := map[string]bool{
		"Parse Ethernet":             true, // plain chain
		"Parse MPLS":                 true, // loop, unrolled on pipelined targets
		"Large tran key":             true, // key wider than the device's key limit
		"Multi-key (same pkt field)": true, // negative-skip lookahead
	}
	profiles := []hw.Profile{tables.TofinoScaled(), tables.IPUScaled()}
	for _, b := range benchdata.All() {
		if !pick[b.Family] || b.Variant != "" {
			continue
		}
		for _, profile := range profiles {
			b, profile := b, profile
			t.Run(b.Name()+"/"+profile.Name, func(t *testing.T) {
				t.Parallel()
				res := certCompile(t, b, profile)
				c := res.Certificate
				if c == nil {
					t.Fatal("no certificate emitted")
				}
				data, err := c.Encode()
				if err != nil {
					t.Fatal(err)
				}
				rt, err := cert.Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.SelfCheck(); err != nil {
					t.Fatalf("certificate does not check: %v", err)
				}
				if got := core.SpecSHA(b.Spec); got != rt.SpecSHA {
					t.Fatalf("spec hash mismatch: cert %s, recomputed %s", rt.SpecSHA, got)
				}
				opts := core.DefaultOptions()
				opts.MaxIterations = b.MaxIterations
				eff, err := core.EffectiveSpec(b.Spec, profile, opts)
				if err != nil {
					t.Fatal(err)
				}
				effJSON, err := cert.EncodeSpecJSON(eff)
				if err != nil {
					t.Fatal(err)
				}
				// Normalize the certificate copy (Encode re-indents the
				// embedded raw JSON) by round-tripping it through the
				// structural decoder before comparing.
				certEff, err := cert.DecodeSpecJSON(rt.Effective)
				if err != nil {
					t.Fatal(err)
				}
				certEffJSON, err := cert.EncodeSpecJSON(certEff)
				if err != nil {
					t.Fatal(err)
				}
				if string(effJSON) != string(certEffJSON) {
					t.Fatalf("effective spec mismatch:\ncert: %s\nrecomputed: %s", certEffJSON, effJSON)
				}
			})
		}
	}
}

// TestCertificateProofBundle checks that a compile that climbed through at
// least one UNSAT rung attaches a strict-checkable DRAT bundle.
func TestCertificateProofBundle(t *testing.T) {
	if testing.Short() {
		t.Skip("compilations are slow")
	}
	// Large tran key needs key-splitting, so its ladder reliably climbs
	// through UNSAT rungs before succeeding — there is a proof to bundle.
	var bench benchdata.Benchmark
	for _, b := range benchdata.All() {
		if b.Family == "Large tran key" && b.Variant == "" {
			bench = b
		}
	}
	res := certCompile(t, bench, tables.TofinoScaled())
	c := res.Certificate
	if c == nil || c.Proof == nil {
		t.Skip("no UNSAT rung on this schedule; nothing to certify")
	}
	if c.Proof.Status != "unsat" {
		t.Fatalf("proof bundle from a %q solve", c.Proof.Status)
	}
	if err := cert.CheckDRAT(c.Proof.DIMACS, c.Proof.DRAT); err != nil {
		t.Fatalf("proof bundle does not check: %v", err)
	}
}

// TestCertificateMutationsFail feeds seeded corruptions of a valid
// certificate to the checker and requires every one to be rejected — the
// negative half of the certify CI job, kept here at unit scale.
func TestCertificateMutationsFail(t *testing.T) {
	if testing.Short() {
		t.Skip("compilations are slow")
	}
	var bench benchdata.Benchmark
	for _, b := range benchdata.All() {
		if b.Family == "Parse icmp" && b.Variant == "" {
			bench = b
		}
	}
	res := certCompile(t, bench, tables.TofinoScaled())
	muts, err := cert.FailingMutations(res.Certificate, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) == 0 {
		t.Fatal("no mutations produced")
	}
	for _, m := range muts {
		if m.Cert.SelfCheck() == nil {
			t.Errorf("mutation %s passed the checker", m.Name)
		}
	}
}

// lookaheadLoopSpec loops on start, which consumes nothing, until the
// lookahead byte differs from 0x01. h.t is in no transition key, so Opt2
// scales it to 1 bit, and the witness walk cannot decide the loop: every
// pass through start is a zero-progress cycle.
const lookaheadLoopSpec = `
header h { bit<8> t; }
parser Z {
    state start {
        transition select(lookahead<bit<8>>()) { 0x01 : start; default : body; }
    }
    state body { extract(h); transition accept; }
}
`

// TestUndecidedWalkAfterScalingMisled pins the acceptance branch no
// benchmark reaches: an undecided walk. The walk does not prove the Opt2
// ladder's full-width program, so the skeleton falls back to an unscaled
// ladder (errScalingMisled, as Table 4's ME-2 also does); there the walk
// can neither prove nor refute the candidate, and the counterexample
// search's verdict stands. The result is correct on every input, and its
// certificate records why the walk could not decide.
func TestUndecidedWalkAfterScalingMisled(t *testing.T) {
	spec, err := p4.ParseSpec(lookaheadLoopSpec)
	if err != nil {
		t.Fatal(err)
	}
	profile := tables.TofinoScaled()
	opts := core.DefaultOptions()
	opts.Workers = 1
	opts.EmitCertificate = true
	res, err := core.Compile(spec, profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resources.Entries != 3 {
		t.Errorf("entries %d, want 3:\n%s", res.Resources.Entries, res.Program)
	}
	const want = `zero-progress cycle through spec state "start"`
	if c := res.Certificate; c == nil || !strings.Contains(c.Error, want) {
		t.Errorf("certificate %+v: want an undecided walk containing %q", c, want)
	}
	eff, err := core.EffectiveSpec(spec, profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.Check(eff, res.Program, 0, 16, 0, 1)
	if !rep.OK() || !rep.Exhaustive || rep.Checked != 1<<16 {
		t.Errorf("sim.Check: %s, want equivalent on all 65536 inputs", rep)
	}
}
