package core_test

import (
	"errors"
	"testing"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/cert"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
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
// way hawkcheck does: decode, self-check (witness + DRAT), pin the spec
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
