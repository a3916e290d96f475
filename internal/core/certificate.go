package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"parserhawk/internal/cert"
	"parserhawk/internal/hw"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
)

// buildCertificate assembles the proof-carrying artifact for a finished
// compile: the effective spec the synthesizer targeted, the program it
// produced, and — when proof logging was on — the DRAT bundle for the
// hardest UNSAT query. Failures, an undecided acceptance walk included,
// are recorded inside the certificate rather than failing the compile:
// such a result is unverifiable, and it is the checker's job (not the
// compiler's) to refuse it.
func buildCertificate(orig, eff *pir.Spec, profile hw.Profile, unroll int, res *Result, proof *QueryDump) *cert.Certificate {
	c := &cert.Certificate{
		Version: cert.Version,
		Spec:    orig.Name,
		SpecSHA: specSHA(orig),
		Profile: profile.Name,
		Arch:    profile.Arch.String(),
		Unroll:  unroll,
	}
	var err error
	if c.Effective, err = cert.EncodeSpecJSON(eff); err != nil {
		c.Error = fmt.Sprintf("encoding effective spec: %v", err)
		return c
	}
	if c.Program, err = res.Program.EncodeJSON(); err != nil {
		c.Error = fmt.Sprintf("encoding program: %v", err)
		return c
	}
	if res.walkErr != nil {
		c.Error = res.walkErr.Error()
		return c
	}
	if proof != nil {
		c.Proof = &cert.ProofBundle{
			Skeleton:  proof.Skeleton,
			Budget:    proof.Budget,
			Examples:  proof.Examples,
			Status:    proof.Status,
			Conflicts: proof.Conflicts,
			DIMACS:    proof.DIMACS,
			DRAT:      proof.Proof,
		}
	}
	return c
}

// specSHA hashes the canonical P4 rendering of the input spec so a
// checker holding the same source file can pin the certificate to it.
// Specs that do not round-trip through P4 fall back to the pir String
// form; either way the hash is deterministic for a given spec value.
func specSHA(s *pir.Spec) string {
	text, err := p4.Print(s)
	if err != nil {
		text = s.String()
	}
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// SpecSHA exposes the certificate's spec-hash computation so external
// checkers (hawkcheck) can recompute it from the input spec.
func SpecSHA(s *pir.Spec) string { return specSHA(s) }
