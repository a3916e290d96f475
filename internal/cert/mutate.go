package cert

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// Seeded-mutation negative testing: a checker is only trustworthy if it
// rejects corrupted certificates, so CI corrupts every certificate it
// validates and demands rejection. Mutations are deterministic in the
// seed. Each candidate is re-checked here — FailingMutations returns
// only mutants the checker actually rejects and errors if a mandatory
// category cannot produce one, which would mean the checker has gone
// insensitive to that kind of corruption.

// Mutation is one corrupted variant of a certificate.
type Mutation struct {
	Name string // category, such as "program-retarget"
	Edit string // the corruption, such as "row 0.1 entry 2 -> accept"
	Cert *Certificate
	// Packet is the walk's replaying input for a program mutant.
	Packet bitstream.Bits
}

// FailingMutations derives one failing mutant per applicable category:
// a dropped TCAM entry and a retargeted one, each a program the walk
// refutes with a packet the interpreters replay, and — when a proof
// bundle is present — a dropped DRAT addition line and a flipped DRAT
// literal. The input certificate must itself pass SelfCheck.
func FailingMutations(c *Certificate, seed int64) ([]Mutation, error) {
	if err := c.SelfCheck(); err != nil {
		return nil, fmt.Errorf("cert: mutate: certificate fails before mutation: %w", err)
	}
	// SelfCheck has decoded both, so neither decode can fail.
	eff, _ := DecodeSpecJSON(c.Effective)
	prog, _ := tcam.DecodeJSON(c.Program)
	rng := rand.New(rand.NewSource(seed))
	var out []Mutation

	drops, retargets := programEdits(prog)
	for _, pm := range []struct {
		name  string
		edits []entryEdit
	}{
		{"program-drop-entry", drops},
		{"program-retarget", retargets},
	} {
		mutant, err := failingProgramMutation(c, eff, rng, pm.name, pm.edits)
		if err != nil {
			return nil, err
		}
		out = append(out, mutant)
	}

	if c.Proof != nil && len(c.Proof.DRAT) > 0 {
		// Proof mutations are best-effort: when the bundled CNF is
		// refutable by unit propagation alone, the checker derives the
		// contradiction from the instance itself and every proof — however
		// corrupted — is validly accepted, so no failing mutant exists.
		// That is sound (the proof is then redundant), and program
		// mutations above still exercise the checker on such certificates.
		for _, pm := range []struct {
			name string
			f    func([]string, int) []string
		}{
			{"proof-drop-line", dropProofLine},
			{"proof-flip-literal", flipProofLiteral},
		} {
			mutant, ok, err := failingProofMutation(c, rng, pm.name, pm.f)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, mutant)
			}
		}
	}
	return out, nil
}

func cloneCert(c *Certificate) (*Certificate, error) {
	data, err := c.Encode()
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// entryEdit applies one single-entry corruption to a decoded program and
// describes it.
type entryEdit func(*tcam.Program) string

// failingProgramMutation tries one category's edits from a seeded start,
// each on a freshly decoded copy of the certificate's program, and keeps
// the first mutant the walk refutes with a packet.
func failingProgramMutation(c *Certificate, eff *pir.Spec, rng *rand.Rand, name string, edits []entryEdit) (Mutation, error) {
	if len(edits) == 0 {
		return Mutation{}, fmt.Errorf("cert: mutate: %s: program has no entry to corrupt", name)
	}
	start := rng.Intn(len(edits))
	for off := range edits {
		p, _ := tcam.DecodeJSON(c.Program)
		what := edits[(start+off)%len(edits)](p)
		var me *MismatchError
		if !errors.As(Walk(eff, p), &me) {
			continue
		}
		m := *c
		var err error
		if m.Program, err = p.EncodeJSON(); err != nil {
			return Mutation{}, err
		}
		return Mutation{Name: name, Edit: what, Cert: &m, Packet: me.Packet}, nil
	}
	return Mutation{}, fmt.Errorf("cert: mutate: %s: the walk refutes none of %d mutants with a packet", name, len(edits))
}

// programEdits lists the single-entry corruptions of prog: dropping an
// entry (a row left without entries rejects every packet) and sending it
// to another target (accept, reject or any row).
func programEdits(prog *tcam.Program) (drops, retargets []entryEdit) {
	targets := []tcam.Target{tcam.AcceptTarget, tcam.RejectTarget}
	for _, s := range prog.States {
		targets = append(targets, tcam.To(s.Table, s.ID))
	}
	for si, s := range prog.States {
		for ei, en := range s.Entries {
			entry := fmt.Sprintf("row %d.%d entry %d", s.Table, s.ID, ei)
			drops = append(drops, func(p *tcam.Program) string {
				p.States[si].Entries = slices.Delete(p.States[si].Entries, ei, ei+1)
				return "drop " + entry
			})
			for _, t := range targets {
				if t != en.Next {
					retargets = append(retargets, func(p *tcam.Program) string {
						p.States[si].Entries[ei].Next = t
						return fmt.Sprintf("%s -> %s", entry, t)
					})
				}
			}
		}
	}
	return drops, retargets
}

func failingProofMutation(c *Certificate, rng *rand.Rand, name string, f func([]string, int) []string) (Mutation, bool, error) {
	lines := strings.Split(string(c.Proof.DRAT), "\n")
	var adds []int
	for i, line := range lines {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "c") || strings.HasPrefix(t, "d ") || t == "d" {
			continue
		}
		adds = append(adds, i)
	}
	if len(adds) == 0 {
		return Mutation{}, false, fmt.Errorf("cert: mutate: %s: proof has no addition lines", name)
	}
	start := rng.Intn(len(adds))
	// Prefer later lines: the tail of a refutation is rarely redundant,
	// so the search terminates quickly.
	for off := 0; off < len(adds); off++ {
		i := adds[(start+len(adds)-off)%len(adds)]
		mutated := f(append([]string(nil), lines...), i)
		if mutated == nil {
			continue
		}
		m, err := cloneCert(c)
		if err != nil {
			return Mutation{}, false, err
		}
		m.Proof.DRAT = []byte(strings.Join(mutated, "\n"))
		if m.SelfCheck() != nil {
			return Mutation{Name: name, Edit: fmt.Sprintf("proof line %d", i+1), Cert: m}, true, nil
		}
	}
	// Every corruption of this kind still checks: the instance is
	// UP-refutable on its own, so the proof's content is immaterial.
	return Mutation{}, false, nil
}

func dropProofLine(lines []string, i int) []string {
	return append(lines[:i:i], lines[i+1:]...)
}

func flipProofLiteral(lines []string, i int) []string {
	fields := strings.Fields(lines[i])
	for j, tok := range fields {
		if tok == "0" {
			break
		}
		if strings.HasPrefix(tok, "-") {
			fields[j] = tok[1:]
		} else {
			fields[j] = "-" + tok
		}
		lines[i] = strings.Join(fields, " ")
		return lines
	}
	return nil // line had no literal to flip (bare "0")
}
