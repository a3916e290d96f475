package cert_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/bitstream"
	"parserhawk/internal/cert"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
	"parserhawk/internal/sim"
	"parserhawk/internal/tables"
	"parserhawk/internal/tcam"
)

// compileCell compiles one benchmark for profile and returns the
// effective spec the program must match, and the program.
func compileCell(t *testing.T, b benchdata.Benchmark, profile hw.Profile) (*pir.Spec, *tcam.Program) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Timeout = 60 * time.Second
	opts.MaxIterations = b.MaxIterations
	opts.Workers = 1
	res, err := core.Compile(b.Spec, profile, opts)
	if err != nil {
		t.Fatalf("%s on %s: %v", b.Name(), profile.Name, err)
	}
	eff, err := core.EffectiveSpec(b.Spec, profile, opts)
	if err != nil {
		t.Fatalf("%s on %s: %v", b.Name(), profile.Name, err)
	}
	return eff, res.Program
}

// mutant is one single-entry corruption of a compiled program.
type mutant struct {
	kind string
	prog *tcam.Program
}

// entryMutants derives up to five seeded mutants per entry of prog: a
// flipped mask bit, a flipped value bit under the mask, another target,
// the entry dropped, and its extractions dropped.
func entryMutants(prog *tcam.Program, rng *rand.Rand) []mutant {
	targets := []tcam.Target{tcam.AcceptTarget, tcam.RejectTarget}
	for _, s := range prog.States {
		targets = append(targets, tcam.To(s.Table, s.ID))
	}
	var out []mutant
	for si := range prog.States {
		row := &prog.States[si]
		w := row.KeyWidth()
		for ei, en := range row.Entries {
			edit := func(kind string, f func(s *tcam.State, en *tcam.Entry)) {
				p := cloneProgram(prog)
				f(&p.States[si], &p.States[si].Entries[ei])
				out = append(out, mutant{kind: fmt.Sprintf("%s of row %d.%d entry %d", kind, row.Table, row.ID, ei), prog: p})
			}
			if w > 0 {
				bit := uint64(1) << rng.Intn(w)
				edit("mask-bit", func(_ *tcam.State, en *tcam.Entry) { en.Mask ^= bit })
			}
			var cared []uint64
			for i := 0; i < w; i++ {
				if en.Mask>>i&1 == 1 {
					cared = append(cared, uint64(1)<<i)
				}
			}
			if len(cared) > 0 {
				bit := cared[rng.Intn(len(cared))]
				edit("value-bit", func(_ *tcam.State, en *tcam.Entry) { en.Value ^= bit })
			}
			next := targets[rng.Intn(len(targets))]
			for next == en.Next {
				next = targets[rng.Intn(len(targets))]
			}
			edit("retarget", func(_ *tcam.State, en *tcam.Entry) { en.Next = next })
			edit("drop-entry", func(s *tcam.State, _ *tcam.Entry) {
				s.Entries = append(s.Entries[:ei:ei], s.Entries[ei+1:]...)
			})
			if len(en.Extracts) > 0 {
				edit("drop-extracts", func(_ *tcam.State, en *tcam.Entry) { en.Extracts = nil })
			}
		}
	}
	return out
}

func cloneProgram(p *tcam.Program) *tcam.Program {
	out := &tcam.Program{Spec: p.Spec, States: append([]tcam.State(nil), p.States...)}
	for i := range out.States {
		out.States[i].Entries = append([]tcam.Entry(nil), out.States[i].Entries...)
	}
	return out
}

// replays reports whether the reference interpreters disagree on pkt at
// a visit budget that only a run looping without consuming input can
// exhaust within the packet.
func replays(eff *pir.Spec, prog *tcam.Program, pkt bitstream.Bits) bool {
	k := (len(pkt) + 1) * (len(eff.States) + len(prog.States) + 1)
	return !eff.Run(pkt, k).Same(prog.Run(pkt, k))
}

// TestWalkMutationCampaign holds the walk to sampled packets: it compiles
// every Table 3 benchmark on the three scaled profiles, makes seeded
// single-entry mutants of each program, and fails when the walk proves a
// mutant that sim.Check refutes. The converse, a walk refutation of a
// mutant the sampled check passes, is expected: sampling misses corners
// the walk explores symbolically. Every refutation must carry a packet
// the interpreters disagree on.
func TestWalkMutationCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every Table 3 cell")
	}
	const seed = 1
	rng := rand.New(rand.NewSource(seed))
	var programs, mutants, simRefuted, walkRefuted, walkOnly int
	for _, b := range benchdata.All() {
		for _, profile := range []hw.Profile{tables.TofinoScaled(), tables.IPUScaled(), tables.FPGAScaled()} {
			eff, prog := compileCell(t, b, profile)
			programs++
			for _, m := range entryMutants(prog, rng) {
				mutants++
				rep := sim.Check(eff, m.prog, 2000, 16, 0, seed)
				werr := cert.Walk(eff, m.prog)
				refuted := errors.Is(werr, cert.ErrMismatch)
				if refuted {
					walkRefuted++
					var me *cert.MismatchError
					switch {
					case !errors.As(werr, &me):
						t.Errorf("%s on %s: the walk refutes mutant %s without a packet: %v\n%s",
							b.Name(), profile.Name, m.kind, werr, m.prog)
					case !replays(eff, m.prog, me.Packet):
						t.Errorf("%s on %s: mutant %s: the interpreters agree on the walk's packet %s",
							b.Name(), profile.Name, m.kind, me.Packet)
					}
				}
				if rep.OK() {
					if refuted {
						walkOnly++
					}
					continue
				}
				simRefuted++
				if werr == nil {
					t.Errorf("%s on %s: the walk proves mutant %s, which sim.Check refutes: %s\n%s",
						b.Name(), profile.Name, m.kind, rep, m.prog)
				}
			}
		}
	}
	t.Logf("%d programs, %d mutants: sim.Check refutes %d, the walk refutes %d (%d that sim.Check passes)",
		programs, mutants, simRefuted, walkRefuted, walkOnly)
}

// TestWalkRefutesMPLSStutter: Parse MPLS on tofino-scaled loops on one
// row, extracting a label per pass. Without the loop entry's extraction
// the row sends a packet back to itself forever, so the device rejects
// at its visit bound where the spec accepts.
func TestWalkRefutesMPLSStutter(t *testing.T) {
	var bench benchdata.Benchmark
	for _, b := range benchdata.All() {
		if b.Name() == "Parse MPLS" {
			bench = b
		}
	}
	profile := tables.TofinoScaled()
	eff, prog := compileCell(t, bench, profile)
	loop := &prog.States[0].Entries[0]
	if loop.Next != tcam.To(prog.States[0].Table, prog.States[0].ID) || len(loop.Extracts) == 0 {
		t.Fatalf("first entry is not an extracting self-loop:\n%s", prog)
	}
	loop.Extracts = nil
	if rep := sim.Check(eff, prog, 2000, 16, 0, 1); rep.OK() {
		t.Fatalf("sim.Check passes the mutant: %s\n%s", rep, prog)
	}
	err := cert.Walk(eff, prog)
	if !errors.Is(err, cert.ErrMismatch) || !strings.Contains(err.Error(), "without consuming input") {
		t.Fatalf("Walk on the stuttering mutant: %v, want a non-consuming cycle mismatch\n%s", err, prog)
	}
}
