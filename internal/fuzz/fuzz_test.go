package fuzz

import (
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/bitstream"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/lint"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
	"parserhawk/internal/tables"
	"parserhawk/internal/tcam"
)

func testConfig(profile hw.Profile) Config {
	opts := core.DefaultOptions()
	opts.Timeout = 60 * time.Second
	return Config{Profile: profile, Options: opts, Packets: 1500, Seed: 7}
}

// TestSeedCorpusClean is the fuzzer's ground truth: the deep protocol
// corpus and the seeded-defect fixtures, unmutated and uncorrupted, must
// show zero divergences on every scaled profile's equivalence contract.
func TestSeedCorpusClean(t *testing.T) {
	profiles := []hw.Profile{tables.TofinoScaled(), tables.IPUScaled(), tables.FPGAScaled()}
	if testing.Short() {
		profiles = profiles[:1]
	}
	seeds := append([]benchdata.Benchmark(nil), benchdata.Deep()...)
	seeds = append(seeds,
		benchdata.Benchmark{Family: "FuzzSemantics", Spec: benchdata.FuzzSemanticsFixture()},
		benchdata.Benchmark{Family: "FuzzLint", Spec: benchdata.FuzzLintFixture()},
		benchdata.Benchmark{Family: "FuzzSplitKeyMask", Spec: benchdata.FuzzSplitKeyMaskFixture()},
	)
	for _, profile := range profiles {
		cfg := testConfig(profile)
		for _, b := range seeds {
			d, out, err := Check(cfg, b.Spec, b.MaxIterations)
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name(), profile.Name, err)
			}
			if d != nil {
				t.Errorf("%s on %s: unexplained divergence: %s", b.Name(), profile.Name, d)
			}
			if out != OK {
				t.Errorf("%s on %s: outcome %s, want ok", b.Name(), profile.Name, out)
			}
		}
	}
}

// corruptFirstMask widens the first masked TCAM entry by clearing its
// lowest set mask bit — the canonical seeded defect for the
// spec-vs-program oracle.
func corruptFirstMask(prog *tcam.Program) {
	for si := range prog.States {
		for ei := range prog.States[si].Entries {
			e := &prog.States[si].Entries[ei]
			if e.Mask != 0 {
				e.Mask &= e.Mask - 1
				return
			}
		}
	}
}

func TestSemanticsDefectCaughtAndShrunk(t *testing.T) {
	spec := benchdata.FuzzSemanticsFixture()
	cfg := testConfig(tables.TofinoScaled())
	cfg.CorruptProgram = corruptFirstMask

	d, out, err := Check(cfg, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out != Diverged || d == nil || d.Kind != KindSemantics {
		t.Fatalf("seeded program defect not caught: outcome=%v divergence=%v", out, d)
	}

	keep := func(c *pir.Spec) bool {
		d2, o2, e2 := Check(cfg, c, 0)
		return e2 == nil && o2 == Diverged && d2.Kind == KindSemantics
	}
	shrunk := Shrink(spec, keep, 200)
	if !keep(shrunk) {
		t.Fatal("shrunk spec no longer exhibits the divergence")
	}
	if len(shrunk.States) >= len(spec.States) && size(shrunk) >= size(spec) {
		t.Errorf("shrink made no progress: %d states / size %d", len(shrunk.States), size(shrunk))
	}
	d3, _, err := Check(cfg, shrunk, 0)
	if err != nil || d3 == nil {
		t.Fatalf("re-check of shrunk spec: %v, %v", d3, err)
	}
	fix := d3.Fixture()
	if !strings.Contains(fix, "hawkfuzz regression fixture") || !strings.Contains(fix, "header") {
		t.Errorf("fixture rendering looks wrong:\n%s", fix)
	}
	if _, err := p4.ParseSpec(fix); err != nil {
		t.Errorf("fixture does not re-parse: %v", err)
	}
}

func TestLintDefectCaughtAndShrunk(t *testing.T) {
	spec := benchdata.FuzzLintFixture()
	cfg := testConfig(tables.TofinoScaled())
	// Forge a PH002 certificate for a rule that plainly fires: the
	// lint-vs-observed oracle must refute it.
	cfg.CorruptLint = func(s *pir.Spec, ds []lint.Diag) []lint.Diag {
		return append(ds, lint.Diag{
			Code: lint.CodeShadowedRule, Severity: lint.Warning,
			State: "start", Rule: 0, Msg: "forged shadowed-rule claim",
		})
	}

	d, out, err := Check(cfg, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out != Diverged || d == nil || d.Kind != KindLint {
		t.Fatalf("forged lint claim not refuted: outcome=%v divergence=%v", out, d)
	}
	if d.Claim.Code != lint.CodeShadowedRule {
		t.Errorf("divergence carries claim %v, want PH002", d.Claim.Code)
	}

	keep := func(c *pir.Spec) bool {
		d2, o2, e2 := Check(cfg, c, 0)
		return e2 == nil && o2 == Diverged && d2.Kind == KindLint
	}
	shrunk := Shrink(spec, keep, 200)
	if !keep(shrunk) {
		t.Fatal("shrunk spec no longer exhibits the divergence")
	}
	if len(shrunk.States) > 2 {
		t.Errorf("lint divergence shrunk to %d states, expected <= 2", len(shrunk.States))
	}
}

// TestTrueLintClaimsNotRefuted feeds the fuzzer a spec with a genuinely
// shadowed rule and a genuinely dead default (the SpecLint demo): the
// SAT certificates are correct, so millions of packets must not refute
// them.
func TestTrueLintClaimsNotRefuted(t *testing.T) {
	src, err := os.ReadFile("../../examples/lint/shadowed.p4")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := p4.ParseSpec(string(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(tables.TofinoScaled())
	cfg.Packets = 4000
	d, out, err := Check(cfg, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil || out != OK {
		t.Fatalf("true SAT certificates refuted: outcome=%v divergence=%v", out, d)
	}
}

// TestSplitKeyMaskRegression pins the real divergence hawkfuzz found: a
// masked rule over a key wider than KeyLimit, where an unsound candidate
// dropped one fragment's mask conjunct and the sampling verifier missed
// it. The counterexample search still passes such candidates; the walk
// refutes them, and their packets, added as CEGIS examples, must keep
// this compile honest.
func TestSplitKeyMaskRegression(t *testing.T) {
	spec := benchdata.FuzzSplitKeyMaskFixture()
	cfg := testConfig(tables.TofinoScaled())
	cfg.Packets = 20000
	d, out, err := Check(cfg, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil || out != OK {
		t.Fatalf("split-key mask regression resurfaced: outcome=%v divergence=%v", out, d)
	}

	// The historical counterexample shape: key matches the masked rule's
	// split-off fragment but not its full mask (0x4801), and its two
	// neighbours that straddle the defect.
	res, err := core.Compile(spec, cfg.Profile, cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{0x4801, 0x4800, 0x0801} {
		in := bitstream.FromUint(k, 16).Concat(bitstream.FromUint(0xD2, 8))
		sr := spec.Run(in, 0)
		pr := res.Program.Run(in, 0)
		if !sameObservable(sr, pr) {
			t.Errorf("key %#x: spec and program disagree: %v vs %v", k, sr.Dict, pr.Dict)
		}
	}
}

// TestLoopSplitKeyBudgetRegression pins two shrunk MPLS mutants the
// fuzz-smoke campaign (seed 1, 200 mutants) reported on tofino-scaled. The
// divergences were the oracle's: each spec loops on a 16-bit key that the
// 12-bit key limit splits across two TCAM states, so the program takes
// several steps per spec iteration, and at the spec's own visit budget it
// rejected packets the spec accepts deep in the loop. Both programs are
// correct (cert.Walk proves them); every machine runs at a budget
// no input of the campaign's length can exhaust. At each packet seed and
// count below, a 64-visit budget reports the divergence.
func TestLoopSplitKeyBudgetRegression(t *testing.T) {
	for _, tc := range []struct {
		src     string
		seed    int64
		packets int
	}{
		{`
header ethernet {
    bit<48> dst;
    bit<48> src;
    bit<16> etherType;
}
parser MPLS_mut {
    state start {
        extract(ethernet);
        transition select(ethernet.etherType) {
            0x8847 : accept;
            default : start;
        }
    }
}`, 3, 500},
		{`
header ethernet {
    bit<48> src;
    bit<16> etherType;
}
parser MPLS_mut {
    state start {
        extract(ethernet);
        transition select(ethernet.etherType) {
            0xc847 : accept;
            default : start;
        }
    }
}`, 1, 400},
	} {
		spec, err := p4.ParseSpec(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(tables.TofinoScaled())
		cfg.Packets, cfg.Seed = tc.packets, tc.seed
		d, out, err := Check(cfg, spec, 4) // hawkfuzz's bound for loopy file seeds
		if err != nil {
			t.Fatal(err)
		}
		if d != nil || out != OK {
			t.Errorf("outcome=%v divergence=%v", out, d)
		}
	}
}

func TestMutateDeterministicAndClean(t *testing.T) {
	seed := benchdata.FuzzSemanticsFixture()
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		m1, t1 := Mutate(a, seed, 2)
		m2, t2 := Mutate(b, seed, 2)
		if t1 != t2 {
			t.Fatalf("mutation %d not deterministic: %q vs %q", i, t1, t2)
		}
		if m1 == nil {
			continue
		}
		if err := m1.Validate(); err != nil {
			t.Fatalf("mutant %d (%s) not Validate-clean: %v", i, t1, err)
		}
		if m1.String() != m2.String() {
			t.Fatalf("mutation %d produced different specs for same seed", i)
		}
	}

	// Loopy seeds must stay loopy, and never acquire zero-progress cycles.
	mpls, ok := benchdata.ByName("Parse MPLS")
	if !ok {
		t.Fatal("Parse MPLS benchmark missing")
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		m, _ := Mutate(rng, mpls.Spec, 2)
		if m == nil {
			continue
		}
		if m.HasLoop() != mpls.Spec.HasLoop() {
			t.Fatal("mutation changed loop topology class")
		}
		if zeroProgressCycle(m) {
			t.Fatal("mutation introduced a zero-progress cycle")
		}
	}
}

// TestCampaignEndToEnd drives the full pipeline — seed check, mutation,
// divergence, shrink, fixture — with a seeded program defect, proving the
// campaign surfaces it as an unexplained seed divergence with a usable
// fixture.
func TestCampaignEndToEnd(t *testing.T) {
	cfg := CampaignConfig{
		Config: Config{
			Options: core.DefaultOptions(),
			Packets: 800,
			Seed:    3,
		},
		Profiles:     []hw.Profile{tables.TofinoScaled()},
		Mutations:    1,
		ShrinkChecks: 120,
	}
	cfg.Config.Options.Timeout = 60 * time.Second
	cfg.Config.CorruptProgram = corruptFirstMask

	res, err := Run(cfg, []Seed{{Name: "semantics-fixture", Spec: benchdata.FuzzSemanticsFixture()}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() || len(res.SeedDivergences) == 0 {
		t.Fatalf("campaign missed the seeded defect: %+v", res)
	}
	d := res.SeedDivergences[0]
	if d.Kind != KindSemantics {
		t.Errorf("divergence kind %v, want %v", d.Kind, KindSemantics)
	}
	fix := d.Fixture()
	if !strings.Contains(fix, "hawkfuzz regression fixture") {
		t.Errorf("fixture missing header:\n%s", fix)
	}
	if len(d.Spec.States) > len(benchdata.FuzzSemanticsFixture().States) {
		t.Errorf("campaign did not shrink the divergence")
	}
}

// TestCampaignCleanCorpus runs a small real campaign (no corruption) over
// two fixtures and asserts zero divergences — mutants compile or skip,
// and every compiled mutant agrees with its spec.
func TestCampaignCleanCorpus(t *testing.T) {
	cfg := CampaignConfig{
		Config: Config{
			Options: core.DefaultOptions(),
			Packets: 600,
			Seed:    11,
		},
		Profiles:  []hw.Profile{tables.TofinoScaled()},
		Mutations: 12,
	}
	cfg.Config.Options.Timeout = 60 * time.Second
	if testing.Short() {
		cfg.Mutations = 4
	}
	res, err := Run(cfg, []Seed{
		{Name: "semantics-fixture", Spec: benchdata.FuzzSemanticsFixture()},
		{Name: "lint-fixture", Spec: benchdata.FuzzLintFixture()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		for _, d := range append(res.SeedDivergences, res.Divergences...) {
			t.Errorf("unexpected divergence: %s\n%s", d, d.Fixture())
		}
	}
}

// size is a rough spec size metric for shrink-progress assertions.
func size(s *pir.Spec) int {
	n := len(s.Fields)
	for i := range s.States {
		st := &s.States[i]
		n += 1 + len(st.Extracts) + len(st.Key) + len(st.Rules)
	}
	return n
}
