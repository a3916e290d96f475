package memo

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
	"parserhawk/internal/sim"
)

// smallSpec is a two-state parser small enough to compile in
// milliseconds but non-trivial enough to exercise keys and extraction.
func smallSpec(t *testing.T) *pir.Spec {
	t.Helper()
	fields := []pir.Field{{Name: "tag", Width: 4}, {Name: "data", Width: 8}}
	states := []pir.State{
		{
			Name:     "start",
			Extracts: []pir.Extract{{Field: "tag"}},
			Key:      []pir.KeyPart{pir.FieldSlice("tag", 0, 4)},
			Rules:    []pir.Rule{pir.ExactRule(0x3, 4, pir.To(1))},
			Default:  pir.AcceptTarget,
		},
		{
			Name:     "payload",
			Extracts: []pir.Extract{{Field: "data"}},
			Default:  pir.AcceptTarget,
		},
	}
	return pir.MustNew("small", fields, states)
}

// aliasSpec is smallSpec with renamed states and fields and a rule whose
// value carries garbage outside its mask — same canonical form.
func aliasSpec(t *testing.T) *pir.Spec {
	t.Helper()
	fields := []pir.Field{{Name: "kind", Width: 4}, {Name: "body", Width: 8}}
	states := []pir.State{
		{
			Name:     "s_entry",
			Extracts: []pir.Extract{{Field: "kind"}},
			Key:      []pir.KeyPart{pir.FieldSlice("kind", 0, 4)},
			Rules:    []pir.Rule{{Value: 0xf3, Mask: 0xf, Next: pir.To(1)}},
			Default:  pir.AcceptTarget,
		},
		{
			Name:     "s_body",
			Extracts: []pir.Extract{{Field: "body"}},
			Default:  pir.AcceptTarget,
		},
	}
	return pir.MustNew("alias", fields, states)
}

func testOpts() core.Options {
	o := core.DefaultOptions()
	o.Workers = 1
	o.Opt7Parallelism = false
	o.VerifySamples = 200
	return o
}

func TestExactReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, profile, opts := smallSpec(t), hw.Tofino(), testOpts()
	opts.EmitCertificate = true

	cold, err := c.CompileContext(context.Background(), spec, profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.T1Stores != 1 || st.T1Misses != 1 || st.T1Hits != 0 {
		t.Fatalf("cold stats: %+v", st)
	}

	// Fresh cache over the same directory: the hit must come off disk.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c2.CompileContext(context.Background(), spec, profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Stats(); got.T1Hits != 1 || got.T1Misses != 0 {
		t.Fatalf("warm stats: %+v", got)
	}
	if warm.Program.String() != cold.Program.String() {
		t.Fatalf("program text diverged:\ncold:\n%s\nwarm:\n%s", cold.Program, warm.Program)
	}
	cj, _ := cold.Program.EncodeJSON()
	wj, _ := warm.Program.EncodeJSON()
	if string(cj) != string(wj) {
		t.Fatal("program JSON diverged between cold and warm")
	}
	if warm.Certificate == nil {
		t.Fatal("warm replay dropped the certificate")
	}
	cc, _ := cold.Certificate.Encode()
	wc, _ := warm.Certificate.Encode()
	if string(cc) != string(wc) {
		t.Fatal("certificate bytes diverged between cold and warm")
	}
	if warm.Resources != cold.Resources {
		t.Fatalf("resources diverged: cold %+v warm %+v", cold.Resources, warm.Resources)
	}
}

func TestAliasHitRenamesAndVerifies(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profile, opts := hw.Tofino(), testOpts()
	if _, err := c.CompileContext(context.Background(), smallSpec(t), profile, opts); err != nil {
		t.Fatal(err)
	}
	alias := aliasSpec(t)
	res, err := c.CompileContext(context.Background(), alias, profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.T1AliasHits != 1 {
		t.Fatalf("expected an alias hit, stats: %+v", st)
	}
	// The served program must speak the requester's field names and
	// actually implement the requester's spec.
	text := res.Program.String()
	if strings.Contains(text, "tag") || strings.Contains(text, "data") {
		t.Fatalf("alias program still uses producer field names:\n%s", text)
	}
	if rep := sim.Check(alias, res.Program, 2000, 16, 0, 7); !rep.OK() {
		t.Fatalf("alias program does not implement the alias spec: %s", rep)
	}
}

func TestAliasWithCertificateIsAMiss(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profile, opts := hw.Tofino(), testOpts()
	if _, err := c.CompileContext(context.Background(), smallSpec(t), profile, opts); err != nil {
		t.Fatal(err)
	}
	certOpts := opts
	certOpts.EmitCertificate = true
	res, err := c.CompileContext(context.Background(), aliasSpec(t), profile, certOpts)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.T1AliasHits != 0 {
		t.Fatalf("certificate request must not be served from an alias: %+v", st)
	}
	if res.Certificate == nil || res.Certificate.SelfCheck() != nil {
		t.Fatal("fresh compile must carry a self-checkable certificate")
	}
}

// TestPoisonedCacheFallsBack flips one bit of a stored entry and checks
// the next lookup degrades to a clean compile with the same outcome.
func TestPoisonedCacheFallsBack(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, profile, opts := smallSpec(t), hw.Tofino(), testOpts()
	cold, err := c.CompileContext(context.Background(), spec, profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "t1-*.json"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one t1 entry, got %v (%v)", ents, err)
	}
	data, err := os.ReadFile(ents[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(ents[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c2.CompileContext(context.Background(), spec, profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.Corrupt == 0 {
		t.Fatalf("poisoned entry was not detected: %+v", st)
	}
	if st.T1Hits != 0 || st.T1Misses != 1 {
		t.Fatalf("poisoned entry must be a miss: %+v", st)
	}
	if warm.Program.String() != cold.Program.String() {
		t.Fatal("fallback compile diverged from the original")
	}
}

func TestNoSolutionCachedExactOnly(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One entry on a device capped to zero stages cannot fit: force
	// no-solution with a tiny budget instead, which is deterministic.
	spec, profile := smallSpec(t), hw.Tofino()
	opts := testOpts()
	opts.MaxBudget = 1 // two live states need at least two entries
	if _, err := c.CompileContext(context.Background(), spec, profile, opts); err == nil {
		t.Fatal("expected a failing compile")
	} else if !strings.Contains(err.Error(), "no implementation") {
		t.Skipf("budget clamp did not produce no-solution on this profile: %v", err)
	}
	if st := c.Stats(); st.T1Stores != 1 {
		t.Fatalf("no-solution verdict was not stored: %+v", st)
	}
	// Exact re-ask replays the verdict...
	if _, err := c.CompileContext(context.Background(), spec, profile, opts); !strings.Contains(err.Error(), "no implementation") {
		t.Fatalf("exact no-solution replay: %v", err)
	}
	if st := c.Stats(); st.T1Hits != 1 {
		t.Fatalf("exact no-solution must hit: %+v", st)
	}
	// ...but an alias spec does not inherit it via tier 1. It must
	// instead fall through to a compile whose portfolio skips the
	// already-proven-UNSAT ladders through tier 2.
	if _, err := c.CompileContext(context.Background(), aliasSpec(t), profile, opts); err == nil {
		t.Fatal("alias compile should also fail on the clamped budget")
	}
	st := c.Stats()
	if st.T1AliasHits != 0 {
		t.Fatalf("no-solution must never be served from an alias: %+v", st)
	}
	if st.T2Stores == 0 {
		t.Fatalf("UNSAT-at-cap fact was not recorded: %+v", st)
	}
	if st.T2Hits == 0 {
		t.Fatalf("alias compile did not reuse the tier-2 fact: %+v", st)
	}
}

func TestTier2RoundTripAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.RecordSkeletonUnsat("abc123")
	if !c.SkeletonUnsat("abc123") {
		t.Fatal("in-memory tier-2 miss")
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.SkeletonUnsat("abc123") {
		t.Fatal("tier-2 fact did not survive reopen")
	}
	if c2.SkeletonUnsat("other") {
		t.Fatal("tier-2 false positive")
	}
}

func TestNilCacheCompiles(t *testing.T) {
	var c *Cache
	res, err := c.CompileContext(context.Background(), smallSpec(t), hw.Tofino(), testOpts())
	if err != nil || res == nil {
		t.Fatalf("nil cache must pass through: %v", err)
	}
	if c.SkeletonUnsat("x") {
		t.Fatal("nil cache tiers must be inert")
	}
}
