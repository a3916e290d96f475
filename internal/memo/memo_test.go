package memo

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/cert"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
	"parserhawk/internal/sim"
	"parserhawk/internal/tcam"
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

// TestStaleSchemaEntryMissesOnce files an entry holding a version-1
// certificate where a key without the certificate schema would look. A
// certificate request must miss once and store a current entry, which
// the next request, in this process or another, replays.
func TestStaleSchemaEntryMissesOnce(t *testing.T) {
	dir := t.TempDir()
	spec, profile, opts := smallSpec(t), hw.Tofino(), testOpts()
	opts.EmitCertificate = true
	res, err := core.Compile(spec, profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	stale := *res.Certificate
	stale.Version = 1
	cj, err := stale.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := res.Program.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	canon, wit, err := pir.Canonicalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	oldKey := shaHex("t1\x00" + canon.String() + "\x00" + profile.Fingerprint() + "\x00" + opts.Fingerprint())
	c0.mu.Lock()
	c0.writeEntry(oldKey, &t1Entry{
		SpecSHA: shaHex(spec.String()), Verdict: verdictOK,
		ProgramJSON: pj, Cert: cj, FieldCanon: wit.FieldToCanon(),
	})
	c0.mu.Unlock()

	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []Stats{{T1Misses: 1, T1Stores: 1}, {T1Misses: 1, T1Stores: 1, T1Hits: 1}} {
		res, err := c.CompileContext(context.Background(), spec, profile, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Certificate == nil || res.Certificate.Version != cert.Version {
			t.Fatalf("request %d: certificate %+v, want schema %d", i+1, res.Certificate, cert.Version)
		}
		st := c.Stats()
		if got := (Stats{T1Hits: st.T1Hits, T1Misses: st.T1Misses, T1Stores: st.T1Stores}); got != want {
			t.Fatalf("request %d: stats %+v, want %+v", i+1, got, want)
		}
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.CompileContext(context.Background(), spec, profile, opts); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.T1Hits != 1 || st.T1Misses != 0 {
		t.Fatalf("second process: %+v, want one hit", st)
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
		t.Fatalf("budget clamp did not produce no-solution on this profile: %v", err)
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
	// ...but an alias spec does not inherit it: it falls through to a
	// compile of its own.
	if _, err := c.CompileContext(context.Background(), aliasSpec(t), profile, opts); err == nil {
		t.Fatal("alias compile should also fail on the clamped budget")
	}
	if st := c.Stats(); st.T1AliasHits != 0 || st.T1Misses != 2 {
		t.Fatalf("no-solution must never be served from an alias: %+v", st)
	}
}

func TestNilCacheCompiles(t *testing.T) {
	var c *Cache
	res, err := c.CompileContext(context.Background(), smallSpec(t), hw.Tofino(), testOpts())
	if err != nil || res == nil {
		t.Fatalf("nil cache must pass through: %v", err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache must count nothing: %+v", st)
	}
}

// TestLoopyAliasOnLoopCapableDeviceIsServed replays a loopy benchmark to
// its renamed twin on a device that runs loops natively. The alias must
// be served: the witness walk has no iteration bound, so a program that
// folds the last loop turn into its loop entry (and so accepts in fewer
// state visits than the spec) is proved equivalent rather than refused.
func TestLoopyAliasOnLoopCapableDeviceIsServed(t *testing.T) {
	const name = "Parse MPLS"
	orig, ok := benchdata.ByName(name)
	var alias benchdata.Benchmark
	for _, b := range benchdata.Alias() {
		if b.Name() == name {
			alias = b
		}
	}
	if !ok || alias.Spec == nil || !orig.Spec.HasLoop() {
		t.Fatalf("benchdata has no loopy %q with an alias twin", name)
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profile, opts := hw.Tofino(), testOpts()
	opts.MaxIterations = orig.MaxIterations
	if _, err := c.CompileContext(context.Background(), orig.Spec, profile, opts); err != nil {
		t.Fatal(err)
	}
	res, err := c.CompileContext(context.Background(), alias.Spec, profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.T1AliasHits != 1 || st.T1Misses != 1 {
		t.Fatalf("loopy alias was not served: %+v", st)
	}
	if err := cert.Walk(alias.Spec, res.Program); err != nil {
		t.Fatalf("served program has no witness against the alias: %v", err)
	}
	if rep := sim.Check(alias.Spec, res.Program, 2000, 16, 0, 7); !rep.OK() {
		t.Fatalf("served program does not implement the alias: %s", rep)
	}
}

// wideSpec has one 24-bit exact key: a stored program whose matching
// entry loses one mask bit is wrong on exactly one key value in 2^24,
// far below what sampling finds.
func wideSpec(name, key, body string) *pir.Spec {
	fields := []pir.Field{{Name: key, Width: 24}, {Name: body, Width: 8}}
	states := []pir.State{
		{
			Name:     name + "_start",
			Extracts: []pir.Extract{{Field: key}},
			Key:      []pir.KeyPart{pir.FieldSlice(key, 0, 24)},
			Rules:    []pir.Rule{pir.ExactRule(0xabcdef, 24, pir.To(1))},
			Default:  pir.AcceptTarget,
		},
		{
			Name:     name + "_body",
			Extracts: []pir.Extract{{Field: body}},
			Default:  pir.AcceptTarget,
		},
	}
	return pir.MustNew(name, fields, states)
}

// TestWellFormedWrongEntryIsRefused stores a program, then rewrites its
// entry on disk with one mask bit of the matching row cleared: the file
// stays well-formed and its integrity line valid, but the program is
// wrong. An alias request must refuse it and compile afresh.
func TestWellFormedWrongEntryIsRefused(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	producer, profile, opts := wideSpec("prod", "tag", "data"), hw.Tofino(), testOpts()
	if _, err := c.CompileContext(context.Background(), producer, profile, opts); err != nil {
		t.Fatal(err)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "t1-*.json"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one t1 entry, got %v (%v)", ents, err)
	}
	key := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(ents[0]), "t1-"), ".json")
	var e t1Entry
	if !c.readEntry(key, &e) {
		t.Fatal("stored entry does not read back")
	}
	prog, err := tcam.DecodeJSON(e.ProgramJSON)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for i := range prog.States {
		for j := range prog.States[i].Entries {
			if en := &prog.States[i].Entries[j]; !tampered && en.Mask != 0 {
				en.Mask &^= en.Mask & -en.Mask // clear the lowest cared-for bit
				tampered = true
			}
		}
	}
	if !tampered {
		t.Fatalf("stored program has no masked entry:\n%s", prog)
	}
	if err := cert.Walk(producer, prog); err == nil {
		t.Fatalf("the walk still proves the tampered program:\n%s", prog)
	}
	if e.ProgramJSON, err = prog.EncodeJSON(); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.writeEntry(key, &e)
	c.mu.Unlock()

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	alias := wideSpec("alias", "kind", "body")
	res, err := c2.CompileContext(context.Background(), alias, profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.T1AliasHits != 0 || st.T1Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("a wrong stored program must be a clean miss: %+v", st)
	}
	if err := cert.Walk(alias, res.Program); err != nil {
		t.Fatalf("fresh compile after the miss is wrong: %v", err)
	}
}

// TestConcurrentCompilesShareOneCache is the shape hawkd runs: many
// concurrent compiles of specs with one canonical form against one
// disk-backed cache. Run under -race it checks the locking; in any mode
// every served program must be right for its own spec, every compile is
// one hit or one miss, and exactly one entry reaches the directory.
func TestConcurrentCompilesShareOneCache(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	profile, opts := hw.Tofino(), testOpts()
	specs := []*pir.Spec{smallSpec(t), aliasSpec(t)}
	const goroutines = 8
	errs := make(chan error, goroutines*len(specs))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, spec := range specs {
				res, err := c.CompileContext(context.Background(), spec, profile, opts)
				if err == nil {
					err = cert.Walk(spec, res.Program)
				}
				if err != nil {
					errs <- fmt.Errorf("%s: %w", spec.Name, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if n := st.T1Hits + st.T1AliasHits + st.T1Misses; n != goroutines*int64(len(specs)) {
		t.Errorf("%d lookups counted for %d compiles: %+v", n, goroutines*len(specs), st)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "t1-*.json"))
	if err != nil || len(ents) != 1 {
		t.Errorf("expected one t1 entry, got %v (%v)", ents, err)
	}
}
