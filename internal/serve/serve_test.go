package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parserhawk/internal/cert"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/memo"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
	"parserhawk/internal/tables"
	"parserhawk/internal/tcam"
)

// Two small specs that compile in milliseconds on the scaled profile.
const specA = `
header h { bit<8> t; }
header pay { bit<4> x; }
parser A {
    state start {
        extract(h);
        transition select(h.t) {
            0x01    : deliver;
            default : accept;
        }
    }
    state deliver { extract(pay); transition accept; }
}
`

const specB = `
header g { bit<8> u; }
parser B {
    state start {
        extract(g);
        transition accept;
    }
}
`

// specABlankLines is specA with cosmetic differences only; it must
// normalize to the same canonical text and therefore the same cache key.
const specABlankLines = `

header h { bit<8> t; }

header pay { bit<4> x; }

parser A {
    state start {
        extract(h);

        transition select(h.t) {
            0x01    : deliver;
            default : accept;
        }
    }
    state deliver { extract(pay); transition accept; }
}
`

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Profiles:       []hw.Profile{tables.TofinoScaled(), tables.IPUScaled()},
		DefaultProfile: "tofino-scaled",
		DefaultTimeout: 30 * time.Second,
		CompileTimeout: 60 * time.Second,
		Workers:        2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postCompile(t *testing.T, url string, req CompileRequest) (int, CompileResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(httpResp.Body); err != nil {
		t.Fatal(err)
	}
	var resp CompileResponse
	if httpResp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			t.Fatalf("decoding %q: %v", buf.String(), err)
		}
	}
	return httpResp.StatusCode, resp, buf.String()
}

func TestCompileOKThenCacheHit(t *testing.T) {
	s, ts := newTestServer(t, nil)
	url := ts.URL + "/v1/compile"

	code, resp, raw := postCompile(t, url, CompileRequest{Source: specA})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Verdict != VerdictOK {
		t.Fatalf("verdict %q (%s), want ok", resp.Verdict, resp.Reason)
	}
	if resp.Cache != CacheMiss {
		t.Fatalf("first request disposition %q, want miss", resp.Cache)
	}
	if resp.Entries == 0 || resp.Program == "" || resp.Stats == nil {
		t.Fatalf("incomplete ok response: entries=%d program=%q stats=%v", resp.Entries, resp.Program, resp.Stats)
	}

	// A cosmetically different rendering of the same parser must hit the
	// same content address.
	code, resp2, raw := postCompile(t, url, CompileRequest{Source: specABlankLines})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp2.Cache != CacheHit {
		t.Fatalf("repeat disposition %q, want hit", resp2.Cache)
	}
	if resp2.Verdict != VerdictOK || resp2.Program != resp.Program ||
		resp2.Entries != resp.Entries || resp2.Stages != resp.Stages {
		t.Fatalf("cached response diverged: %+v vs %+v", resp2, resp)
	}
	if got := s.compiles.value(); got != 1 {
		t.Fatalf("compiles counter %d after cached repeat, want 1", got)
	}

	// A different profile is a different key: no false sharing.
	code, resp3, raw := postCompile(t, url, CompileRequest{Source: specA, Profile: "ipu-scaled"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp3.Cache != CacheMiss {
		t.Fatalf("other-profile disposition %q, want miss", resp3.Cache)
	}
	if got := s.compiles.value(); got != 2 {
		t.Fatalf("compiles counter %d after second profile, want 2", got)
	}
}

func TestCacheEviction(t *testing.T) {
	// Budget fits either compiled outcome alone (the larger is ~8.5 KiB,
	// dominated by its stats trace and certificate) but not both, so the
	// second distinct spec must evict the first.
	const budget = 10 << 10
	s, ts := newTestServer(t, func(c *Config) { c.CacheBytes = budget })
	url := ts.URL + "/v1/compile"

	for _, src := range []string{specA, specB} {
		code, resp, raw := postCompile(t, url, CompileRequest{Source: src})
		if code != http.StatusOK || resp.Verdict != VerdictOK {
			t.Fatalf("compile failed: %d %s", code, raw)
		}
	}
	_, _, evictions, used, _ := s.cache.snapshot()
	if evictions == 0 {
		t.Fatalf("no evictions with %d bytes used against a %d-byte budget", used, budget)
	}
	if used > budget {
		t.Fatalf("cache used %d bytes, budget %d", used, budget)
	}

	// specA was evicted: compiling it again is a miss that recompiles.
	before := s.compiles.value()
	_, resp, _ := postCompile(t, url, CompileRequest{Source: specA})
	if resp.Cache != CacheMiss {
		t.Fatalf("post-eviction disposition %q, want miss", resp.Cache)
	}
	if got := s.compiles.value(); got != before+1 {
		t.Fatalf("compiles %d, want %d", got, before+1)
	}
}

// fakeCompile is an injectable compileFn with controllable timing.
type fakeCompile struct {
	calls   atomic.Int64
	release chan struct{} // compile blocks until closed (nil: immediate)

	mu  sync.Mutex
	ctx context.Context // context of the most recent call
}

func (f *fakeCompile) fn(ctx context.Context, spec *pir.Spec, profile hw.Profile, opts core.Options) (*core.Result, error) {
	f.calls.Add(1)
	f.mu.Lock()
	f.ctx = ctx
	f.mu.Unlock()
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	prog := &tcam.Program{Spec: spec}
	return &core.Result{Program: prog, Resources: prog.Resources()}, nil
}

func (f *fakeCompile) lastCtx() context.Context {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ctx
}

func TestCoalescingFanOut(t *testing.T) {
	fake := &fakeCompile{release: make(chan struct{})}
	s, ts := newTestServer(t, nil)
	s.compileFn = fake.fn
	url := ts.URL + "/v1/compile"

	const n = 8
	resps := make([]CompileResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, resps[i], _ = postCompile(t, url, CompileRequest{Source: specA})
		}(i)
	}

	// Wait until the single compile is underway and every other request
	// has joined the flight, then let it finish.
	deadline := time.Now().Add(5 * time.Second)
	for fake.calls.Load() == 0 || s.coalesced.value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("stuck waiting for fan-in: calls=%d coalesced=%d", fake.calls.Load(), s.coalesced.value())
		}
		time.Sleep(time.Millisecond)
	}
	close(fake.release)
	wg.Wait()

	if got := fake.calls.Load(); got != 1 {
		t.Fatalf("%d compilations for %d identical requests, want 1", got, n)
	}
	miss, coalesced := 0, 0
	for i, r := range resps {
		if r.Verdict != VerdictOK {
			t.Fatalf("request %d verdict %q (%s)", i, r.Verdict, r.Reason)
		}
		switch r.Cache {
		case CacheMiss:
			miss++
		case CacheCoalesced:
			coalesced++
		default:
			t.Fatalf("request %d disposition %q", i, r.Cache)
		}
	}
	if miss != 1 || coalesced != n-1 {
		t.Fatalf("dispositions: %d miss, %d coalesced; want 1 and %d", miss, coalesced, n-1)
	}
}

func TestDeadlineReturnsUnknownAndCancelsCompile(t *testing.T) {
	fake := &fakeCompile{release: make(chan struct{})} // never released
	s, ts := newTestServer(t, nil)
	s.compileFn = fake.fn

	code, resp, raw := postCompile(t, ts.URL+"/v1/compile?timeout=50ms", CompileRequest{Source: specA})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s (a deadline is an outcome, not a request error)", code, raw)
	}
	if resp.Verdict != VerdictUnknown {
		t.Fatalf("verdict %q, want unknown", resp.Verdict)
	}
	if got := s.deadlineExpired.value(); got != 1 {
		t.Fatalf("deadline counter %d, want 1", got)
	}

	// The sole waiter left, so the flight context must cancel the compile
	// through the library's cancellation path.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ctx := fake.lastCtx(); ctx != nil && ctx.Err() != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("compile context not canceled after the last waiter left")
		}
		time.Sleep(time.Millisecond)
	}
	// Nothing was cached for the interrupted compile.
	if _, _, _, used, entries := s.cache.snapshot(); entries != 0 {
		t.Fatalf("interrupted compile was cached (%d entries, %d bytes)", entries, used)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	url := ts.URL + "/v1/compile"

	cases := []struct {
		name string
		req  CompileRequest
		frag string
	}{
		{"malformed spec", CompileRequest{Source: "parser { nope"}, "parsing spec"},
		{"empty source", CompileRequest{Source: ""}, "missing spec source"},
		{"unknown profile", CompileRequest{Source: specA, Profile: "trident"}, "unknown profile"},
		{"bad timeout", CompileRequest{Source: specA, Timeout: "soon"}, "invalid timeout"},
		{"negative timeout", CompileRequest{Source: specA, Timeout: "-3s"}, "must be positive"},
	}
	for _, tc := range cases {
		code, _, raw := postCompile(t, url, tc.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, raw)
		}
		if !strings.Contains(raw, tc.frag) {
			t.Errorf("%s: body %q missing %q", tc.name, raw, tc.frag)
		}
	}

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile: status %d, want 405", resp.StatusCode)
	}
}

func TestProfilesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []ProfileInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("%d profiles, want 2", len(infos))
	}
	if infos[0].Name != "tofino-scaled" || !infos[0].Default {
		t.Fatalf("first profile %+v, want default tofino-scaled", infos[0])
	}
	if infos[1].Arch != "pipelined-tcam-tables" || infos[1].StageLimit == 0 {
		t.Fatalf("ipu-scaled profile %+v missing pipeline shape", infos[1])
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// One real compile so the verdict and solver families have samples.
	if code, resp, raw := postCompile(t, ts.URL+"/v1/compile", CompileRequest{Source: specB}); code != 200 || resp.Verdict != VerdictOK {
		t.Fatalf("compile failed: %d %s", code, raw)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text format", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"hawkd_compile_requests_total 1",
		"hawkd_compiles_total 1",
		"hawkd_cache_misses_total 1",
		"hawkd_cache_hits_total 0",
		"hawkd_cache_evictions_total 0",
		"hawkd_cache_entries 1",
		"hawkd_queue_depth 0",
		"hawkd_workers_capacity 2",
		`hawkd_compile_verdicts_total{verdict="ok"} 1`,
		"# TYPE hawkd_solver_conflicts_total counter",
		"hawkd_portfolio_ladders_run_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/stats missing %q", want)
		}
	}
	for _, gone := range []string{
		"hawkd_portfolio_refuters_run_total",
		"hawkd_portfolio_skeletons_refuted_total",
		"hawkd_exchange_",
	} {
		if strings.Contains(body, gone) {
			t.Errorf("/stats still exports %q", gone)
		}
	}
}

// TestPortfolioCountersAtOneWorker covers the compile a one-token pool
// grants (under load, or on a one-CPU host): it runs at Workers=1, and its
// skeleton ladders must still reach the portfolio counters.
func TestPortfolioCountersAtOneWorker(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Workers = 1 })
	if code, resp, raw := postCompile(t, ts.URL+"/v1/compile", CompileRequest{Source: specB}); code != 200 || resp.Verdict != VerdictOK {
		t.Fatalf("compile failed: %d %s", code, raw)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	ladders := int64(-1)
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "hawkd_portfolio_ladders_run_total "); ok {
			fmt.Sscan(v, &ladders)
		}
	}
	if ladders < 1 {
		t.Errorf("hawkd_portfolio_ladders_run_total = %d after a one-worker compile, want >= 1", ladders)
	}
}

// TestNaiveCompileAsksOneWorker pins the scheduler ask of a naive compile:
// NaiveOptions runs one worker, so a minutes-long naive compile must not
// hold pool tokens it never uses.
func TestNaiveCompileAsksOneWorker(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Workers = 4 })
	for _, tc := range []struct {
		ro   *CompileOptions
		want int
	}{
		{&CompileOptions{Naive: true}, 1},
		{&CompileOptions{Naive: true, Workers: 3}, 1},
		{&CompileOptions{}, 4},
		{&CompileOptions{Workers: 3}, 3},
	} {
		if _, want := s.buildOptions(tc.ro); want != tc.want {
			t.Errorf("buildOptions(%+v) asks for %d tokens, want %d", *tc.ro, want, tc.want)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestNoSolutionIsCached proves deterministic failures are cacheable: a
// spec that cannot fit the device compiles once and the verdict replays
// from the cache.
func TestNoSolutionIsCached(t *testing.T) {
	// The start state selects 14 targets, and each target selects whether
	// to extract one more header. Every header is extracted by one target
	// only, so the 29 outcomes (14 x 2 plus the default) each need their
	// own TCAM entry: more than tofino-scaled's 24.
	var sb strings.Builder
	sb.WriteString("header h { bit<8> t; }\n")
	for i := 0; i < 14; i++ {
		fmt.Fprintf(&sb, "header p%d { bit<4> x; }\nheader q%d { bit<4> y; }\n", i, i)
	}
	sb.WriteString("parser Big {\n  state start {\n    extract(h);\n    transition select(h.t) {\n")
	for i := 0; i < 14; i++ {
		fmt.Fprintf(&sb, "      0x%02x : s%d;\n", i, i)
	}
	sb.WriteString("      default : accept;\n    }\n  }\n")
	for i := 0; i < 14; i++ {
		fmt.Fprintf(&sb, "  state s%d { extract(p%d); transition select(p%d.x) { 0x0 : a%d; default : accept; } }\n", i, i, i, i)
		fmt.Fprintf(&sb, "  state a%d { extract(q%d); transition accept; }\n", i, i)
	}
	sb.WriteString("}\n")

	s, ts := newTestServer(t, nil)
	url := ts.URL + "/v1/compile"
	code, resp, raw := postCompile(t, url, CompileRequest{Source: sb.String()})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Verdict != VerdictNoSolution {
		t.Fatalf("verdict %q, want %q: the spec must not fit the device (%s)", resp.Verdict, VerdictNoSolution, resp.Reason)
	}
	_, resp2, _ := postCompile(t, url, CompileRequest{Source: sb.String()})
	if resp2.Cache != CacheHit || resp2.Verdict != VerdictNoSolution {
		t.Fatalf("deterministic failure not replayed from cache: %+v", resp2)
	}
	if got := s.compiles.value(); got != 1 {
		t.Fatalf("compiles %d, want 1", got)
	}
}

// TestFailedCertificateIsNotCached proves the certificate gate: a compile
// whose certificate fails the independent checker is still served (the
// synthesizer's own verifier vouched for the program) but must not enter
// the cache, and the failure shows up in the parserhawk_cert_* metrics.
func TestFailedCertificateIsNotCached(t *testing.T) {
	spec, err := p4.ParseSpec(specA)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.EmitCertificate = true
	good, err := core.CompileContext(context.Background(), spec, tables.TofinoScaled(), opts)
	if err != nil {
		t.Fatal(err)
	}
	muts, err := cert.FailingMutations(good.Certificate, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Certificate = muts[0].Cert

	s, ts := newTestServer(t, nil)
	s.compileFn = func(ctx context.Context, sp *pir.Spec, profile hw.Profile, o core.Options) (*core.Result, error) {
		return &bad, nil
	}
	url := ts.URL + "/v1/compile"

	code, resp, raw := postCompile(t, url, CompileRequest{Source: specA})
	if code != http.StatusOK || resp.Verdict != VerdictOK {
		t.Fatalf("compile failed: %d %s", code, raw)
	}
	if resp.CertificateError == "" {
		t.Fatal("corrupted certificate passed the server-side check")
	}
	if len(resp.Certificate) != 0 {
		t.Fatal("failing certificate must not be attached to the response")
	}
	// Second identical request: the outcome must NOT replay from cache.
	_, resp2, _ := postCompile(t, url, CompileRequest{Source: specA})
	if resp2.Cache == CacheHit {
		t.Fatal("uncertified result was served from cache")
	}
	if got := s.certChecked.value(); got != 2 {
		t.Fatalf("cert_checked %d, want 2", got)
	}
	if got := s.certFailed.value(); got != 2 {
		t.Fatalf("cert_failed %d, want 2", got)
	}

	metrics, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(metrics.Body)
	for _, want := range []string{
		"parserhawk_cert_checked_total 2",
		"parserhawk_cert_failed_total 2",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/stats missing %q", want)
		}
	}
}

// TestCertificateAttachedAndCacheable is the positive half: a passing
// certificate rides along in the response, the outcome caches, and the
// cached replay carries the same certificate bytes.
func TestCertificateAttachedAndCacheable(t *testing.T) {
	_, ts := newTestServer(t, nil)
	url := ts.URL + "/v1/compile"
	code, resp, raw := postCompile(t, url, CompileRequest{Source: specA})
	if code != http.StatusOK || resp.Verdict != VerdictOK {
		t.Fatalf("compile failed: %d %s", code, raw)
	}
	if len(resp.Certificate) == 0 || resp.CertificateError != "" {
		t.Fatalf("ok response lacks a certificate (err=%q)", resp.CertificateError)
	}
	c, err := cert.Decode(resp.Certificate)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SelfCheck(); err != nil {
		t.Fatalf("served certificate does not check: %v", err)
	}
	_, resp2, _ := postCompile(t, url, CompileRequest{Source: specA})
	if resp2.Cache != CacheHit {
		t.Fatalf("repeat disposition %q, want hit", resp2.Cache)
	}
	if string(resp2.Certificate) != string(resp.Certificate) {
		t.Fatal("cached replay served different certificate bytes")
	}
}

// TestMultiTargetCompile exercises the targets fan-out: one request, one
// envelope with verdict "multi" and one ordinary per-target response per
// requested profile, in request order, each stamped with its profile
// name. A repeat of the same request must hit the shared cache once per
// target — the per-target compiles populate it under profile-qualified
// keys.
func TestMultiTargetCompile(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Profiles = []hw.Profile{tables.TofinoScaled(), tables.IPUScaled(), tables.FPGAScaled()}
	})
	url := ts.URL + "/v1/compile"
	want := []string{"tofino-scaled", "ipu-scaled", "fpga-scaled"}
	code, resp, raw := postCompile(t, url, CompileRequest{Source: specA, Targets: want})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Verdict != VerdictMulti {
		t.Fatalf("verdict %q, want %q", resp.Verdict, VerdictMulti)
	}
	if len(resp.Targets) != len(want) {
		t.Fatalf("targets %d, want %d", len(resp.Targets), len(want))
	}
	for i, name := range want {
		sub := resp.Targets[i]
		if sub.Profile != name {
			t.Errorf("target %d: profile %q, want %q", i, sub.Profile, name)
		}
		if sub.Verdict != VerdictOK {
			t.Errorf("%s: verdict %q (%s)", name, sub.Verdict, sub.Reason)
		}
		if sub.Program == "" {
			t.Errorf("%s: no program in sub-response", name)
		}
	}
	_, resp2, _ := postCompile(t, url, CompileRequest{Source: specA, Targets: want})
	for _, sub := range resp2.Targets {
		if sub.Cache != CacheHit {
			t.Errorf("%s: repeat disposition %q, want %q", sub.Profile, sub.Cache, CacheHit)
		}
	}
	if got := s.compiles.value(); got != int64(len(want)) {
		t.Fatalf("compiles %d, want %d", got, len(want))
	}
}

// TestMultiTargetRequestValidation: profile and targets are mutually
// exclusive, and an unknown target is a 400 that lists the profiles so
// the client can see what the server actually resolves.
func TestMultiTargetRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	url := ts.URL + "/v1/compile"
	code, _, raw := postCompile(t, url, CompileRequest{
		Source: specA, Profile: "tofino-scaled", Targets: []string{"ipu-scaled"},
	})
	if code != http.StatusBadRequest || !strings.Contains(raw, "mutually exclusive") {
		t.Fatalf("profile+targets: %d %s", code, raw)
	}
	code, _, raw = postCompile(t, url, CompileRequest{Source: specA, Targets: []string{"nope"}})
	if code != http.StatusBadRequest || !strings.Contains(raw, "unknown target") ||
		!strings.Contains(raw, "nope") || !strings.Contains(raw, "tofino-scaled") {
		t.Fatalf("unknown target: %d %s", code, raw)
	}
}

// TestCacheKeyIncludesArchAndObjective is the aliasing regression: two
// profiles that agree on every numeric limit and even on the name but
// target different architectures or objectives must not share a cache
// slot — otherwise a cached tofino result could be replayed for an fpga
// request, complete with a program the fpga cannot deploy.
func TestCacheKeyIncludesArchAndObjective(t *testing.T) {
	spec, err := p4.ParseSpec(specA)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	base := tables.TofinoScaled()

	archAlias := base
	archAlias.Arch = hw.Streaming
	archAlias.WindowBits = 24
	if cacheKey(spec, base, opts) == cacheKey(spec, archAlias, opts) {
		t.Fatal("cache key ignores the target architecture")
	}

	objAlias := base
	objAlias.Objective = hw.MinimizeStages
	if cacheKey(spec, base, opts) == cacheKey(spec, objAlias, opts) {
		t.Fatal("cache key ignores the synthesis objective")
	}
}

// TestPerProfileVerdictMetrics: multi-target compiles break verdicts out
// per profile in /stats while the original single-label family keeps its
// meaning (one finished compilation each).
func TestPerProfileVerdictMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)
	url := ts.URL + "/v1/compile"
	code, _, raw := postCompile(t, url, CompileRequest{
		Source: specA, Targets: []string{"tofino-scaled", "ipu-scaled"},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	metrics, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(metrics.Body)
	for _, want := range []string{
		`hawkd_compile_profile_verdicts_total{profile="ipu-scaled",verdict="ok"} 1`,
		`hawkd_compile_profile_verdicts_total{profile="tofino-scaled",verdict="ok"} 1`,
		`hawkd_compile_verdicts_total{verdict="ok"} 2`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/stats missing %q", want)
		}
	}
}

// specARenamed is specA with every state, header, and field renamed and
// cosmetic noise added: the same parser under other names. Its canonical
// form equals specA's, but its entry table and certificate name its own
// fields and states.
const specARenamed = `
// same parser, different names
header hdr { bit<8> ty; }
header body { bit<4> z; } /* was pay */
parser Renamed {
    state start {
        extract(hdr);
        transition select(hdr.ty) {
            0x01    : hand_off;
            default : accept;
        }
    }
    state hand_off { extract(body); transition accept; }
}
`

// TestAliasSpecsCoalesceToOneCacheEntry pins what the response cache
// shares: a formatting and comment variant of a spec hits the first
// compile's entry, while a renamed variant is answered in its own names,
// with the entry table a fresh compile of it prints and a certificate
// the independent checker accepts for it.
func TestAliasSpecsCoalesceToOneCacheEntry(t *testing.T) {
	s, ts := newTestServer(t, nil)
	url := ts.URL + "/v1/compile"

	code, first, raw := postCompile(t, url, CompileRequest{Source: specA})
	if code != http.StatusOK || first.Verdict != VerdictOK || first.Cache != CacheMiss {
		t.Fatalf("specA: status %d verdict %q cache %q (%s)", code, first.Verdict, first.Cache, raw)
	}
	code, blank, raw := postCompile(t, url, CompileRequest{Source: specABlankLines})
	if code != http.StatusOK || blank.Cache != CacheHit || blank.Program != first.Program {
		t.Fatalf("blank-line variant: status %d cache %q, program\n%s\nwant\n%s (%s)",
			code, blank.Cache, blank.Program, first.Program, raw)
	}

	code, renamed, raw := postCompile(t, url, CompileRequest{Source: specARenamed})
	if code != http.StatusOK || renamed.Verdict != VerdictOK || renamed.Cache != CacheMiss {
		t.Fatalf("renamed variant: status %d verdict %q cache %q (%s)", code, renamed.Verdict, renamed.Cache, raw)
	}
	spec, err := p4.ParseSpec(specARenamed)
	if err != nil {
		t.Fatal(err)
	}
	profile := tables.TofinoScaled()
	want, err := core.Compile(spec, profile, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if renamed.Program != want.Program.String() {
		t.Errorf("renamed variant answered with\n%s\nwant its own compile's\n%s", renamed.Program, want.Program)
	}
	c, err := cert.Decode(renamed.Certificate)
	if err != nil {
		t.Fatal(err)
	}
	if err := tables.CheckCertificate(spec, profile, c); err != nil {
		t.Errorf("renamed variant's certificate: %v", err)
	}
	if got := s.compiles.value(); got != 2 {
		t.Errorf("compiles %d, want 2 (specA and its renamed variant)", got)
	}
}

// TestServeWithMemoServesTierCounters wires a memo cache into the server
// and checks a compile populates the memo metric families.
func TestServeWithMemoServesTierCounters(t *testing.T) {
	mc, err := memo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, func(c *Config) { c.Memo = mc })
	url := ts.URL + "/v1/compile"
	if code, resp, raw := postCompile(t, url, CompileRequest{Source: specA}); code != http.StatusOK || resp.Verdict != VerdictOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if st := mc.Stats(); st.T1Misses != 1 || st.T1Stores != 1 {
		t.Fatalf("memo did not see the compile: %+v", st)
	}

	metrics, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(metrics.Body)
	for _, want := range []string{
		`hawkd_memo_tier_misses_total{tier="1"} 1`,
		`hawkd_memo_tier_stores_total{tier="1"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
	for _, gone := range []string{`tier="2"`, `tier="3"`} {
		if strings.Contains(buf.String(), gone) {
			t.Errorf("metrics still carry a %s label:\n%s", gone, buf.String())
		}
	}
}
