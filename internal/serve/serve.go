// Package serve wraps core.Compile as a long-running HTTP/JSON compile
// service for concurrent clients — the hawkd daemon.
//
// The service adds four things on top of the library compiler:
//
//   - A content-addressed result cache: completed deterministic outcomes
//     are keyed by the hash of (parsed spec text, profile fingerprint,
//     synthesis-relevant options fingerprint), so an identical spec never
//     pays for synthesis twice, no matter how it was formatted or which
//     client sent it.
//   - Single-flight request coalescing: N identical in-flight requests
//     run one compilation and fan the result out.
//   - Per-request deadlines mapped onto the compiler's context
//     cancellation: a request that runs out of time gets verdict
//     "unknown" — never a wrong verdict — and a compile nobody is
//     waiting for anymore is aborted mid-search.
//   - A fair semaphore scheduler that shares one portfolio worker budget
//     (core.Options.Workers) across concurrent compilations.
//
// Identity contract: for any request the service can serve, the verdict,
// entry table, and stage count equal what the parserhawk CLI prints for
// the same spec, profile, and options. CI enforces this with the
// service-identity job (cmd/hawkidentity).
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/memo"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
	"parserhawk/internal/tables"
)

// Verdicts of a compile request. Only ok, no_solution, and lint_error are
// deterministic properties of the request and therefore cacheable;
// unknown means "no verdict within this request's circumstances" and
// error covers unexpected compiler failures.
const (
	VerdictOK         = "ok"
	VerdictNoSolution = "no_solution"
	VerdictLintError  = "lint_error"
	VerdictUnknown    = "unknown"
	VerdictError      = "error"
	// VerdictMulti marks a multi-target envelope: the per-target verdicts
	// live in CompileResponse.Targets.
	VerdictMulti = "multi"
)

// Cache dispositions reported in CompileResponse.Cache.
const (
	CacheHit       = "hit"       // served from the result cache
	CacheMiss      = "miss"      // this request led the compilation
	CacheCoalesced = "coalesced" // joined an identical in-flight compilation
)

// Config parameterizes a Server. Zero values select the documented
// defaults.
type Config struct {
	// Profiles are the resolvable target devices; nil means every named
	// profile the repository defines (tables.Profiles).
	Profiles []hw.Profile
	// DefaultProfile is used when a request names none (default "tofino").
	DefaultProfile string
	// CacheBytes bounds the result cache (default 64 MiB).
	CacheBytes int64
	// DefaultTimeout bounds a request's wait when it sends no ?timeout=
	// (default 60s); MaxTimeout caps what ?timeout= may ask for (default
	// 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CompileTimeout bounds one compilation server-side, independent of
	// who is waiting (default 5m).
	CompileTimeout time.Duration
	// Workers is the shared portfolio token pool (default GOMAXPROCS).
	Workers int
	// MaxBodyBytes bounds a request body (default 4 MiB).
	MaxBodyBytes int64
	// Memo, when set, routes compilations through the cross-compile memo
	// cache (internal/memo): whole-compile replays, exact or
	// witness-checked alias, shared across restarts via -memo-dir.
	// The server's own LRU still fronts it at response granularity.
	Memo *memo.Cache
}

func (c Config) withDefaults() Config {
	if c.Profiles == nil {
		c.Profiles = tables.Profiles()
	}
	if c.DefaultProfile == "" {
		c.DefaultProfile = "tofino"
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.CompileTimeout <= 0 {
		c.CompileTimeout = 5 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	return c
}

// CompileRequest is the body of POST /v1/compile.
type CompileRequest struct {
	// Source is the parser specification in the P4-16 subset.
	Source string `json:"source"`
	// Profile names the target device (GET /v1/profiles lists them);
	// empty selects the server default.
	Profile string `json:"profile,omitempty"`
	// Targets names several target devices at once: the spec is compiled
	// for each (sharing the cache, coalescing, and worker pool with
	// single-target requests) and the response is a VerdictMulti envelope
	// with one entry per target, in request order. Mutually exclusive with
	// Profile.
	Targets []string `json:"targets,omitempty"`
	// Timeout bounds how long this request waits for a verdict, as a Go
	// duration string; the ?timeout= query parameter overrides it.
	Timeout string `json:"timeout,omitempty"`
	// Options overrides synthesis options; nil means DefaultOptions.
	Options *CompileOptions `json:"options,omitempty"`
}

// CompileOptions is the request-settable slice of core.Options.
type CompileOptions struct {
	// Naive selects the paper's Orig mode (every optimization off).
	Naive bool `json:"naive,omitempty"`
	// MaxIterations is the loop unrolling bound (0 = derived).
	MaxIterations int `json:"max_iterations,omitempty"`
	// MaxEntryBudget caps the search-budget ladder, in the target
	// objective's units (core.Options.MaxBudget). The wire name predates
	// the objective-generic ladder and is kept for client compatibility.
	MaxEntryBudget int `json:"max_entry_budget,omitempty"`
	// Workers is the portfolio width this compile would use standalone;
	// the scheduler may grant fewer under load (0 = server capacity).
	// Outcome-invariant, so it is not part of the cache key.
	Workers int `json:"workers,omitempty"`
	// Seed drives CEGIS test-case generation (0 = library default).
	Seed int64 `json:"seed,omitempty"`
}

// CompileResponse is the body of a POST /v1/compile answer. Every compile
// outcome — including unknown — is HTTP 200; non-200 means the request
// itself was invalid and no verdict exists.
type CompileResponse struct {
	Verdict string `json:"verdict"`
	Reason  string `json:"reason,omitempty"`
	// Profile names the device this verdict is for; always set on compile
	// outcomes, so multi-target entries are self-describing.
	Profile string `json:"profile,omitempty"`
	// Targets holds the per-target responses of a VerdictMulti envelope,
	// in request order.
	Targets []CompileResponse `json:"targets,omitempty"`
	// Program is the TCAM entry table rendered exactly as the parserhawk
	// CLI prints it; ProgramJSON is the deployment encoding.
	Program     string          `json:"program,omitempty"`
	ProgramJSON json.RawMessage `json:"program_json,omitempty"`
	Entries     int             `json:"entries"`
	Stages      int             `json:"stages"`
	MaxKeyWidth int             `json:"max_key_width,omitempty"`
	Stats       *core.Stats     `json:"stats,omitempty"`
	// Certificate is the compile's proof-carrying artifact (cert.Certificate
	// JSON): witness-checked server-side before caching, and re-checkable by
	// the client with hawkcheck. CertificateError is set instead when the
	// server-side check failed; such responses are never cached.
	Certificate      json.RawMessage `json:"certificate,omitempty"`
	CertificateError string          `json:"certificate_error,omitempty"`
	// Cache reports how this response was produced: hit, miss, or
	// coalesced. Cached responses carry the original compilation's Stats.
	Cache     string  `json:"cache"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ProfileInfo is one entry of GET /v1/profiles.
type ProfileInfo struct {
	Name           string `json:"name"`
	Arch           string `json:"arch"`
	KeyLimit       int    `json:"key_limit"`
	TCAMLimit      int    `json:"tcam_limit"`
	LookaheadLimit int    `json:"lookahead_limit"`
	StageLimit     int    `json:"stage_limit,omitempty"`
	ExtractLimit   int    `json:"extract_limit"`
	WindowBits     int    `json:"window_bits,omitempty"`
	Objective      string `json:"objective"`
	Default        bool   `json:"default,omitempty"`
}

// outcome is one compilation's shareable result: the response body minus
// the per-request fields (Cache, ElapsedMS), its cacheability, and its
// approximate heap footprint for the cache budget.
type outcome struct {
	resp      CompileResponse
	cacheable bool
	size      int64
}

// Server implements the hawkd HTTP API over one shared cache, flight
// group, and worker pool.
type Server struct {
	cfg      Config
	profiles map[string]hw.Profile
	order    []string // profile listing order
	cache    *lruCache
	group    *flightGroup
	sched    *scheduler
	agg      *aggregates

	// compileFn is core.CompileContext, replaceable by tests that need a
	// compile with controlled timing.
	compileFn func(ctx context.Context, spec *pir.Spec, profile hw.Profile, opts core.Options) (*core.Result, error)

	requests        counter
	compiles        counter
	coalesced       counter
	deadlineExpired counter
	certChecked     counter
	certFailed      counter
	inflight        atomic.Int64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		profiles:  map[string]hw.Profile{},
		cache:     newLRUCache(cfg.CacheBytes),
		group:     newFlightGroup(),
		sched:     newScheduler(cfg.Workers),
		agg:       newAggregates(),
		compileFn: core.CompileContext,
	}
	if cfg.Memo != nil {
		s.compileFn = cfg.Memo.CompileContext
	}
	for _, p := range cfg.Profiles {
		if _, ok := s.profiles[p.Name]; ok {
			continue
		}
		s.profiles[p.Name] = p
		s.order = append(s.order, p.Name)
	}
	return s
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", s.handleCompile)
	mux.HandleFunc("/v1/profiles", s.handleProfiles)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// httpError answers a request-level failure as JSON with the given
// status. Compile outcomes never travel this path.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	infos := make([]ProfileInfo, 0, len(s.order))
	for _, name := range s.order {
		p := s.profiles[name]
		infos = append(infos, ProfileInfo{
			Name:           p.Name,
			Arch:           p.Arch.String(),
			KeyLimit:       p.KeyLimit,
			TCAMLimit:      p.TCAMLimit,
			LookaheadLimit: p.LookaheadLimit,
			StageLimit:     p.StageLimit,
			ExtractLimit:   p.ExtractLimit,
			WindowBits:     p.WindowBits,
			Objective:      p.Objective.For(p.Arch).String(),
			Default:        p.Name == s.cfg.DefaultProfile,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(infos)
}

// waitTimeout resolves this request's deadline: ?timeout= wins over the
// body field, both clamped to MaxTimeout; absent both, the server
// default applies.
func (s *Server) waitTimeout(r *http.Request, req *CompileRequest) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		raw = req.Timeout
	}
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("invalid timeout %q: %v", raw, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("invalid timeout %q: must be positive", raw)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// buildOptions maps request options onto core.Options and returns them
// with the portfolio width the compile would use standalone (the
// scheduler's ask).
func (s *Server) buildOptions(ro *CompileOptions) (core.Options, int) {
	opts := core.DefaultOptions()
	// The service always asks for a certificate: every successful compile
	// is witness-checked before it may enter the cache, and the artifact
	// rides along in the response for clients that want to re-check it.
	// EmitCertificate is outcome-invariant, so this does not perturb the
	// options fingerprint or the service-vs-CLI identity gate.
	opts.EmitCertificate = true
	if ro == nil {
		return opts, s.cfg.Workers
	}
	if ro.Naive {
		opts = core.NaiveOptions()
		opts.EmitCertificate = true
	}
	if ro.MaxIterations > 0 {
		opts.MaxIterations = ro.MaxIterations
	}
	if ro.MaxEntryBudget > 0 {
		opts.MaxBudget = ro.MaxEntryBudget
	}
	if ro.Seed != 0 {
		opts.Seed = ro.Seed
	}
	want := s.cfg.Workers
	if ro.Workers > 0 {
		want = ro.Workers
	}
	if opts.Workers > 0 && want > opts.Workers {
		// A preset that pins its width (naive mode runs one worker) would
		// only starve concurrent compiles with a larger ask.
		want = opts.Workers
	}
	return opts, want
}

// cacheKey derives the content address of one compilation: the parsed
// spec's own text (pir.Spec.String, so formatting and comments do not
// fragment the cache), plus the full profile fingerprint and the
// outcome-relevant options fingerprint. The profile contributes its
// Fingerprint, not its Name: names do not pin the architecture or the
// objective, and a name-keyed cache could alias a tofino result onto an
// fpga request if two configured profiles ever shared a name (see
// hw.Profile.Fingerprint).
//
// The key keeps the spec's names: a cached response renders its program
// and certificate in the names of the spec that compiled it, so a renamed
// alias gets its own entry. The memo (Config.Memo) is the one place that
// canonicalizes.
func cacheKey(spec *pir.Spec, profile hw.Profile, opts core.Options) string {
	h := sha256.New()
	h.Write([]byte(spec.String()))
	h.Write([]byte{0})
	h.Write([]byte(profile.Fingerprint()))
	h.Write([]byte{0})
	h.Write([]byte(opts.Fingerprint()))
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	start := time.Now()
	s.requests.inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	var req CompileRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Source == "" {
		httpError(w, http.StatusBadRequest, "missing spec source")
		return
	}
	wait, err := s.waitTimeout(r, &req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, err := p4.ParseSpec(req.Source)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parsing spec: %v", err)
		return
	}
	opts, want := s.buildOptions(req.Options)

	reqCtx, cancelWait := context.WithTimeout(r.Context(), wait)
	defer cancelWait()

	if len(req.Targets) > 0 {
		if req.Profile != "" {
			httpError(w, http.StatusBadRequest, "profile and targets are mutually exclusive")
			return
		}
		profiles := make([]hw.Profile, len(req.Targets))
		for i, name := range req.Targets {
			p, ok := s.profiles[name]
			if !ok {
				httpError(w, http.StatusBadRequest, "unknown target %q (known: %s)",
					name, strings.Join(s.order, ", "))
				return
			}
			profiles[i] = p
		}
		// Fan the spec out across the targets concurrently. Each target is
		// an ordinary single-flight compilation — same cache keys, same
		// coalescing — so a multi-target request and a single-target request
		// for one of its members share work. The portfolio worker budget is
		// split across the fan-out; the scheduler keeps the pool itself from
		// oversubscribing.
		wantEach := want / len(profiles)
		if wantEach < 1 {
			wantEach = 1
		}
		results := make([]CompileResponse, len(profiles))
		var wg sync.WaitGroup
		for i, p := range profiles {
			wg.Add(1)
			go func(i int, p hw.Profile) {
				defer wg.Done()
				out, disposition := s.compileVia(reqCtx, spec, p, opts, wantEach)
				resp := out.resp
				resp.Profile = p.Name
				resp.Cache = disposition
				results[i] = resp
			}(i, p)
		}
		wg.Wait()
		env := &outcome{resp: CompileResponse{Verdict: VerdictMulti, Targets: results}}
		s.respond(w, env, VerdictMulti, start)
		return
	}

	profName := req.Profile
	if profName == "" {
		profName = s.cfg.DefaultProfile
	}
	profile, ok := s.profiles[profName]
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown profile %q (GET /v1/profiles lists them)", profName)
		return
	}
	out, disposition := s.compileVia(reqCtx, spec, profile, opts, want)
	s.respond(w, out, disposition, start)
}

// compileVia serves one (spec, profile, options) compilation through the
// cache and the single-flight group, waiting no longer than reqCtx allows.
// It returns the outcome and its cache disposition; on a deadline it
// returns verdict unknown while the flight keeps running for any other
// waiters.
func (s *Server) compileVia(reqCtx context.Context, spec *pir.Spec, profile hw.Profile, opts core.Options, want int) (*outcome, string) {
	key := cacheKey(spec, profile, opts)
	if out, ok := s.cache.get(key); ok {
		return out, CacheHit
	}

	// Join (or start) the single flight for this key. The compile runs
	// under the server's compile timeout, not any one request's deadline:
	// requests bound their wait, and the flight context dies when the
	// last waiter walks away.
	f, leader := s.group.join(key,
		func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), s.cfg.CompileTimeout)
		},
		func(ctx context.Context) *outcome {
			out := s.compileOutcome(ctx, spec, profile, opts, want)
			if out.cacheable {
				s.cache.add(key, out)
			}
			return out
		})

	disposition := CacheMiss
	if !leader {
		disposition = CacheCoalesced
		s.coalesced.inc()
	}
	select {
	case <-f.done:
		out := f.out
		s.group.leave(key, f)
		return out, disposition
	case <-reqCtx.Done():
		s.group.leave(key, f)
		s.deadlineExpired.inc()
		reason := "deadline exceeded before a verdict was available"
		if errors.Is(reqCtx.Err(), context.Canceled) {
			reason = "request canceled"
		}
		return &outcome{resp: CompileResponse{Verdict: VerdictUnknown, Profile: profile.Name, Reason: reason}}, disposition
	}
}

// compileOutcome runs one compilation under the shared worker pool and
// classifies the result. Outcomes that are deterministic functions of
// (spec, profile, options) — ok, no_solution, lint_error — are marked
// cacheable; interrupted searches (timeout, cancellation) answer unknown
// and are never cached, because retrying with more time could produce a
// real verdict.
func (s *Server) compileOutcome(ctx context.Context, spec *pir.Spec, profile hw.Profile, opts core.Options, want int) *outcome {
	granted, err := s.sched.acquire(ctx, want)
	if err != nil {
		out := &outcome{resp: CompileResponse{
			Verdict: VerdictUnknown,
			Profile: profile.Name,
			Reason:  "compile aborted while queued for workers",
		}}
		s.agg.record(profile.Name, VerdictUnknown, nil)
		return out
	}
	defer s.sched.release(granted)

	opts.Workers = granted
	opts.Timeout = 0 // the flight context is the sole deadline source
	s.compiles.inc()
	res, cerr := s.compileFn(ctx, spec, profile, opts)

	out := &outcome{}
	switch {
	case cerr == nil:
		out.resp = CompileResponse{
			Verdict:     VerdictOK,
			Profile:     profile.Name,
			Program:     res.Program.String(),
			Entries:     res.Resources.Entries,
			Stages:      res.Resources.Stages,
			MaxKeyWidth: res.Resources.MaxKeyWidth,
			Stats:       &res.Stats,
		}
		if data, jerr := res.Program.EncodeJSON(); jerr == nil {
			out.resp.ProgramJSON = data
		}
		out.cacheable = true
		// Certificate gate: an ok verdict whose certificate fails the
		// independent checker is still served but never cached — a cache
		// must not launder an unverifiable result into many responses.
		// The compile refuses every program the witness walk refutes, so
		// such a result is one the walk could not decide (its
		// configuration limit, say) and only the sampled search vouched
		// for.
		s.certChecked.inc()
		if res.Certificate == nil {
			s.certFailed.inc()
			out.cacheable = false
			out.resp.CertificateError = "compile produced no certificate"
		} else if serr := res.Certificate.SelfCheck(); serr != nil {
			s.certFailed.inc()
			out.cacheable = false
			out.resp.CertificateError = serr.Error()
		} else if data, jerr := res.Certificate.Encode(); jerr == nil {
			out.resp.Certificate = data
		}
	case errors.Is(cerr, core.ErrTimeout), ctx.Err() != nil:
		out.resp = CompileResponse{Verdict: VerdictUnknown, Profile: profile.Name, Reason: "compilation interrupted: " + cerr.Error()}
	case errors.Is(cerr, core.ErrNoSolution):
		out.resp = CompileResponse{Verdict: VerdictNoSolution, Profile: profile.Name, Reason: cerr.Error()}
		out.cacheable = true
	default:
		var lintErr *core.LintError
		if errors.As(cerr, &lintErr) {
			out.resp = CompileResponse{Verdict: VerdictLintError, Profile: profile.Name, Reason: cerr.Error()}
			out.cacheable = true
		} else {
			out.resp = CompileResponse{Verdict: VerdictError, Profile: profile.Name, Reason: cerr.Error()}
		}
	}
	out.size = outcomeSize(out)
	s.agg.record(profile.Name, out.resp.Verdict, out.resp.Stats)
	return out
}

// outcomeSize approximates an outcome's heap footprint for the cache
// budget: the variable-size payloads plus a fixed overhead for the
// structs themselves.
func outcomeSize(out *outcome) int64 {
	const overhead = 1024
	n := int64(len(out.resp.Program) + len(out.resp.ProgramJSON) + len(out.resp.Reason) + len(out.resp.Certificate))
	if out.resp.Stats != nil {
		if data, err := json.Marshal(out.resp.Stats); err == nil {
			n += int64(len(data))
		}
	}
	return n + overhead
}

// respond writes one outcome with its per-request disposition.
func (s *Server) respond(w http.ResponseWriter, out *outcome, disposition string, start time.Time) {
	resp := out.resp // shallow copy; shared fields are immutable
	resp.Cache = disposition
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&resp); err != nil {
		// The header is gone; nothing recoverable remains.
		return
	}
}
