package serve

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"parserhawk/internal/core"
)

// counter is a monotonically increasing metric safe for concurrent use.
type counter struct{ v atomic.Int64 }

func (c *counter) inc()         { c.v.Add(1) }
func (c *counter) value() int64 { return c.v.Load() }

// aggregates accumulates per-compile statistics across the server's
// lifetime: verdict tallies plus the solver and portfolio counters every
// compilation already reports through core.Stats. /stats re-exports them
// in Prometheus text format, so the observability the CLIs provide per
// run (hawkbench -stats) is available as a live scrape for the service.
type aggregates struct {
	mu       sync.Mutex
	verdicts map[string]int64
	// profileVerdicts tallies verdicts per target profile, keyed
	// profile\x00verdict, so /stats can answer "which targets fail" —
	// indistinguishable in the aggregate the moment the server compiles
	// for more than one device.
	profileVerdicts map[string]int64
	solver          core.SolverStats

	laddersRun         int64
	skeletonsDominated int64
}

func newAggregates() *aggregates {
	return &aggregates{verdicts: map[string]int64{}, profileVerdicts: map[string]int64{}}
}

// record folds one finished compilation into the totals. stats may be nil
// (failed compiles carry no Stats payload); the verdict is always counted,
// both in the aggregate and under its target profile.
func (a *aggregates) record(profile, verdict string, stats *core.Stats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.verdicts[verdict]++
	a.profileVerdicts[profile+"\x00"+verdict]++
	if stats == nil {
		return
	}
	a.solver.Add(stats.Solver)
	a.laddersRun += int64(stats.Portfolio.LaddersRun)
	a.skeletonsDominated += int64(stats.Portfolio.SkeletonsDominated)
}

// metricWriter emits the Prometheus text exposition format (0.0.4): one
// HELP/TYPE header per family followed by its samples.
type metricWriter struct{ w io.Writer }

func (m metricWriter) family(name, typ, help string) {
	fmt.Fprintf(m.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m metricWriter) sample(name string, v int64) {
	fmt.Fprintf(m.w, "%s %d\n", name, v)
}

func (m metricWriter) labeled(name, label, value string, v int64) {
	fmt.Fprintf(m.w, "%s{%s=%q} %d\n", name, label, value, v)
}

func (m metricWriter) labeled2(name, l1, v1, l2, v2 string, v int64) {
	fmt.Fprintf(m.w, "%s{%s=%q,%s=%q} %d\n", name, l1, v1, l2, v2, v)
}

// writeMetrics renders every server metric. It takes the live gauges by
// value so the snapshot is internally consistent enough for scraping (the
// counters are independently atomic; Prometheus semantics do not require
// a cross-family consistent cut).
func (s *Server) writeMetrics(w io.Writer) {
	m := metricWriter{w}

	m.family("hawkd_compile_requests_total", "counter", "POST /v1/compile requests accepted for processing.")
	m.sample("hawkd_compile_requests_total", s.requests.value())
	m.family("hawkd_compiles_total", "counter", "Compilations actually started (cache hits and coalesced waiters excluded).")
	m.sample("hawkd_compiles_total", s.compiles.value())
	m.family("hawkd_coalesced_total", "counter", "Requests served by joining an identical in-flight compilation.")
	m.sample("hawkd_coalesced_total", s.coalesced.value())
	m.family("hawkd_deadline_expired_total", "counter", "Requests that hit their deadline before a result arrived (served verdict=unknown).")
	m.sample("hawkd_deadline_expired_total", s.deadlineExpired.value())

	m.family("parserhawk_cert_checked_total", "counter", "Compilation certificates validated by the independent witness checker.")
	m.sample("parserhawk_cert_checked_total", s.certChecked.value())
	m.family("parserhawk_cert_failed_total", "counter", "Certificates the checker rejected; such results are served but never cached.")
	m.sample("parserhawk_cert_failed_total", s.certFailed.value())

	hits, misses, evictions, used, entries := s.cache.snapshot()
	m.family("hawkd_cache_hits_total", "counter", "Compile responses served from the content-addressed cache.")
	m.sample("hawkd_cache_hits_total", hits)
	m.family("hawkd_cache_misses_total", "counter", "Cache lookups that found no entry.")
	m.sample("hawkd_cache_misses_total", misses)
	m.family("hawkd_cache_evictions_total", "counter", "Entries evicted to stay within the cache byte budget.")
	m.sample("hawkd_cache_evictions_total", evictions)
	m.family("hawkd_cache_bytes", "gauge", "Approximate bytes of cached compile results.")
	m.sample("hawkd_cache_bytes", used)
	m.family("hawkd_cache_entries", "gauge", "Cached compile results.")
	m.sample("hawkd_cache_entries", entries)

	m.family("hawkd_inflight_requests", "gauge", "Compile requests currently being handled.")
	m.sample("hawkd_inflight_requests", s.inflight.Load())
	m.family("hawkd_inflight_compiles", "gauge", "Distinct compilations currently running or queued.")
	m.sample("hawkd_inflight_compiles", int64(s.group.size()))
	queued, inUse := s.sched.snapshot()
	m.family("hawkd_queue_depth", "gauge", "Compilations waiting for worker tokens.")
	m.sample("hawkd_queue_depth", queued)
	m.family("hawkd_workers_in_use", "gauge", "Portfolio worker tokens currently granted.")
	m.sample("hawkd_workers_in_use", inUse)
	m.family("hawkd_workers_capacity", "gauge", "Total portfolio worker tokens shared across requests.")
	m.sample("hawkd_workers_capacity", int64(s.sched.capacity))

	s.agg.mu.Lock()
	verdicts := make(map[string]int64, len(s.agg.verdicts))
	for k, v := range s.agg.verdicts {
		verdicts[k] = v
	}
	profileVerdicts := make(map[string]int64, len(s.agg.profileVerdicts))
	for k, v := range s.agg.profileVerdicts {
		profileVerdicts[k] = v
	}
	solver := s.agg.solver
	ladders, dominated := s.agg.laddersRun, s.agg.skeletonsDominated
	s.agg.mu.Unlock()

	m.family("hawkd_compile_verdicts_total", "counter", "Finished compilations by verdict.")
	keys := make([]string, 0, len(verdicts))
	for k := range verdicts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m.labeled("hawkd_compile_verdicts_total", "verdict", k, verdicts[k])
	}

	m.family("hawkd_compile_profile_verdicts_total", "counter", "Finished compilations by target profile and verdict.")
	pkeys := make([]string, 0, len(profileVerdicts))
	for k := range profileVerdicts {
		pkeys = append(pkeys, k)
	}
	sort.Strings(pkeys)
	for _, k := range pkeys {
		profile, verdict, _ := strings.Cut(k, "\x00")
		m.labeled2("hawkd_compile_profile_verdicts_total", "profile", profile, "verdict", verdict, profileVerdicts[k])
	}

	m.family("hawkd_solver_solves_total", "counter", "SAT Solve calls across all compilations.")
	m.sample("hawkd_solver_solves_total", solver.Solves)
	m.family("hawkd_solver_decisions_total", "counter", "CDCL decisions across all compilations.")
	m.sample("hawkd_solver_decisions_total", solver.Decisions)
	m.family("hawkd_solver_propagations_total", "counter", "CDCL propagations across all compilations.")
	m.sample("hawkd_solver_propagations_total", solver.Propagations)
	m.family("hawkd_solver_conflicts_total", "counter", "CDCL conflicts across all compilations.")
	m.sample("hawkd_solver_conflicts_total", solver.Conflicts)
	m.family("hawkd_solver_learned_clauses_total", "counter", "Clauses learned across all compilations.")
	m.sample("hawkd_solver_learned_clauses_total", solver.LearnedClauses)
	m.family("hawkd_solver_restarts_total", "counter", "CDCL restarts across all compilations.")
	m.sample("hawkd_solver_restarts_total", solver.Restarts)

	m.family("hawkd_portfolio_ladders_run_total", "counter", "Skeleton ladders started by the portfolio scheduler.")
	m.sample("hawkd_portfolio_ladders_run_total", ladders)
	m.family("hawkd_portfolio_skeletons_dominated_total", "counter", "Skeletons dropped by the provably-cheapest bound.")
	m.sample("hawkd_portfolio_skeletons_dominated_total", dominated)

	if s.cfg.Memo != nil {
		ms := s.cfg.Memo.Stats()
		m.family("hawkd_memo_tier_hits_total", "counter", "Cross-compile memo whole-compile hits, split into exact replays (tier 1) and witness-checked alias replays (tier 1_alias).")
		m.labeled("hawkd_memo_tier_hits_total", "tier", "1", ms.T1Hits)
		m.labeled("hawkd_memo_tier_hits_total", "tier", "1_alias", ms.T1AliasHits)
		m.family("hawkd_memo_tier_misses_total", "counter", "Cross-compile memo misses.")
		m.labeled("hawkd_memo_tier_misses_total", "tier", "1", ms.T1Misses)
		m.family("hawkd_memo_tier_stores_total", "counter", "Cross-compile memo entries stored.")
		m.labeled("hawkd_memo_tier_stores_total", "tier", "1", ms.T1Stores)
		m.family("hawkd_memo_bytes_read_total", "counter", "Bytes read from the memo directory.")
		m.sample("hawkd_memo_bytes_read_total", ms.BytesRead)
		m.family("hawkd_memo_bytes_written_total", "counter", "Bytes written to the memo directory.")
		m.sample("hawkd_memo_bytes_written_total", ms.BytesWritten)
		m.family("hawkd_memo_corrupt_total", "counter", "Memo entries rejected by the integrity check and treated as misses.")
		m.sample("hawkd_memo_corrupt_total", ms.Corrupt)
	}
}
