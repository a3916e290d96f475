package main

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"parserhawk/internal/core"
)

// env is what one workload run gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration // how long the measured phase runs, at least
	tr      *tracer       // nil unless this is the traced run
	// small selects the smoke size: a few inputs and about a second of
	// load. Only the tests use it.
	small   bool
	scratch string       // directory for the run's temporary files
	sp      *speedometer // converts wall time to reference time
}

// result is what a workload measured.
type result struct {
	attempted int
	failed    int // operations that errored, timed out or gave a verdict other than expected.json's
	wrong     int // returned programs the reference interpreter disagrees with
	metrics   map[string]float64
	notes     []string // human-readable detail printed before the result line
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workload func(*env) (*result, error)

var workloads = map[string]workload{
	"cold-suite":  coldSuite,
	"naive-solve": naiveSolve,
	"memo-rerun":  memoRerun,
}

// setup runs fn reps times, each from a collected heap, and returns the
// median duration in reference seconds. Repeating a cheap set-up steadies
// setup_s; the last repetition's state is the one the workload keeps. fn
// gets its set-up span; a long set-up ticks the speedometer between its
// operations.
func (e *env) setup(reps int, fn func(span int) error) (float64, error) {
	spans := make([][2]time.Time, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		e.sp.tick()
		id := e.tr.start(0, "setup", strconv.Itoa(i+1))
		t0 := time.Now()
		err := fn(id)
		spans[i] = [2]time.Time{t0, time.Now()}
		e.tr.finish(id, nil, nil)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
	}
	e.sp.tick()
	ds := make([]float64, reps)
	for i, s := range spans {
		ds[i] = e.sp.ref(s[0], s[1]).Seconds()
	}
	return median(ds), nil
}

// measured brackets a workload's measured phase: a span carrying the Go
// runtime's allocation and GC-pause movement over the phase.
type measured struct {
	e      *env
	id     int
	before runtime.MemStats
}

func (e *env) beginMeasure() *measured {
	m := &measured{e: e, id: e.tr.start(0, "measure", "")}
	if e.tr != nil {
		runtime.ReadMemStats(&m.before)
	}
	return m
}

func (m *measured) end() {
	if m.e.tr == nil {
		return
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.e.tr.finish(m.id, map[string]float64{
		"go.alloc_bytes": float64(after.TotalAlloc - m.before.TotalAlloc),
		"go.gc_pause_ns": float64(after.PauseTotalNs - m.before.PauseTotalNs),
	}, nil)
}

// verdictOf names a compile outcome the way hawkd reports it.
func verdictOf(err error) string {
	var lintErr *core.LintError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ErrNoSolution):
		return "no_solution"
	case errors.As(err, &lintErr):
		return "lint_error"
	case errors.Is(err, core.ErrTimeout):
		return "unknown"
	}
	return "error"
}

// compileAttrs is a compile span's attributes: the compiler's own phase
// durations and effort counters for a compile that ran synthesis, with
// compileNs its wall time.
func compileAttrs(st core.Stats, compileNs int64) map[string]float64 {
	sv := st.Solver
	return map[string]float64{
		"compile_ns":       float64(compileNs),
		"synthesis_ns":     float64(st.SynthesisTime),
		"verify_ns":        float64(st.VerifyTime),
		"cegis_iterations": float64(st.CEGISIterations),
		"test_cases":       float64(st.TestCases),
		"rules_pruned":     float64(st.Lint.RulesBefore - st.Lint.RulesAfter),
		"sat.solves":       float64(sv.Solves),
		"sat.conflicts":    float64(sv.Conflicts),
		"sat.propagations": float64(sv.Propagations),
		"sat.decisions":    float64(sv.Decisions),
		"sat.learned":      float64(sv.LearnedClauses),
		"bv.clauses":       float64(sv.Clauses),
		"bv.vars":          float64(sv.Vars),
		"bv.gates":         float64(sv.Gates),
		"bv.cons_hits":     float64(sv.ConsHits),
	}
}
