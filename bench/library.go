package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/memo"
	"parserhawk/internal/pir"
)

// The workloads call the compiler as a library, one compile at a time
// (Workers=1), exactly as hawkbench's Table 3 harness does. The workload seed orders the inputs; the compiler keeps its
// default CEGIS seed, so every run compiles the programs regen checked.

// cheapSetupReps is how often a set-up of a few milliseconds is repeated
// for its median: single repetitions of it vary by a factor of two.
const cheapSetupReps = 25

// coldSuite compiles the whole Table 3 suite with every optimization on
// and no memo: what a user of the compiler runs. Verification and the
// pipeline steps outside synthesis carry most of its time.
func coldSuite(e *env) (*result, error) {
	var cells []*cell
	var want *expected
	setupS, err := e.setup(cheapSetupReps, func(int) (err error) {
		if cells, err = suiteCells(); err != nil {
			return err
		}
		want, err = loadExpected()
		return err
	})
	if err != nil {
		return nil, err
	}
	if e.small {
		cells = cells[:3]
	}
	return e.library(cells, want, setupS, optOptions(), direct)
}

// naiveSolve compiles the cells whose naive (the paper's Orig column)
// compile is dominated by synthesis: the workload a SAT or encoding change
// shows on, and barely moves cold-suite.
func naiveSolve(e *env) (*result, error) {
	var cells []*cell
	var want *expected
	setupS, err := e.setup(cheapSetupReps, func(int) error {
		suite, err := suiteCells()
		if err != nil {
			return err
		}
		picked, err := pick(suite, naiveIDs)
		if err != nil {
			return err
		}
		// Naive verdicts are recorded apart from the optimized ones.
		cells = make([]*cell, len(picked))
		for i, c := range picked {
			n := *c
			n.ID = "naive:" + c.ID
			cells[i] = &n
		}
		want, err = loadExpected()
		return err
	})
	if err != nil {
		return nil, err
	}
	if e.small {
		cells = cells[6:8] // the two Deep SRv6 cells, the fastest
	}
	return e.library(cells, want, setupS, naiveOptions(), direct)
}

// memoRerun replays the suite, and its renamed aliases, against a memo
// directory an earlier run filled, as a CI re-run does: each pass opens a
// new memo.Cache on the directory, so every hit is a disk read, a
// canonicalization and a decode, and every alias hit a rename and a
// re-validation. Alias cells the memo refuses by design (loopy specs on
// loop-free devices) recompile.
func memoRerun(e *env) (*result, error) {
	var cells []*cell
	var want *expected
	var dir string
	defer func() {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}()
	opts := optOptions()
	setupS, err := e.setup(1, func(int) error {
		suite, err := suiteCells()
		if err != nil {
			return err
		}
		aliases, err := aliasCells()
		if err != nil {
			return err
		}
		if want, err = loadExpected(); err != nil {
			return err
		}
		if e.small {
			suite, aliases = suite[:3], aliases[:3]
		}
		cells = append(suite, aliases...)
		if dir, err = os.MkdirTemp(e.scratch, "memo-"); err != nil {
			return err
		}
		fill, err := memo.Open(dir)
		if err != nil {
			return err
		}
		for _, c := range suite {
			o := opts
			o.MaxIterations = c.MaxIter
			if _, err := fill.CompileContext(context.Background(), c.Spec, c.Profile, o); err != nil {
				return fmt.Errorf("filling the memo with %s: %w", c.ID, err)
			}
			e.sp.maybe()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.library(cells, want, setupS, opts, func() (compiler, error) {
		c, err := memo.Open(dir)
		if err != nil {
			return compiler{}, err
		}
		return compiler{op: opMemoCompile, compile: c.CompileContext, passAttrs: func() map[string]float64 {
			s := c.Stats()
			return map[string]float64{
				"memo.t1_hits": float64(s.T1Hits), "memo.t1_alias_hits": float64(s.T1AliasHits),
				"memo.t1_misses": float64(s.T1Misses), "memo.t1_stores": float64(s.T1Stores),
				"memo.bytes_read": float64(s.BytesRead), "memo.bytes_written": float64(s.BytesWritten),
			}
		}}, nil
	})
}

// optOptions and naiveOptions are the paper's OPT and Orig configurations
// as the Table 3 harness runs them.
func optOptions() core.Options {
	o := core.DefaultOptions()
	o.Timeout = 2 * time.Minute
	o.Workers = 1
	return o
}

func naiveOptions() core.Options {
	o := core.NaiveOptions()
	o.Timeout = 10 * time.Second
	o.Workers = 1
	return o
}

// compiler is what one pass compiles through.
type compiler struct {
	op      string // span op name
	compile func(context.Context, *pir.Spec, hw.Profile, core.Options) (*core.Result, error)
	// passAttrs, when set, reports the pass span's attributes at its end.
	passAttrs func() map[string]float64
}

func direct() (compiler, error) { return compiler{op: opCompile, compile: core.CompileContext}, nil }

type compileOp struct {
	c       *cell
	res     *core.Result
	err     error
	t0, t1  time.Time     // wall clock around the call
	latency time.Duration // reference time
}

// library measures passes over cells and turns them into the end-to-end
// metrics: latency percentiles over each cell's median compile time, and
// throughput as cells over the sum of those medians, so that a partly run
// last pass counts no cell twice. All are in reference time. A warm-up
// precedes the measured phase. The first pass's programs are checked
// against the reference interpreter.
func (e *env) library(cells []*cell, want *expected, setupS float64, base core.Options, next func() (compiler, error)) (*result, error) {
	if err := e.warmUp(cells, base, next); err != nil {
		return nil, err
	}
	m := e.beginMeasure()
	passes, wall, err := e.runPasses(m.id, cells, base, next)
	m.end()
	if err != nil {
		return nil, err
	}

	r := &result{metrics: map[string]float64{"setup_s": setupS}}
	perCell := map[string][]float64{}
	for _, ops := range passes {
		for _, op := range ops {
			r.attempted++
			if got := verdictOf(op.err); got != want.Verdicts[op.c.ID] {
				r.failed++
				r.notef("%s: verdict %s, expected %q (%v)", op.c.ID, got, want.Verdicts[op.c.ID], op.err)
			}
			perCell[op.c.ID] = append(perCell[op.c.ID], float64(op.latency.Nanoseconds())/1e6)
		}
	}
	lat := make([]float64, 0, len(perCell))
	var sumMS float64
	for _, xs := range perCell {
		lat = append(lat, median(xs))
		sumMS += median(xs)
	}
	tail := tailPercentile(len(lat))
	r.metrics["throughput"] = float64(len(lat)) / (sumMS / 1e3)
	r.metrics["latency_p50_ms"] = median(lat)
	r.metrics["latency_tail_ms"] = percentile(lat, tail)
	r.notef("%d passes (the last cut at --seconds), %d compiles in %.2fs of wall time; latency over %d per-cell medians, tail = p%g",
		len(passes), r.attempted, wall.Seconds(), len(lat), tail)

	first := passes[0]
	checkID := e.tr.start(0, "check", "")
	var total float64
	for _, op := range first {
		if op.err != nil {
			continue
		}
		total += cost(op.c.Profile, op.res.Resources)
		if err := e.checkProgram(checkID, op.c, op.res.Program); err != nil {
			r.wrong++
			r.notef("%v", err)
		}
	}
	e.tr.finish(checkID, nil, nil)
	r.metrics["resource_cost"] = total

	if e.tr != nil {
		probeID := e.tr.start(0, "probe", "")
		for _, op := range first {
			if op.err == nil {
				if err := e.probe(probeID, op.c, base, op.res.Program); err != nil {
					return nil, err
				}
			}
		}
		e.tr.finish(probeID, nil, nil)
	}
	rss, err := selfRSS()
	if err != nil {
		return nil, err
	}
	r.metrics["peak_rss_mb"] = rss
	return r, nil
}

// warmUpFor is how long a workload compiles before its measured phase.
const warmUpFor = 2 * time.Second

// warmUp compiles cells in suite order, untimed and unchecked, until
// warmUpFor has passed, so that the measured phase does not pay for a
// fresh process: page faults, a heap still growing to its working size,
// cold caches. Compiles in a process's first ten seconds ran about 5%
// slower than later ones.
func (e *env) warmUp(cells []*cell, base core.Options, next func() (compiler, error)) error {
	comp, err := next()
	if err != nil {
		return err
	}
	start := time.Now()
	for _, c := range cells {
		opts := base
		opts.MaxIterations = c.MaxIter
		comp.compile(context.Background(), c.Spec, c.Profile, opts)
		if e.small || time.Since(start) >= warmUpFor {
			break
		}
	}
	return nil
}

// runPasses compiles every cell pass after pass, each pass in a fresh
// seeded order, ticking the speedometer between compiles. It always
// finishes the first pass, so every cell has a latency, and then stops at
// the first compile that ends after e.seconds.
func (e *env) runPasses(parent int, cells []*cell, base core.Options, next func() (compiler, error)) ([][]compileOp, time.Duration, error) {
	rng := rand.New(rand.NewSource(e.seed))
	e.sp.tick()
	start := time.Now()
	over := func() bool { return time.Since(start) >= e.seconds }
	var passes [][]compileOp
	for len(passes) == 0 || !over() {
		comp, err := next()
		if err != nil {
			return nil, 0, err
		}
		passID := e.tr.start(parent, "pass", fmt.Sprint(len(passes)+1))
		ops := make([]compileOp, 0, len(cells))
		for _, c := range shuffled(rng, cells) {
			if len(passes) > 0 && over() {
				break
			}
			opts := base
			opts.MaxIterations = c.MaxIter
			id := e.tr.start(passID, comp.op, c.ID)
			t0 := time.Now()
			res, err := comp.compile(context.Background(), c.Spec, c.Profile, opts)
			t1 := time.Now()
			if e.tr != nil {
				e.tr.finish(id, opAttrs(comp.op, res, err, t1.Sub(t0)), map[string]string{"verdict": verdictOf(err)})
			}
			ops = append(ops, compileOp{c: c, res: res, err: err, t0: t0, t1: t1})
			e.sp.maybe()
		}
		var attrs map[string]float64
		if comp.passAttrs != nil && e.tr != nil {
			attrs = comp.passAttrs()
		}
		e.tr.finish(passID, attrs, nil)
		passes = append(passes, ops)
	}
	wall := time.Since(start)
	e.sp.tick()
	for _, ops := range passes {
		for i := range ops {
			ops[i].latency = e.sp.ref(ops[i].t0, ops[i].t1)
		}
	}
	return passes, wall, nil
}

// opAttrs attributes a compile span. A direct compile is all compiler
// time; through the memo, only a miss ran the compiler (a replay reports
// no Stats), and its compile time is the compiler's own Elapsed.
func opAttrs(op string, res *core.Result, err error, lat time.Duration) map[string]float64 {
	switch {
	case op == opCompile && err != nil:
		return map[string]float64{"compile_ns": float64(lat.Nanoseconds())}
	case op == opCompile:
		return compileAttrs(res.Stats, lat.Nanoseconds())
	case err == nil && res.Stats.Elapsed > 0:
		return compileAttrs(res.Stats, res.Stats.Elapsed.Nanoseconds())
	}
	return nil
}
