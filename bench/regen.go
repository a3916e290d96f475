package main

import (
	"context"
	"fmt"
	"os"

	"parserhawk/internal/core"
	"parserhawk/internal/sim"
)

// regenMain re-records bench/expected.json with the current compiler. The
// verdicts it records are what every later run is held to, so run it only
// when the benchmark's inputs are meant to change, and review the diff.
func regenMain(args []string) int {
	if len(args) != 0 {
		fmt.Fprintln(os.Stderr, "usage: bench regen")
		return 2
	}
	if err := regen(); err != nil {
		fmt.Fprintln(os.Stderr, "bench regen:", err)
		return 1
	}
	return 0
}

func regen() error {
	suite, err := suiteCells()
	if err != nil {
		return err
	}
	aliases, err := aliasCells()
	if err != nil {
		return err
	}
	want := expected{Verdicts: map[string]string{}}
	record := func(id string, c *cell, opts core.Options) error {
		v, err := verdict(c, opts)
		want.Verdicts[id] = v
		return err
	}
	for _, c := range append(suite, aliases...) {
		if err := record(c.ID, c, optOptions()); err != nil {
			return err
		}
	}
	naiveCells, err := pick(suite, naiveIDs)
	if err != nil {
		return err
	}
	for _, c := range naiveCells {
		if err := record("naive:"+c.ID, c, naiveOptions()); err != nil {
			return err
		}
	}
	return writeJSON("expected.json", want)
}

// deepSamples is how many random inputs regen replays through each
// program, with each of two seeds: enough to catch disagreements on one
// input in ten thousand, which the per-run check (checkSamples) can miss.
const deepSamples = 50000

// verdict compiles c and, for an ok verdict, checks the program deeply: a
// cell whose program is wrong must not enter the benchmark.
func verdict(c *cell, opts core.Options) (string, error) {
	opts.MaxIterations = c.MaxIter
	res, err := core.CompileContext(context.Background(), c.Spec, c.Profile, opts)
	if err != nil {
		return verdictOf(err), nil
	}
	want, err := contract(c)
	if err != nil {
		return "", err
	}
	for seed := int64(1); seed <= 2; seed++ {
		if rep := sim.Check(want, res.Program, deepSamples, 16, 0, seed); !rep.OK() {
			return "", fmt.Errorf("%s: wrong program: %s", c.ID, rep)
		}
	}
	return "ok", nil
}
