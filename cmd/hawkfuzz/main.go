// Command hawkfuzz is ParserHawk's differential fuzzer: it mutates seed
// parser specifications, compiles every mutant, and cross-checks the spec
// interpretation, the synthesized TCAM program under device semantics, and
// SpecLint's SAT-certified verdicts against each other on random packets.
// Divergences are shrunk to minimal specs and written out as ready-to-commit
// benchdata regression fixtures.
//
// Usage:
//
//	hawkfuzz [flags] [spec.p4 ...]
//
// Seeds come from .p4 files given as arguments and/or the built-in
// benchmark corpus selected with -builtin. The run is deterministic for a
// fixed -seed. Exit status: 0 clean, 1 divergence found, 2 usage or
// infrastructure error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/core"
	"parserhawk/internal/fuzz"
	"parserhawk/internal/hw"
	"parserhawk/internal/p4"
	"parserhawk/internal/tables"
)

func main() {
	var (
		seed         = flag.Int64("seed", 1, "campaign seed (fixed seed = deterministic run)")
		mutations    = flag.Int("mutations", 200, "mutants checked per profile")
		edits        = flag.Int("edits", 2, "max edits composed per mutant")
		packets      = flag.Int("packets", 10000, "random packets per checked spec")
		profiles     = flag.String("profiles", "tofino-scaled", "comma-separated target profiles")
		builtin      = flag.String("builtin", "", "add built-in seeds: table3, deep, all")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-compile budget")
		workers      = flag.Int("workers", 1, "portfolio workers per compile")
		out          = flag.String("out", "", "directory for shrunk divergence fixtures")
		shrinkChecks = flag.Int("shrink-checks", 300, "max property re-checks per shrink")
		verbose      = flag.Bool("v", false, "log per-spec progress")
	)
	flag.Parse()

	seeds, err := collectSeeds(flag.Args(), *builtin)
	if err != nil {
		fatal(err)
	}
	if len(seeds) == 0 {
		fatal(fmt.Errorf("no seeds: give .p4 files and/or -builtin table3|deep|all"))
	}

	var profs []hw.Profile
	for _, name := range strings.Split(*profiles, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, ok := tables.ProfileByName(name)
		if !ok {
			fatal(fmt.Errorf("unknown profile %q (known: %s)", name, strings.Join(tables.ProfileNames(), " ")))
		}
		profs = append(profs, p)
	}
	if len(profs) == 0 {
		fatal(fmt.Errorf("no profiles selected"))
	}

	opts := core.DefaultOptions()
	opts.Timeout = *timeout
	opts.Workers = *workers

	cfg := fuzz.CampaignConfig{
		Config: fuzz.Config{
			Options: opts,
			Packets: *packets,
			Seed:    *seed,
		},
		Profiles:     profs,
		Mutations:    *mutations,
		Edits:        *edits,
		ShrinkChecks: *shrinkChecks,
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hawkfuzz: "+format+"\n", args...)
		}
	}

	start := time.Now()
	res, err := fuzz.Run(cfg, seeds)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("hawkfuzz: %d seeds x %d profiles, %d specs checked in %.1fs\n",
		len(seeds), len(profs), res.Checked, time.Since(start).Seconds())
	for _, o := range []fuzz.Outcome{fuzz.OK, fuzz.Diverged, fuzz.SkipLint, fuzz.SkipNoSolution, fuzz.SkipTimeout} {
		if n := res.Outcomes[o]; n > 0 {
			fmt.Printf("  %-18s %d\n", o.String(), n)
		}
	}

	all := append(append([]*fuzz.Divergence(nil), res.SeedDivergences...), res.Divergences...)
	for _, d := range all {
		fmt.Printf("\nDIVERGENCE %s\n", d)
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*out, d.FixtureName()+".p4")
			if err := os.WriteFile(path, []byte(d.Fixture()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("  shrunk fixture written to %s\n", path)
		}
	}
	if len(res.SeedDivergences) > 0 {
		fmt.Printf("\nFAIL: %d unexplained divergence(s) on the unmutated seed corpus\n", len(res.SeedDivergences))
	}
	if res.Failed() {
		os.Exit(1)
	}
	fmt.Println("no divergences")
}

// collectSeeds builds the corpus from file arguments and the -builtin
// selector. File seeds with loops get the same default iteration bound the
// compiler applies (4); built-ins carry their curated bounds.
func collectSeeds(files []string, builtin string) ([]fuzz.Seed, error) {
	var seeds []fuzz.Seed
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		spec, err := p4.ParseSpec(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s := fuzz.Seed{Name: filepath.Base(path), Spec: spec}
		if spec.HasLoop() {
			s.MaxIterations = 4
		}
		seeds = append(seeds, s)
	}
	addSuite := func(bs []benchdata.Benchmark) {
		for _, b := range bs {
			seeds = append(seeds, fuzz.Seed{Name: b.Name(), Spec: b.Spec, MaxIterations: b.MaxIterations})
		}
	}
	switch builtin {
	case "":
	case "table3", "all":
		addSuite(benchdata.All()) // includes the deep corpus
	case "deep":
		addSuite(benchdata.Deep())
	default:
		return nil, fmt.Errorf("unknown -builtin %q (want table3, deep, or all)", builtin)
	}
	return seeds, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hawkfuzz:", err)
	os.Exit(2)
}
