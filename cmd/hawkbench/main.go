// Command hawkbench regenerates the paper's evaluation tables and figures
// (§7) from this repository's implementations.
//
// Usage:
//
//	hawkbench -table 3                  # ParserHawk vs vendor compilers
//	hawkbench -table 3 -orig            # include the naive-mode columns (slow)
//	hawkbench -table 4                  # ParserHawk vs DPParserGen
//	hawkbench -table 5                  # Opt4/Opt5 ablation
//	hawkbench -figure 4                 # the §3.2.1 motivating example
//	hawkbench -figure 5                 # the §3.2.2 written-style example
//	hawkbench -summary                  # §7 headline statistics
//	hawkbench -all                      # everything (with -orig if set)
//	hawkbench -retarget                 # §7.3 cross-device compilation demo
//	hawkbench -table 3 -stats runs.json # per-run solver statistics as JSON
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"parserhawk"
	"parserhawk/internal/benchdata"
	"parserhawk/internal/memo"
	"parserhawk/internal/tables"
)

func main() {
	var (
		table       = flag.Int("table", 0, "regenerate table 3, 4, or 5")
		figure      = flag.Int("figure", 0, "regenerate figure 4 or 5")
		summary     = flag.Bool("summary", false, "print the §7 headline statistics (implies a Table 3 run)")
		all         = flag.Bool("all", false, "regenerate every table and figure")
		retarget    = flag.Bool("retarget", false, "demonstrate §7.3 cross-device retargetability")
		runOrig     = flag.Bool("orig", false, "include the naive-mode timing columns (slow)")
		filter      = flag.String("filter", "", "restrict Table 3 to benchmarks matching any comma-separated substring")
		optTimeout  = flag.Duration("timeout", 2*time.Minute, "per-compilation budget for the optimized mode")
		origTimeout = flag.Duration("orig-timeout", 10*time.Second, "per-compilation budget for the naive mode")
		statsOut    = flag.String("stats", "", "write per-run solver statistics as JSON to this file (\"-\" for stdout)")
		workers     = flag.Int("workers", 0, "portfolio goroutines inside each compilation (0 = GOMAXPROCS, 1 = sequential compiler)")
		memoDir     = flag.String("memo-dir", "", "persist the cross-compile memo under this directory (warm-starts later runs)")
		alias       = flag.Bool("alias", false, "run Table 3 over the field/state-renamed alias corpus (memo hit-rate measurement)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	cfg := tables.Config{
		OptTimeout:  *optTimeout,
		OrigTimeout: *origTimeout,
		RunOrig:     *runOrig,
		Filter:      *filter,
		Workers:     *workers,
	}
	var runs []tables.RunStats
	if *statsOut != "" {
		cfg.StatsSink = func(r tables.RunStats) { runs = append(runs, r) }
	}
	if *memoDir != "" {
		mc, err := memo.Open(*memoDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Memo = mc
	}

	table3 := tables.Table3
	if *alias {
		table3 = tables.Table3Alias
	}

	did := false
	if *all || *table == 3 || *summary {
		did = true
		if *alias {
			fmt.Println("== Table 3 (alias corpus): ParserHawk vs Tofino and IPU compilers ==")
		} else {
			fmt.Println("== Table 3: ParserHawk vs Tofino and IPU compilers ==")
		}
		rows := table3(cfg)
		fmt.Print(tables.FormatTable3(rows, cfg.RunOrig))
		if *summary || *all {
			fmt.Println("\n== §7 summary statistics ==")
			fmt.Print(tables.FormatSummary(tables.Summarize(rows)))
		}
		fmt.Println()
	}
	if *all || *table == 3 || *summary {
		fmt.Println("== Table 3 appendix: wire-scale benchmarks ==")
		rows := tables.Table3Wire(cfg)
		fmt.Print(tables.FormatTable3(rows, cfg.RunOrig))
		fmt.Println()
	}
	if *all || *table == 4 {
		did = true
		fmt.Println("== Table 4: ParserHawk vs DPParserGen (motivating examples) ==")
		fmt.Print(tables.FormatTable4(tables.Table4(cfg)))
		fmt.Println()
	}
	if *all || *table == 5 {
		did = true
		fmt.Println("== Table 5: optimization ablation (Opt4, Opt5) ==")
		fmt.Print(tables.FormatTable5(tables.Table5(cfg.OptTimeout)))
		fmt.Println()
	}
	if *all || *figure == 4 {
		did = true
		r, err := tables.Figure4(cfg.OptTimeout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(tables.FormatFigure4(r))
		fmt.Println()
	}
	if *all || *figure == 5 {
		did = true
		r, err := tables.Figure5(cfg.OptTimeout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(tables.FormatFigure5(r))
		fmt.Println()
	}
	if *all || *retarget {
		did = true
		runRetarget(*optTimeout)
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
	if *statsOut != "" {
		data, err := tables.EncodeRunStats(runs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *statsOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*statsOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runRetarget compiles one benchmark for every target from the identical
// specification — the §7.3 claim that switching devices changes only the
// hardware profile.
func runRetarget(timeout time.Duration) {
	fmt.Println("== §7.3 retargetability: one spec, three devices ==")
	b, _ := benchdata.ByName("Sai V1")
	opts := parserhawk.DefaultOptions()
	opts.Timeout = timeout
	for _, target := range []parserhawk.Profile{tables.TofinoScaled(), tables.IPUScaled(), tables.FPGAScaled()} {
		res, err := parserhawk.Compile(b.Spec, target, opts)
		if err != nil {
			fmt.Printf("  %-14s FAILED: %v\n", target.Name, err)
			continue
		}
		fmt.Printf("  %-14s (%s): %d entries, %d stages — same spec, different constraints\n",
			target.Name, target.Arch, res.Resources.Entries, res.Resources.Stages)
	}
	fmt.Println("  (the synthesis core is shared; only the hardware profile differs)")
}
