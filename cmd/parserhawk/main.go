// Command parserhawk compiles a P4 parser specification into a TCAM
// parser program for a target device.
//
// Usage:
//
//	parserhawk -target tofino  parser.p4
//	parserhawk -target ipu     parser.p4
//	parserhawk -target custom -key 4 -lookahead 8 -extract 16 parser.p4
//	parserhawk -targets tofino,ipu,fpga parser.p4 # one spec, every target
//	parserhawk -naive -timeout 30s parser.p4      # the paper's Orig mode
//	parserhawk -lint parser.p4                    # static analysis only
//	parserhawk -lint -json parser.p4              # diagnostics as JSON
//
// The compiled TCAM entries, resource usage, and synthesis statistics are
// printed to stdout. With -lint no synthesis runs: the SpecLint
// diagnostics (codes PH001–PH007) are printed instead, and the exit
// status is 1 exactly when an error-severity diagnostic is present.
//
// -targets fans the one spec across several device profiles concurrently
// (sharing the -workers portfolio budget) and prints a per-target
// comparison table; every successful compile is re-certified with the
// independent checker before its row says so. With -expect FILE
// (lines of "target verdict", # comments allowed) the exit status is 1
// when any target's verdict deviates from the file or an expected-ok
// target fails certification — the CI smoke gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"parserhawk"
	"parserhawk/internal/core"
	"parserhawk/internal/memo"
	"parserhawk/internal/tables"
)

func main() {
	var (
		target     = flag.String("target", "tofino", "target device: tofino, ipu, fpga, their -scaled variants, or custom")
		targets    = flag.String("targets", "", "comma-separated target list for a multi-target compile (e.g. tofino,ipu,fpga); prints a per-target comparison table")
		expectFile = flag.String("expect", "", "-targets: expectations file (lines of \"target verdict\"); exit 1 on any deviation or certification failure")
		key        = flag.Int("key", 8, "custom target: transition-key width limit (bits)")
		lookahead  = flag.Int("lookahead", 16, "custom target: lookahead window (bits)")
		extract    = flag.Int("extract", 64, "custom target: per-entry extraction limit (bits)")
		timeout    = flag.Duration("timeout", 5*time.Minute, "compilation time budget")
		naive      = flag.Bool("naive", false, "disable all synthesis optimizations (the paper's Orig mode)")
		maxIter    = flag.Int("unroll", 0, "loop unroll depth for pipelined targets (0 = default)")
		verify     = flag.Bool("verify", true, "run the spec-vs-implementation equivalence check")
		quiet      = flag.Bool("q", false, "print only the TCAM program")
		emitJSON   = flag.Bool("json", false, "emit the compiled program as deployment JSON")
		stats      = flag.Bool("stats", false, "emit solver-level synthesis statistics as JSON")
		emitP4     = flag.Bool("emit-p4", false, "print the normalized P4 view of the specification and exit")
		lintOnly   = flag.Bool("lint", false, "run SpecLint static analysis and exit (1 on error-severity findings)")
		dimacsDir  = flag.String("dimacs", "", "directory to write the compile's hardest SAT query as DIMACS CNF")
		certOut    = flag.String("cert", "", "write a compilation certificate (effective spec and program, plus the -proof bundle when enabled) to this file")
		proofOut   = flag.String("proof", "", "enable DRAT proof logging and write the hardest UNSAT query's proof to this file (its CNF lands alongside as <file>.cnf)")
		workers    = flag.Int("workers", 0, "portfolio goroutines for skeleton ladders (0 = the mode's preset: GOMAXPROCS, or 1 with -naive; 1 = sequential)")
		memoDir    = flag.String("memo-dir", "", "persist the cross-compile memo under this directory (warm-starts later compiles)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the compilation to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: parserhawk [flags] parser.p4")
		flag.Usage()
		os.Exit(2)
	}

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

	// Targets resolve through the profile list the hawkd service serves
	// (tables.Profiles), so every profile name the service accepts the
	// CLI accepts too — the service-identity CI gate depends on it.
	var profile parserhawk.Profile
	if *target == "custom" {
		profile = parserhawk.Custom(*key, *lookahead, *extract)
	} else {
		p, ok := tables.ProfileByName(*target)
		if !ok {
			fmt.Fprintf(os.Stderr, "parserhawk: unknown target %q\n", *target)
			os.Exit(2)
		}
		profile = p
	}

	opts := parserhawk.DefaultOptions()
	if *naive {
		opts = parserhawk.NaiveOptions()
	}
	opts.Timeout = *timeout
	opts.MaxIterations = *maxIter
	if *workers > 0 {
		opts.Workers = *workers
	}

	// -dimacs / -proof: keep the most-conflicted query any budget rung
	// reports and write it out after compilation — even a failed one, since
	// the hardest query of a timeout is exactly what one wants to replay
	// offline. Both flags select from the same core.HardestQuery, the one
	// the certificate's proof bundle comes from, so the dumped CNF and the
	// dumped proof always describe the same solver calls.
	var hardest core.HardestQuery
	if *dimacsDir != "" || *proofOut != "" {
		opts.QuerySink = hardest.Consider
	}
	if *certOut != "" {
		opts.EmitCertificate = true
	}
	if *proofOut != "" {
		opts.LogProofs = true
	}

	spec, err := parserhawk.ParseSpecFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *targets != "" {
		os.Exit(runTargets(spec, *targets, *expectFile, opts))
	}

	if *lintOnly {
		runLint(spec, profile, *emitJSON)
		return
	}

	if *emitP4 {
		out, err := parserhawk.PrintSpec(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	start := time.Now()
	var res *parserhawk.Result
	if *memoDir != "" {
		mc, merr := memo.Open(*memoDir)
		if merr != nil {
			fmt.Fprintln(os.Stderr, merr)
			os.Exit(1)
		}
		res, err = mc.CompileContext(context.Background(), spec, profile, opts)
	} else {
		res, err = parserhawk.Compile(spec, profile, opts)
	}
	if *dimacsDir != "" {
		if werr := writeHardest(*dimacsDir, spec.Name, hardest.Best()); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			if err == nil {
				os.Exit(1)
			}
		}
	}
	if *proofOut != "" {
		if werr := writeProof(*proofOut, hardest.Proved()); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			if err == nil {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "parserhawk: compilation failed: %v\n", err)
		os.Exit(1)
	}
	if *certOut != "" {
		if res.Certificate == nil {
			fmt.Fprintln(os.Stderr, "parserhawk: -cert: compile produced no certificate")
			os.Exit(1)
		}
		data, cerr := res.Certificate.Encode()
		if cerr == nil {
			cerr = os.WriteFile(*certOut, data, 0o644)
		}
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "parserhawk: -cert: %v\n", cerr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "parserhawk: certificate written to %s (check it with: hawkcheck %s %s)\n",
			*certOut, flag.Arg(0), *certOut)
	}

	if *emitJSON {
		data, err := parserhawk.EncodeProgramJSON(res.Program)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(res.Program)
	}
	emitStats := func() {
		data, err := json.MarshalIndent(res.Stats, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\n%s\n", data)
	}
	if *quiet {
		if *stats {
			emitStats()
		}
		return
	}
	fmt.Printf("\ntarget:            %s (%s)\n", profile.Name, profile.Arch)
	fmt.Printf("TCAM entries:      %d\n", res.Resources.Entries)
	fmt.Printf("parser stages:     %d\n", res.Resources.Stages)
	fmt.Printf("max key width:     %d bits\n", res.Resources.MaxKeyWidth)
	fmt.Printf("search space:      %d bits (naive encoding)\n", res.Stats.SearchSpaceBits)
	fmt.Printf("CEGIS iterations:  %d over %d examples\n", res.Stats.CEGISIterations, res.Stats.TestCases)
	fmt.Printf("solver effort:     %d solves, %d decisions, %d conflicts, %d propagations\n",
		res.Stats.Solver.Solves, res.Stats.Solver.Decisions, res.Stats.Solver.Conflicts, res.Stats.Solver.Propagations)
	fmt.Printf("compile time:      %v\n", time.Since(start).Round(time.Millisecond))

	if *stats {
		emitStats()
	}

	if *verify {
		rep := parserhawk.Verify(spec, res.Program, 0)
		if !rep.OK() {
			fmt.Fprintf(os.Stderr, "verification FAILED: %s\n", rep)
			os.Exit(1)
		}
		fmt.Printf("verification:      %s\n", rep)
	}
}

// runTargets is the -targets mode: resolve every requested profile
// through the shared profile list, fan the spec across them, print the
// comparison table, and — when an expectations file is given — gate on
// it. Unknown names are a usage error that lists the known profiles, so
// typos fail loudly instead of silently compiling a subset.
func runTargets(spec *parserhawk.Spec, list, expectPath string, opts parserhawk.Options) int {
	var profiles []parserhawk.Profile
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, ok := tables.ProfileByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "parserhawk: -targets: unknown target %q (known: %s)\n",
				name, strings.Join(tables.ProfileNames(), ", "))
			return 2
		}
		profiles = append(profiles, p)
	}
	if len(profiles) == 0 {
		fmt.Fprintln(os.Stderr, "parserhawk: -targets: no targets given")
		return 2
	}
	runs := tables.CompileTargets(spec, profiles, opts)
	fmt.Print(tables.FormatTargets(runs))
	if expectPath == "" {
		return 0
	}
	want, err := readExpectations(expectPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parserhawk: -expect: %v\n", err)
		return 2
	}
	failures := 0
	for _, r := range runs {
		exp, ok := want[r.Target]
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "parserhawk: -expect: no expectation for target %q\n", r.Target)
			failures++
		case r.Verdict != exp:
			fmt.Fprintf(os.Stderr, "parserhawk: -expect: %s: verdict %q, expected %q\n", r.Target, r.Verdict, exp)
			failures++
		case r.Verdict == "ok" && !r.Certified:
			fmt.Fprintf(os.Stderr, "parserhawk: -expect: %s: compiled but failed certification: %s\n", r.Target, r.CertErr)
			failures++
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// readExpectations parses a -expect file: one "target verdict" pair per
// line, blank lines and #-comments ignored.
func readExpectations(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	want := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"target verdict\", got %q", path, i+1, line)
		}
		want[fields[0]] = fields[1]
	}
	return want, nil
}

// writeHardest saves the hardest query q as <dir>/<spec>.hardest.cnf: a
// DIMACS comment header identifying the query, then the instance with
// that solve's assumptions as unit clauses. Capturing none (q nil) is no
// failure.
func writeHardest(dir, spec string, q *parserhawk.QueryDump) error {
	if q == nil { // a memo replay solves nothing
		fmt.Fprintln(os.Stderr, "parserhawk: -dimacs: no SAT query was captured; nothing written")
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("parserhawk: -dimacs: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "c parserhawk hardest query\n")
	fmt.Fprintf(&b, "c spec=%s skeleton=%s budget=%d examples=%d\n", q.Spec, q.Skeleton, q.Budget, q.Examples)
	fmt.Fprintf(&b, "c status=%s conflicts=%d\n", q.Status, q.Conflicts)
	b.Write(q.DIMACS)
	name := filepath.Join(dir, sanitize(spec)+".hardest.cnf")
	if err := os.WriteFile(name, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("parserhawk: -dimacs: %w", err)
	}
	fmt.Fprintf(os.Stderr, "parserhawk: hardest query (%d conflicts, %s, budget %d) written to %s\n",
		q.Conflicts, q.Status, q.Budget, name)
	return nil
}

// writeProof saves the hardest proof-bearing query q's DRAT log to path
// and the exact CNF it refutes to path+".cnf", a checkable pair for any
// DRAT checker (hawkcheck validates the same pair embedded in a
// certificate). Capturing none (q nil) is no failure.
func writeProof(path string, q *parserhawk.QueryDump) error {
	if q == nil { // no rung was refuted
		fmt.Fprintln(os.Stderr, "parserhawk: -proof: no UNSAT query with a proof was captured; nothing written")
		return nil
	}
	if err := os.WriteFile(path, q.Proof, 0o644); err != nil {
		return fmt.Errorf("parserhawk: -proof: %w", err)
	}
	if err := os.WriteFile(path+".cnf", q.DIMACS, 0o644); err != nil {
		return fmt.Errorf("parserhawk: -proof: %w", err)
	}
	fmt.Fprintf(os.Stderr, "parserhawk: DRAT proof (%d conflicts, budget %d) written to %s (CNF: %s.cnf)\n",
		q.Conflicts, q.Budget, path, path)
	return nil
}

// sanitize maps a spec name onto a safe file stem.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}

// runLint prints the SpecLint report for one spec — one line per
// diagnostic plus a severity summary, or a JSON array with -json — and
// exits 1 exactly when an error-severity diagnostic is present.
func runLint(spec *parserhawk.Spec, profile parserhawk.Profile, asJSON bool) {
	diags := parserhawk.LintFor(spec, profile)
	hasErrors := false
	for _, d := range diags {
		if d.Severity == parserhawk.SeverityError {
			hasErrors = true
		}
	}
	if asJSON {
		if diags == nil {
			diags = []parserhawk.Diag{} // emit [], not null
		}
		data, err := json.MarshalIndent(diags, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(data))
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s\n", spec.Name, d)
		}
		errs, warns, infos := 0, 0, 0
		for _, d := range diags {
			switch d.Severity {
			case parserhawk.SeverityError:
				errs++
			case parserhawk.SeverityWarning:
				warns++
			default:
				infos++
			}
		}
		fmt.Printf("%s: %d error(s), %d warning(s), %d note(s)\n", spec.Name, errs, warns, infos)
	}
	if hasErrors {
		os.Exit(1)
	}
}
