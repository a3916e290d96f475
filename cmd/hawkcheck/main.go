// Command hawkcheck validates ParserHawk compilation certificates
// independently of the compiler that produced them.
//
// Usage:
//
//	hawkcheck parser.p4 parser.cert.json   # check one certificate
//	hawkcheck -table3                      # compile & certify the whole
//	                                       # Table 3 suite, then reject
//	                                       # seeded mutations (the CI gate)
//
// The two-argument form re-derives everything the certificate claims from
// the source specification: the spec hash, the effective (post-lint,
// post-unroll) spec, the program's equivalence to it by the product
// automaton walk, and — when a proof bundle is present — the DRAT
// refutation of the hardest UNSAT solver query. None of these checks call
// into the synthesizer or its CEGIS verifier; the checker lives in
// internal/cert and trusts only the two IRs.
//
// Exit status: 0 when the certificate is valid, 1 when any check fails,
// 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parserhawk"
	"parserhawk/internal/benchdata"
	"parserhawk/internal/cert"
	"parserhawk/internal/hw"
	"parserhawk/internal/tables"
)

func main() {
	var (
		table3  = flag.Bool("table3", false, "compile every Table 3 benchmark on both scaled targets, check each certificate, and reject seeded mutations")
		timeout = flag.Duration("timeout", 2*time.Minute, "-table3: per-compilation time budget")
		seed    = flag.Int64("seed", 7, "-table3: seed for the mutation generator")
		verbose = flag.Bool("v", false, "print every check, not just failures")
	)
	flag.Parse()

	if *table3 {
		os.Exit(runTable3(*timeout, *seed, *verbose))
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: hawkcheck [flags] parser.p4 cert.json\n       hawkcheck -table3")
		flag.Usage()
		os.Exit(2)
	}

	spec, err := parserhawk.ParseSpecFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hawkcheck: %v\n", err)
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hawkcheck: %v\n", err)
		os.Exit(2)
	}
	c, err := cert.Decode(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hawkcheck: %v\n", err)
		os.Exit(2)
	}
	profile, ok := tables.ProfileByName(c.Profile)
	if !ok {
		fmt.Fprintf(os.Stderr, "hawkcheck: certificate targets unknown profile %q\n", c.Profile)
		os.Exit(2)
	}
	if err := checkAgainstSpec(spec, profile, c); err != nil {
		fmt.Fprintf(os.Stderr, "hawkcheck: FAILED: %v\n", err)
		os.Exit(1)
	}
	what := "walk"
	if c.Proof != nil {
		what = "walk + DRAT proof"
	}
	fmt.Printf("hawkcheck: OK: %s (%s on %s)\n", what, c.Spec, c.Profile)
}

// checkAgainstSpec runs the full validation of one certificate against
// the source specification it claims to compile: spec identity, arch
// cross-check, effective-spec recomputation, walk/proof self-check, and
// a device re-validation of the program under the profile's own semantics
// (the streaming window/depth rules for fpga targets). The logic lives in
// tables.CheckCertificate so the multi-target harness applies the same
// standard.
func checkAgainstSpec(spec *parserhawk.Spec, profile hw.Profile, c *cert.Certificate) error {
	return tables.CheckCertificate(spec, profile, c)
}

// runTable3 is the certify CI job: every Table 3 benchmark × all three
// scaled targets is compiled with certificates and proof logging on, every
// certificate must check, and every seeded mutation of it must fail; each
// program mutant must be refuted with a packet the interpreters replay.
func runTable3(timeout time.Duration, seed int64, verbose bool) int {
	profiles := []hw.Profile{tables.TofinoScaled(), tables.IPUScaled(), tables.FPGAScaled()}
	checked, withProof, failures := 0, 0, 0
	fail := func(format string, a ...any) {
		failures++
		fmt.Fprintf(os.Stderr, "FAIL "+format+"\n", a...)
	}
	for _, b := range benchdata.All() {
		for _, profile := range profiles {
			name := fmt.Sprintf("%s on %s", b.Name(), profile.Name)
			opts := parserhawk.DefaultOptions()
			opts.Timeout = timeout
			opts.MaxIterations = b.MaxIterations
			opts.EmitCertificate = true
			opts.LogProofs = true
			res, err := parserhawk.Compile(b.Spec, profile, opts)
			if err != nil {
				fail("%s: compile: %v", name, err)
				continue
			}
			c := res.Certificate
			if c == nil {
				fail("%s: no certificate emitted", name)
				continue
			}
			if err := checkAgainstSpec(b.Spec, profile, c); err != nil {
				fail("%s: %v", name, err)
				continue
			}
			checked++
			if c.Proof != nil {
				withProof++
			}
			muts, err := cert.FailingMutations(c, seed)
			if err != nil {
				fail("%s: mutations: %v", name, err)
				continue
			}
			var rejected []string
			for _, m := range muts {
				if m.Cert.SelfCheck() == nil {
					fail("%s: mutation %s (%s) passed the checker", name, m.Name, m.Edit)
				} else if m.Packet != nil {
					rejected = append(rejected, fmt.Sprintf("%s (%s, packet %s)", m.Name, m.Edit, m.Packet))
				} else {
					rejected = append(rejected, fmt.Sprintf("%s (%s)", m.Name, m.Edit))
				}
			}
			if verbose {
				fmt.Printf("ok   %s: proof=%v, rejected %s\n", name, c.Proof != nil, strings.Join(rejected, ", "))
			}
		}
	}
	fmt.Printf("hawkcheck -table3: %d certificates checked (%d with DRAT proofs), %d failures\n",
		checked, withProof, failures)
	if failures > 0 {
		return 1
	}
	return 0
}
