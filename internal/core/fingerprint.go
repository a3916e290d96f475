package core

import "fmt"

// Fingerprint encodes the Options fields that can influence a
// compilation's outcome — the verdict, the entry table, and the stage
// count — as a stable human-readable string. It is the options component
// of the compile service's content-addressed cache key: two Options with
// equal fingerprints are guaranteed to produce identical outcomes on the
// same (spec, profile), so a cached result may be served for either.
//
// Deliberately excluded are the fields the compiler's determinism
// contracts prove outcome-invariant, so they never fragment the cache:
//
//   - Workers: the portfolio scheduler reproduces the one-worker run's
//     verdicts, entry tables, and stage counts at every worker count (see
//     portfolio.go and the w4-vs-w1 CI identity job).
//   - Timeout: a deadline decides whether a result arrives, never which
//     result arrives. Timed-out compilations must not be cached at all.
//   - QuerySink / Seed-independent instrumentation: observation only.
//   - EmitCertificate / LogProofs: certificates and DRAT logs describe
//     the compilation without steering it — proof logging appends to a
//     side buffer and never changes a solver decision, and the
//     certificate is built from the finished program. The compile service relies on
//     this: it forces EmitCertificate on regardless of what the client's
//     fingerprint says.
//
// Seed stays in the key: it drives CEGIS test-case generation, and while
// any seed yields a correct program, different seeds may reach different
// (equally cheap) entry tables.
func (o Options) Fingerprint() string {
	return fmt.Sprintf(
		"opts2=%t,4=%t,5=%t;unroll=%d;budget=%d;skiplint=%t;seed=%d",
		o.Opt2BitWidthMin, o.Opt4ConstantSynthesis, o.Opt5KeyGrouping,
		o.MaxIterations, o.MaxBudget,
		o.SkipLint, o.Seed,
	)
}
