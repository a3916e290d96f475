// Package parserhawk is a hardware-aware parser generator using program
// synthesis — a from-scratch reproduction of "ParserHawk: Hardware-aware
// parser generator using program synthesis" (SIGCOMM 2025).
//
// ParserHawk compiles a P4-style parser specification into the TCAM
// configuration of a line-rate programmable parser. Instead of rewrite
// rules, it runs counterexample-guided inductive synthesis (CEGIS) over a
// built-in SAT/bitvector solver, searching for the semantically equivalent
// implementation that uses the fewest hardware resources — TCAM entries on
// single-table devices like the Barefoot Tofino, pipeline stages on
// pipelined devices like the Intel IPU.
//
// # Quick start
//
//	spec, err := parserhawk.ParseSpec(source)           // P4 subset text
//	res, err := parserhawk.Compile(spec, parserhawk.Tofino(), parserhawk.DefaultOptions())
//	fmt.Println(res.Program)                            // the TCAM entries
//	out := res.Program.Run(parserhawk.BitsOf(packet), 0) // parse a packet
//
// The compiler is retargetable: the same specification compiles for any
// Profile, and a new device needs only a new Profile (§7.3). Options
// toggles the §6 optimizations that change the search (Opt2, Opt4, Opt5);
// DefaultOptions enables all of them, NaiveOptions none (the paper's
// "Orig" mode). Opt7's parallel portfolio is Options.Workers, which never
// changes the outcome. Spec-guided keys (§6.1), extraction preallocation
// (§6.3) and per-example varbit widths (§6.6) are how the encoding works
// in both modes.
package parserhawk

import (
	"context"
	"fmt"
	"os"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/cert"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/lint"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
	"parserhawk/internal/sim"
	"parserhawk/internal/tcam"
)

// Spec is a parser specification: a finite-state machine of extraction
// and transition actions. Build one with ParseSpec or pir constructors.
type Spec = pir.Spec

// Program is a compiled TCAM parser implementation. Its Run method
// interprets the device semantics (Figure 6 of the paper).
type Program = tcam.Program

// Profile describes a target device's parser architecture and resource
// limits. Tofino, IPU, and Custom build common profiles.
type Profile = hw.Profile

// Options toggles the synthesis optimizations and budgets (§6).
type Options = core.Options

// Result is a successful compilation.
type Result = core.Result

// Stats reports how a compilation went.
type Stats = core.Stats

// SolverStats aggregates CDCL and bit-blasting counters over every solver
// instance a compilation ran, including racing attempts that lost.
type SolverStats = core.SolverStats

// IterationStats is one CEGIS iteration of the winning budget rung.
type IterationStats = core.IterationStats

// QueryDump is one captured SAT query (DIMACS CNF plus metadata),
// delivered to Options.QuerySink when DIMACS capture is enabled.
type QueryDump = core.QueryDump

// Certificate is the proof-carrying artifact a compile emits when
// Options.EmitCertificate is set: the effective spec, the compiled
// program, and (with Options.LogProofs) a DRAT proof of the hardest
// UNSAT solver query.
// It is validated by the independent checker in internal/cert and the
// hawkcheck command — see Certificate.SelfCheck.
type Certificate = cert.Certificate

// LintStats summarizes a compilation's SpecLint pre-pass: diagnostic
// tallies and the pre/post-prune specification size.
type LintStats = core.LintStats

// Diag is one structured SpecLint diagnostic (codes PH001–PH007).
type Diag = lint.Diag

// Severity classifies a Diag; error-severity diagnostics make Compile
// reject the specification.
type Severity = lint.Severity

// Diagnostic severities.
const (
	SeverityInfo    = lint.Info
	SeverityWarning = lint.Warning
	SeverityError   = lint.Error
)

// LintError is the diagnostics-bearing error Compile returns when the
// specification has error-severity lint findings.
type LintError = core.LintError

// Bits is a wire-order bit string; Dict maps field names to parsed values.
type (
	Bits = bitstream.Bits
	Dict = bitstream.Dict
)

// Compilation failure sentinels.
var (
	ErrTimeout    = core.ErrTimeout
	ErrNoSolution = core.ErrNoSolution
)

// DefaultOptions enables every optimization of §6 — the configuration the
// paper evaluates as "OPT".
func DefaultOptions() Options { return core.DefaultOptions() }

// NaiveOptions disables every optimization — the paper's "Orig" mode.
// Expect timeouts on non-trivial programs; that observation is Table 3.
func NaiveOptions() Options { return core.NaiveOptions() }

// Tofino returns the single-TCAM-table profile (loops allowed, entries
// are the scarce resource).
func Tofino() Profile { return hw.Tofino() }

// FPGA returns the streaming-pipeline profile (fixed words-per-cycle
// window, forward-only, depth is the scarce resource).
func FPGA() Profile { return hw.FPGAStreaming() }

// IPU returns the pipelined-TCAM-tables profile (forward-only, stages are
// the scarce resource).
func IPU() Profile { return hw.IPU() }

// Custom builds a single-table profile with explicit limits, matching the
// parameterized hardware of the paper's Table 4.
func Custom(keyLimit, lookahead, extract int) Profile {
	return hw.Parameterized(keyLimit, lookahead, extract)
}

// ParseSpec parses a parser written in the P4-16 subset (header
// declarations plus one parser with states, extracts, and selects).
func ParseSpec(source string) (*Spec, error) { return p4.ParseSpec(source) }

// ParseSpecFile reads and parses a .p4 file.
func ParseSpecFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("parserhawk: %w", err)
	}
	return p4.ParseSpec(string(data))
}

// Compile synthesizes a TCAM program implementing spec on the target
// device. It runs the full pipeline of the paper's Figure 8: semantic
// analysis, skeleton construction, CEGIS over the built-in solver,
// post-synthesis optimization, and device validation.
func Compile(spec *Spec, target Profile, opts Options) (*Result, error) {
	return core.Compile(spec, target, opts)
}

// CompileContext is Compile under a caller-supplied context. Cancellation
// propagates down to in-flight SAT solves and verification sweeps, so
// canceling ctx aborts the search promptly instead of waiting for the
// current solver call to finish. Options.Timeout, when set, applies as a
// deadline on top of ctx.
func CompileContext(ctx context.Context, spec *Spec, target Profile, opts Options) (*Result, error) {
	return core.CompileContext(ctx, spec, target, opts)
}

// CompileSource parses and compiles in one step.
func CompileSource(source string, target Profile, opts Options) (*Result, error) {
	spec, err := ParseSpec(source)
	if err != nil {
		return nil, err
	}
	return Compile(spec, target, opts)
}

// CompileFile reads, parses, and compiles a .p4 file.
func CompileFile(path string, target Profile, opts Options) (*Result, error) {
	spec, err := ParseSpecFile(path)
	if err != nil {
		return nil, err
	}
	return Compile(spec, target, opts)
}

// Unroll rewrites a loopy specification into the bounded loop-free form a
// pipelined device implements: loop states are replicated depth times and
// deeper stacks are dropped. Use it to state the equivalence contract for
// pipelined compilations of loopy parsers.
func Unroll(spec *Spec, depth int) (*Spec, error) { return core.Unroll(spec, depth) }

// Lint runs the SpecLint static analyzer over a specification without a
// device profile: the semantic passes only (reachability, width
// consistency, extraction dataflow, SAT-certified shadowing and dead
// defaults, zero-progress loops). Diagnostics come back sorted by state,
// rule, and code.
func Lint(spec *Spec) []Diag { return lint.Run(spec, nil) }

// LintFor is Lint plus the device-feasibility passes: key-width and
// lookahead demands are checked against the target profile (PH006), and
// parse loops on forward-only devices get the bounded-unrolling note.
func LintFor(spec *Spec, target Profile) []Diag { return lint.Run(spec, &target) }

// VerifyReport is the outcome of an equivalence check between a
// specification and a compiled program (the paper's §7.1 validation).
type VerifyReport = sim.Report

// Verify compares spec and program on the input space: exhaustively when
// the space is at most 2^16 inputs, otherwise on samples random inputs
// (0 picks a default). It is the Figure 22 simulator.
func Verify(spec *Spec, program *Program, samples int) VerifyReport {
	return sim.Check(spec, program, samples, 16, 0, 1)
}

// EncodeProgramJSON serializes a compiled program (with its field table)
// into the deployment JSON format; DecodeProgramJSON reverses it.
func EncodeProgramJSON(p *Program) ([]byte, error) { return p.EncodeJSON() }

// DecodeProgramJSON reconstructs a compiled program from its JSON form.
func DecodeProgramJSON(data []byte) (*Program, error) { return tcam.DecodeJSON(data) }

// PrintSpec renders a specification back into the P4 subset — useful for
// normalizing a parser or emitting the compiler's view of it.
func PrintSpec(spec *Spec) (string, error) { return p4.Print(spec) }

// BitsOf converts packet bytes into the wire-order bit string parsers
// consume.
func BitsOf(packet []byte) Bits { return bitstream.FromBytes(packet) }

// Uint builds a width-bit big-endian bit string from the low bits of v —
// convenient for constructing test inputs.
func Uint(v uint64, width int) Bits { return bitstream.FromUint(v, width) }
