package tables

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"parserhawk/internal/cert"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// TargetRun is one target's outcome of a multi-target compile: the verdict
// and resource footprint in that device's own objective units, plus the
// independent certificate check's result.
type TargetRun struct {
	Target    string
	Arch      hw.Arch
	Objective hw.Objective
	Verdict   string // "ok", "no_solution", "lint_error", or "error"
	Entries   int
	Stages    int
	Seconds   float64
	Certified bool
	CertErr   string // why certification failed, when it did
	Err       string // compile failure detail
}

// CompileTargets fans one spec across several device profiles
// concurrently. The portfolio worker budget (opts.Workers, zero meaning
// GOMAXPROCS) is split across the targets, so a multi-target compile costs
// the same worker pool as a single-target one; each per-target compile
// keeps the portfolio determinism contract, so the fan-out changes wall
// time only. Every successful compile is certified with the independent
// checker (CheckCertificate), whatever opts said: a comparison
// table mixing checked and unchecked rows would not be comparing like with
// like.
func CompileTargets(spec *pir.Spec, profiles []hw.Profile, opts core.Options) []TargetRun {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	perTarget := workers / len(profiles)
	if perTarget < 1 {
		perTarget = 1
	}
	runs := make([]TargetRun, len(profiles))
	var wg sync.WaitGroup
	for i, p := range profiles {
		wg.Add(1)
		go func(i int, p hw.Profile) {
			defer wg.Done()
			o := opts
			o.Workers = perTarget
			o.EmitCertificate = true
			runs[i] = compileTarget(spec, p, o)
		}(i, p)
	}
	wg.Wait()
	return runs
}

func compileTarget(spec *pir.Spec, profile hw.Profile, opts core.Options) TargetRun {
	run := TargetRun{
		Target:    profile.Name,
		Arch:      profile.Arch,
		Objective: profile.Objective.For(profile.Arch),
	}
	t0 := time.Now()
	res, err := core.Compile(spec, profile, opts)
	run.Seconds = time.Since(t0).Seconds()
	if err != nil {
		var lintErr *core.LintError
		switch {
		case errors.Is(err, core.ErrNoSolution):
			run.Verdict = "no_solution"
		case errors.As(err, &lintErr):
			run.Verdict = "lint_error"
		default:
			run.Verdict = "error"
		}
		run.Err = err.Error()
		return run
	}
	run.Verdict = "ok"
	run.Entries = res.Resources.Entries
	run.Stages = res.Resources.Stages
	switch {
	case res.Certificate == nil:
		run.CertErr = "compile produced no certificate"
	default:
		if cerr := CheckCertificate(spec, profile, res.Certificate); cerr != nil {
			run.CertErr = cerr.Error()
		} else {
			run.Certified = true
		}
	}
	return run
}

// CheckCertificate is the full independent validation of one certificate
// against the source spec and the device profile it claims to target: the
// spec name and hash, an arch cross-check, the effective-spec
// recomputation, the walk and optional DRAT proof (SelfCheck), and a
// device re-validation of the deployed program under the profile's own
// semantics — for streaming targets that is the window/depth rules
// (next-cycle alignment, per-cycle entry budget), which the walk alone
// does not police. hawkcheck and the multi-target
// harness share this path, so "certified" means the same thing in both.
func CheckCertificate(spec *pir.Spec, profile hw.Profile, c *cert.Certificate) error {
	if c.Spec != spec.Name {
		return fmt.Errorf("certificate is for spec %q, input is %q", c.Spec, spec.Name)
	}
	if got := core.SpecSHA(spec); got != c.SpecSHA {
		return fmt.Errorf("spec hash mismatch: certificate %s, input hashes to %s", c.SpecSHA, got)
	}
	// Arch cross-check: a certificate compiled for one architecture must
	// not validate against a profile of another, even if a name collision
	// (or a tampered file) says otherwise. Pre-arch certificates carry no
	// arch; the device re-validation below still applies.
	if c.Arch != "" && c.Arch != profile.Arch.String() {
		return fmt.Errorf("certificate arch %q does not match profile %s arch %q",
			c.Arch, profile.Name, profile.Arch)
	}
	// Recompute the effective spec from the input alone and demand the
	// certificate's copy is identical — a certificate for some other spec
	// (stale cache, tampered file) fails here before any traversal.
	opts := core.DefaultOptions()
	opts.MaxIterations = c.Unroll
	eff, err := core.EffectiveSpec(spec, profile, opts)
	if err != nil {
		return fmt.Errorf("recomputing effective spec: %w", err)
	}
	want, err := cert.EncodeSpecJSON(eff)
	if err != nil {
		return err
	}
	certEff, err := cert.DecodeSpecJSON(c.Effective)
	if err != nil {
		return fmt.Errorf("certificate effective spec: %w", err)
	}
	got, err := cert.EncodeSpecJSON(certEff)
	if err != nil {
		return err
	}
	if string(got) != string(want) {
		return errors.New("certificate's effective spec differs from the one recomputed from the input")
	}
	// Device re-validation: the walk proves behavioral equivalence; the
	// profile proves deployability. Both must hold for "certified".
	prog, err := tcam.DecodeJSON(c.Program)
	if err != nil {
		return fmt.Errorf("certificate program: %w", err)
	}
	prog.Spec = eff
	if err := profile.Validate(prog); err != nil {
		return fmt.Errorf("program violates device limits: %w", err)
	}
	return c.SelfCheck()
}

// FormatTargets renders a multi-target comparison table: one row per
// target, each reporting cost in its own objective's units. Cross-target
// dominance is intentionally absent — entries and cycles are not
// comparable, which is exactly why dominance stays per-objective inside
// the compiler.
func FormatTargets(runs []TargetRun) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %-22s %-12s %-12s %8s %8s %8s  %s\n",
		"target", "arch", "objective", "verdict", "entries", "stages", "time(s)", "certificate")
	sb.WriteString(strings.Repeat("-", 104) + "\n")
	for _, r := range runs {
		entries, stages := "-", "-"
		if r.Verdict == "ok" {
			entries = fmt.Sprintf("%d", r.Entries)
			stages = fmt.Sprintf("%d", r.Stages)
		}
		certCol := "-"
		if r.Verdict == "ok" {
			certCol = "ok"
			if !r.Certified {
				certCol = "FAILED: " + r.CertErr
			}
		}
		verdict := r.Verdict
		if r.Err != "" && r.Verdict == "error" {
			verdict = "error"
		}
		fmt.Fprintf(&sb, "%-14s %-22s %-12s %-12s %8s %8s %8.2f  %s\n",
			r.Target, r.Arch, r.Objective, verdict, entries, stages, r.Seconds, certCol)
		if r.Err != "" {
			fmt.Fprintf(&sb, "%-14s   %s\n", "", r.Err)
		}
	}
	return sb.String()
}
