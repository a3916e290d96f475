package hw

import (
	"strings"
	"testing"

	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

func TestStreamingProfileConstructor(t *testing.T) {
	f := FPGAStreaming()
	if f.Arch != Streaming || f.AllowLoops() {
		t.Error("fpga must be a loop-free streaming pipeline")
	}
	if f.WindowBits <= 0 || f.StageLimit <= 0 {
		t.Errorf("fpga needs a window and a depth budget: %+v", f)
	}
	if f.Objective.For(f.Arch) != MinimizeDepth {
		t.Errorf("fpga objective resolves to %v, want min-depth", f.Objective.For(f.Arch))
	}
}

func TestFingerprintDistinguishesArchAndObjective(t *testing.T) {
	base := Tofino()
	seen := map[string]string{}
	add := func(what string, p Profile) {
		t.Helper()
		fp := p.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s fingerprint collides with %s: %q", what, prev, fp)
		}
		seen[fp] = what
	}
	add("base", base)
	archAlias := base
	archAlias.Arch = Streaming
	add("same-name different-arch", archAlias)
	objAlias := base
	objAlias.Objective = MinimizeStages
	add("same-name different-objective", objAlias)
	winAlias := archAlias
	winAlias.WindowBits = 64
	add("same-arch different-window", winAlias)
	if base.Fingerprint() != Tofino().Fingerprint() {
		t.Error("fingerprint is not stable across identical profiles")
	}
}

// streamProg builds a two-state streaming program whose cross-stage edge
// lands on the given table.
func streamProg(t *testing.T, nextTable int) *tcam.Program {
	t.Helper()
	spec := pir.MustNew("p", []pir.Field{{Name: "f", Width: 8}},
		[]pir.State{{Name: "S", Extracts: []pir.Extract{{Field: "f"}}, Default: pir.AcceptTarget}})
	return &tcam.Program{Spec: spec, States: []tcam.State{
		{Table: 0, ID: 0, Entries: []tcam.Entry{{Next: tcam.To(nextTable, 0)}}},
		{Table: nextTable, ID: 0, Entries: []tcam.Entry{{Next: tcam.AcceptTarget}}},
	}}
}

func TestValidateStreamingAlignment(t *testing.T) {
	p := FPGAStreaming()
	if err := p.Validate(streamProg(t, 1)); err != nil {
		t.Errorf("next-cycle transition must validate: %v", err)
	}
	if err := p.Validate(streamProg(t, 2)); err == nil || !strings.Contains(err.Error(), "aligned") {
		t.Errorf("stage-skipping transition must fail alignment, got %v", err)
	}
}

func TestValidateStreamingWindow(t *testing.T) {
	p := FPGAStreaming()
	p.WindowBits = 16
	p.ExtractLimit = 64
	mk := func(fields []pir.Field, extracts []pir.Extract) *tcam.Program {
		var pf []pir.Field
		pf = append(pf, fields...)
		spec := pir.MustNew("p", pf,
			[]pir.State{{Name: "S", Default: pir.AcceptTarget}})
		return &tcam.Program{Spec: spec, States: []tcam.State{
			{Table: 0, ID: 0, Entries: []tcam.Entry{{Extracts: extracts, Next: tcam.AcceptTarget}}},
		}}
	}
	// Two fixed fields totalling more than the window: the second word has
	// not arrived in this cycle, so the entry must be rejected.
	over := mk([]pir.Field{{Name: "a", Width: 12}, {Name: "b", Width: 12}},
		[]pir.Extract{{Field: "a"}, {Field: "b"}})
	if err := p.Validate(over); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("multi-field over-window extract must fail, got %v", err)
	}
	// A single oversized field keeps the continuation-entry exemption.
	wide := mk([]pir.Field{{Name: "a", Width: 48}}, []pir.Extract{{Field: "a"}})
	if err := p.Validate(wide); err != nil {
		t.Errorf("single wide field must keep the continuation exemption: %v", err)
	}
	// Within the window both fields fit in one cycle.
	fit := mk([]pir.Field{{Name: "a", Width: 8}, {Name: "b", Width: 8}},
		[]pir.Extract{{Field: "a"}, {Field: "b"}})
	if err := p.Validate(fit); err != nil {
		t.Errorf("in-window extract must validate: %v", err)
	}
}
