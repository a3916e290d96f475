package tables

import (
	"slices"

	"parserhawk/internal/hw"
)

// Profiles returns every named device profile the repository knows how to
// compile for: the full devices (internal/hw), then the scaled evaluation
// equivalents this package defines. It is the one list of profile names:
// the CLI -target/-targets flags, hawkcheck, hawkfuzz and the compile
// service's /v1/profiles endpoint all resolve through it, which the
// service-vs-CLI identity gate relies on.
func Profiles() []hw.Profile {
	return []hw.Profile{
		hw.Tofino(), hw.IPU(), hw.FPGAStreaming(),
		TofinoScaled(), IPUScaled(), FPGAScaled(),
	}
}

// ProfileByName resolves a device profile by its Name field, covering
// both the full devices and the scaled evaluation profiles.
func ProfileByName(name string) (hw.Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return hw.Profile{}, false
}

// ProfileNames returns every profile name, sorted, for error messages that
// list the valid targets.
func ProfileNames() []string {
	var out []string
	for _, p := range Profiles() {
		out = append(out, p.Name)
	}
	slices.Sort(out)
	return out
}
