package hw_test

import (
	"slices"
	"testing"

	"parserhawk/internal/hw"
	"parserhawk/internal/tables"
)

// Every tool resolves a -target name through the literal list
// tables.Profiles(). These tests pin that hw's built-in devices are reachable
// there under their own names and that no entry can shadow another.

func TestRegistryResolvesBuiltins(t *testing.T) {
	for name, want := range map[string]hw.Profile{
		"tofino": hw.Tofino(),
		"ipu":    hw.IPU(),
		"fpga":   hw.FPGAStreaming(),
	} {
		p, ok := tables.ProfileByName(name)
		if !ok || p.Name != name || p.Fingerprint() != want.Fingerprint() {
			t.Errorf("ProfileByName(%q) = %+v, %v", name, p, ok)
		}
	}
	if _, ok := tables.ProfileByName("nonesuch"); ok {
		t.Error("unknown profile resolved")
	}
	names := tables.ProfileNames()
	if !slices.IsSorted(names) {
		t.Errorf("ProfileNames() not sorted: %v", names)
	}
	if len(tables.Profiles()) != len(names) {
		t.Errorf("Profiles()=%d profiles, ProfileNames()=%d", len(tables.Profiles()), len(names))
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	seen := map[string]bool{}
	for i, p := range tables.Profiles() {
		if p.Name == "" {
			t.Errorf("profile %d has an empty name", i)
		}
		if seen[p.Name] {
			t.Errorf("profile %q listed twice: ProfileByName never reaches the later entry", p.Name)
		}
		seen[p.Name] = true
	}
}
