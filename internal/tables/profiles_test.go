package tables_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"parserhawk/internal/serve"
	"parserhawk/internal/tables"
)

// TestProfiles: Profiles is the six uniquely named profiles in their
// fixed order, each name resolves to its own profile, ProfileNames is the
// sorted list, an unknown name misses, and the compile service's
// /v1/profiles lists the same profiles in the same order.
func TestProfiles(t *testing.T) {
	want := []string{"tofino", "ipu", "fpga", "tofino-scaled", "ipu-scaled", "fpga-scaled"}
	var names []string
	for _, p := range tables.Profiles() {
		names = append(names, p.Name)
		got, ok := tables.ProfileByName(p.Name)
		if !ok || got.Fingerprint() != p.Fingerprint() {
			t.Errorf("ProfileByName(%q) = %+v, %v", p.Name, got, ok)
		}
	}
	if !slices.Equal(names, want) {
		t.Fatalf("Profiles() = %v, want %v", names, want)
	}
	sorted := slices.Clone(want)
	slices.Sort(sorted)
	if !slices.Equal(tables.ProfileNames(), sorted) {
		t.Errorf("ProfileNames() = %v, want %v", tables.ProfileNames(), sorted)
	}
	if p, ok := tables.ProfileByName("nonesuch"); ok {
		t.Errorf("unknown name resolved to %+v", p)
	}

	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []serve.ProfileInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	var served []string
	for _, info := range infos {
		served = append(served, info.Name)
	}
	if !slices.Equal(served, want) {
		t.Errorf("/v1/profiles lists %v, want %v", served, want)
	}
}
