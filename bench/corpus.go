package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/hw"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
	"parserhawk/internal/tables"
)

// cell is one compile input: a parser as the P4 text a user would submit,
// the device it targets, and the loop bound the suite compiles it with.
type cell struct {
	ID      string // "<benchmark>@<profile>", the key into expected.json
	Source  string
	Spec    *pir.Spec // Source, parsed
	Profile hw.Profile
	MaxIter int
}

// newCell renders spec to P4 and parses it back, so every workload
// compiles exactly what a client of the CLI or of hawkd would send.
func newCell(id string, spec *pir.Spec, profile hw.Profile, maxIter int) (*cell, error) {
	src, err := p4.Print(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	parsed, err := p4.ParseSpec(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return &cell{ID: id, Source: src, Spec: parsed, Profile: profile, MaxIter: maxIter}, nil
}

func scaledProfiles() []hw.Profile {
	return []hw.Profile{tables.TofinoScaled(), tables.IPUScaled(), tables.FPGAScaled()}
}

// suiteCells is the 132-cell Table 3 suite: every benchmark on the three
// scaled devices, and the wire-scale set on the three full devices.
func suiteCells() ([]*cell, error) {
	var out []*cell
	add := func(benches []benchdata.Benchmark, profiles []hw.Profile) error {
		for _, b := range benches {
			for _, p := range profiles {
				c, err := newCell(b.Name()+"@"+p.Name, b.Spec, p, b.MaxIterations)
				if err != nil {
					return err
				}
				out = append(out, c)
			}
		}
		return nil
	}
	if err := add(benchdata.All(), scaledProfiles()); err != nil {
		return nil, err
	}
	if err := add(benchdata.WireScale(), []hw.Profile{hw.Tofino(), hw.IPU(), hw.FPGAStreaming()}); err != nil {
		return nil, err
	}
	return out, nil
}

// naiveIDs are the suite cells whose naive (Orig) compile finishes within
// its timeout and spends at least 30% of its time in synthesis: the only
// in-repo inputs on which the SAT and bit-blasting layers dominate. Wire
// Dash qualifies too but is left out: its naive compile returns a program
// that extracts a field the spec does not, on about one input in ten
// thousand. Dash V2 is compiled on one device only: its naive compile
// poses the same solver queries on all three (the same conflicts and
// propagations), and the 8 s a pass the other two copies would take buy
// more passes of the rest instead.
var naiveIDs = []string{
	"Dash V2@tofino-scaled",
	"Sai V2 +R1+R2@tofino-scaled", "Sai V2 +R1+R2@ipu-scaled", "Sai V2 +R1+R2@fpga-scaled",
	"Deep GTP-U@ipu-scaled", "Deep GTP-U@fpga-scaled",
	"Deep SRv6@ipu-scaled", "Deep SRv6@fpga-scaled",
	"Wire QinQ@tofino", "Wire QinQ@ipu", "Wire QinQ@fpga",
}

// pick returns the cells named by ids, in ids order.
func pick(cells []*cell, ids []string) ([]*cell, error) {
	byID := make(map[string]*cell, len(cells))
	for _, c := range cells {
		byID[c.ID] = c
	}
	out := make([]*cell, 0, len(ids))
	for _, id := range ids {
		c, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("unknown cell %q", id)
		}
		out = append(out, c)
	}
	return out, nil
}

// aliasCells is benchdata.Alias() on the scaled devices: every benchmark
// with its fields and states renamed and its rule values salted outside
// their masks.
func aliasCells() ([]*cell, error) {
	var out []*cell
	for _, b := range benchdata.Alias() {
		spec, err := printable(b.Spec)
		if err != nil {
			return nil, fmt.Errorf("alias %s: %w", b.Name(), err)
		}
		for _, p := range scaledProfiles() {
			c, err := newCell("alias:"+b.Name()+"@"+p.Name, spec, p, b.MaxIterations)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// printable renames every field not in header.field form (the alias
// rewrite names them alias_fN) to name.v, which p4.Print can render. The
// rename is one-to-one, so the canonical form is unchanged.
func printable(s *pir.Spec) (*pir.Spec, error) {
	ren := func(n string) string {
		if n == "" || strings.Contains(n, ".") {
			return n
		}
		return n + ".v"
	}
	fields := make([]pir.Field, len(s.Fields))
	for i, f := range s.Fields {
		f.Name = ren(f.Name)
		fields[i] = f
	}
	states := make([]pir.State, len(s.States))
	for i, st := range s.States {
		st.Extracts = append([]pir.Extract(nil), st.Extracts...)
		for j := range st.Extracts {
			x := &st.Extracts[j]
			x.Field, x.LenField = ren(x.Field), ren(x.LenField)
		}
		st.Key = append([]pir.KeyPart(nil), st.Key...)
		for j := range st.Key {
			if !st.Key[j].Lookahead {
				st.Key[j].Field = ren(st.Key[j].Field)
			}
		}
		states[i] = st
	}
	return pir.New(s.Name, fields, states)
}

// expected is expected.json: the verdict every cell had when the benchmark
// was defined. A verdict that differs is a failed operation.
type expected struct {
	Verdicts map[string]string `json:"verdicts"`
}

// benchDir holds the benchmark's data files, relative to the repository
// root the benchmark runs from.
const benchDir = "bench"

func readJSON(name string, v any) error {
	data, err := os.ReadFile(filepath.Join(benchDir, name))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func writeJSON(name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir, name), append(data, '\n'), 0o644)
}

func loadExpected() (*expected, error) {
	var e expected
	if err := readJSON("expected.json", &e); err != nil {
		return nil, err
	}
	return &e, nil
}

// shuffled returns a seeded permutation of cells.
func shuffled(rng *rand.Rand, cells []*cell) []*cell {
	out := append([]*cell(nil), cells...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
