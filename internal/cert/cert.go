// Package cert defines the compilation certificate ParserHawk emits
// alongside every synthesized parser and the independent static checkers
// that validate it.
//
// A certificate carries the effective spec and the compiled program, so
// a checker re-derives their equivalence with the product-automaton walk
// in witness.go (no packet simulation, no dependence on the CEGIS search
// in internal/core/verify.go), plus an optional DRAT proof bundle: the
// DIMACS CNF and clausal proof of the hardest UNSAT solver query,
// validated by the forward unit-propagation checker in drat.go.
//
// This package deliberately imports only the IRs (pir, tcam): it must
// never import internal/core, so a bug in the synthesizer cannot leak
// into the checker that is supposed to catch it.
package cert

import (
	"encoding/json"
	"fmt"
	"strconv"

	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// Version is the certificate schema version this package reads and
// writes. Checkers reject certificates from a different schema.
const Version = 2

// Certificate is the self-contained proof-carrying artifact emitted by a
// compile. It embeds everything a checker needs: the effective spec the
// synthesizer actually targeted (post-lint-prune, post-unroll), the
// compiled TCAM program, and optionally a DRAT proof for the compile's
// hardest UNSAT query.
type Certificate struct {
	Version int    `json:"version"`
	Spec    string `json:"spec"`    // name of the input specification
	SpecSHA string `json:"specSHA"` // sha256 of the canonical P4 text of the input spec
	Profile string `json:"profile"` // hardware profile the program targets
	// Arch is the profile's architecture class (hw.Arch.String()), so a
	// checker can re-validate the program under the right device
	// semantics — streaming window/depth rules differ from single-table
	// ones — even when it resolves the profile name differently than the
	// compiling binary did. Empty in pre-arch certificates; checkers then
	// fall back to the resolved profile's own arch.
	Arch   string `json:"arch,omitempty"`
	Unroll int    `json:"unroll,omitempty"`

	// Effective is the structural JSON (EncodeSpecJSON) of the effective
	// spec: the input after the lint/prune fixpoint and, for loopy specs
	// on loop-free targets, after unrolling. The walk relates THIS spec
	// to the program; hawkcheck recomputes it independently from the
	// input spec and refuses certificates where the two disagree.
	Effective json.RawMessage `json:"effective"`

	// Program is the tcam deployment JSON (tcam.EncodeJSON) of the
	// compiled parser.
	Program json.RawMessage `json:"program"`

	Proof *ProofBundle `json:"proof,omitempty"`

	// Error records why the compile-time walk could not decide the
	// program. A compile still succeeds in that case — the certificate
	// records that it is unverifiable, and checkers treat it as failing.
	Error string `json:"error,omitempty"`
}

// ProofBundle carries the DRAT proof of the hardest UNSAT solver query a
// compile answered, together with the exact CNF (including assumption
// units) it refutes. Status and Conflicts identify the solve the pair
// came from; both files always refer to the same solver call.
type ProofBundle struct {
	Skeleton  string `json:"skeleton"`
	Budget    int    `json:"budget"`
	Examples  int    `json:"examples"`
	Status    string `json:"status"`
	Conflicts int64  `json:"conflicts"`
	DIMACS    []byte `json:"dimacs"` // base64 in JSON
	DRAT      []byte `json:"drat"`   // base64 in JSON
}

// Encode serializes the certificate as indented JSON.
func (c *Certificate) Encode() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// Decode parses a certificate produced by Encode.
func Decode(data []byte) (*Certificate, error) {
	var c Certificate
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("cert: %w", err)
	}
	if c.Version != Version {
		return nil, fmt.Errorf("cert: unsupported certificate version %d (checker speaks %d)", c.Version, Version)
	}
	return &c, nil
}

// SelfCheck validates a certificate against its own embedded effective
// spec and program: the walk plus, when a proof bundle is present, the
// DRAT refutation. It does NOT re-derive the effective spec from the
// input — callers that hold the input spec (hawkcheck) should
// additionally compare SpecSHA and the recomputed effective spec.
// Returns nil exactly when the certificate checks.
func (c *Certificate) SelfCheck() error {
	if c.Error != "" {
		return fmt.Errorf("cert: certificate records an undecided walk: %s", c.Error)
	}
	eff, err := DecodeSpecJSON(c.Effective)
	if err != nil {
		return fmt.Errorf("cert: effective spec: %w", err)
	}
	prog, err := tcam.DecodeJSON(c.Program)
	if err != nil {
		return fmt.Errorf("cert: program: %w", err)
	}
	if err := Walk(eff, prog); err != nil {
		return err
	}
	if c.Proof != nil {
		if err := CheckDRAT(c.Proof.DIMACS, c.Proof.DRAT); err != nil {
			return fmt.Errorf("cert: proof: %w", err)
		}
	}
	return nil
}

// jsonSpec is the structural JSON form of a pir.Spec. The effective
// spec is stored structurally rather than as P4 text because unrolled
// state names ("mpls@2") need not survive a P4 round-trip.
type jsonSpec struct {
	Name   string          `json:"name"`
	Fields []pir.Field     `json:"fields"`
	States []jsonSpecState `json:"states"`
}

type jsonSpecState struct {
	Name     string         `json:"name"`
	Extracts []pir.Extract  `json:"extracts,omitempty"`
	Key      []pir.KeyPart  `json:"key,omitempty"`
	Rules    []jsonSpecRule `json:"rules,omitempty"`
	Default  jsonSpecTarget `json:"default"`
}

type jsonSpecRule struct {
	Value string         `json:"value"` // hex
	Mask  string         `json:"mask"`  // hex
	Next  jsonSpecTarget `json:"next"`
}

type jsonSpecTarget struct {
	Kind  string `json:"kind"` // "state" | "accept" | "reject"
	State int    `json:"state,omitempty"`
}

func encodeSpecTarget(t pir.Target) jsonSpecTarget {
	switch t.Kind {
	case pir.Accept:
		return jsonSpecTarget{Kind: "accept"}
	case pir.Reject:
		return jsonSpecTarget{Kind: "reject"}
	default:
		return jsonSpecTarget{Kind: "state", State: t.State}
	}
}

func decodeSpecTarget(t jsonSpecTarget) (pir.Target, error) {
	switch t.Kind {
	case "accept":
		return pir.AcceptTarget, nil
	case "reject":
		return pir.RejectTarget, nil
	case "state":
		return pir.To(t.State), nil
	}
	return pir.Target{}, fmt.Errorf("unknown target kind %q", t.Kind)
}

// EncodeSpecJSON serializes a pir.Spec structurally.
func EncodeSpecJSON(s *pir.Spec) ([]byte, error) {
	// The copy is nil for an empty field table, which the wire form
	// writes as "fields":null.
	out := jsonSpec{Name: s.Name, Fields: append([]pir.Field(nil), s.Fields...)}
	for i := range s.States {
		st := &s.States[i]
		js := jsonSpecState{Name: st.Name, Extracts: st.Extracts, Key: st.Key, Default: encodeSpecTarget(st.Default)}
		for _, r := range st.Rules {
			js.Rules = append(js.Rules, jsonSpecRule{
				Value: fmt.Sprintf("%#x", r.Value),
				Mask:  fmt.Sprintf("%#x", r.Mask),
				Next:  encodeSpecTarget(r.Next),
			})
		}
		out.States = append(out.States, js)
	}
	return json.Marshal(out)
}

// DecodeSpecJSON reconstructs and validates a pir.Spec from its
// EncodeSpecJSON form (validation runs through pir.New).
func DecodeSpecJSON(data []byte) (*pir.Spec, error) {
	var in jsonSpec
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	states := make([]pir.State, 0, len(in.States))
	for _, js := range in.States {
		def, err := decodeSpecTarget(js.Default)
		if err != nil {
			return nil, fmt.Errorf("state %q: %w", js.Name, err)
		}
		st := pir.State{Name: js.Name, Extracts: js.Extracts, Key: js.Key, Default: def}
		for _, r := range js.Rules {
			next, err := decodeSpecTarget(r.Next)
			if err != nil {
				return nil, fmt.Errorf("state %q: %w", js.Name, err)
			}
			v, err := strconv.ParseUint(r.Value, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("state %q: rule value %q: %w", js.Name, r.Value, err)
			}
			m, err := strconv.ParseUint(r.Mask, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("state %q: rule mask %q: %w", js.Name, r.Mask, err)
			}
			st.Rules = append(st.Rules, pir.Rule{Value: v, Mask: m, Next: next})
		}
		states = append(states, st)
	}
	return pir.New(in.Name, in.Fields, states)
}
