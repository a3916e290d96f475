// Package pir defines ParserHawk's parser intermediate representation.
//
// A parser specification is a finite-state machine (§2.1): each state
// extracts zero or more packet fields from the input bitstream and then
// selects a successor state by matching a transition key — a concatenation
// of already-extracted field slices and not-yet-extracted lookahead bits —
// against an ordered list of ternary (value, mask) rules.
//
// The package also provides the reference interpreter Spec(I) (§4) and the
// semantic analyses that drive the synthesis optimizations of §6: relevant
// transition-key bits (Opt1), irrelevant fields (Opt2) and loop detection
// (Opt7.1). Extraction preallocation (Opt3), constant domains (Opt4) and
// key grouping (Opt5) are built per skeleton state in package core.
package pir

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// TargetKind discriminates transition targets.
type TargetKind int

// Transition target kinds.
const (
	ToState TargetKind = iota // transition to another parser state
	Accept                    // finish parsing successfully
	Reject                    // abort parsing; the packet is dropped
)

// Target is the destination of a state transition.
type Target struct {
	Kind  TargetKind
	State int // index into Spec.States when Kind == ToState
}

// AcceptTarget and RejectTarget are the canonical terminal targets.
var (
	AcceptTarget = Target{Kind: Accept}
	RejectTarget = Target{Kind: Reject}
)

// To returns a Target transitioning to state index s.
func To(s int) Target { return Target{Kind: ToState, State: s} }

func (t Target) String() string {
	switch t.Kind {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("state(%d)", t.State)
	}
}

// Field, Extract and KeyPart carry their JSON wire names: the deployment
// program (tcam.EncodeJSON) and the certificate's effective spec
// (cert.EncodeSpecJSON) marshal them as they are, so a tag change changes
// every stored program and certificate.

// Field declares a packet field the parser may extract.
type Field struct {
	Name  string `json:"name"`
	Width int    `json:"width"`            // width in bits; for varbit fields the maximum width
	Var   bool   `json:"varbit,omitempty"` // true for varbit fields whose width is determined at run time
}

// Extract is one field-extraction action inside a state. Extractions within
// a state happen in order, each advancing the stream cursor by the field's
// (possibly runtime-determined) width.
type Extract struct {
	Field string `json:"field"` // name of the extracted field

	// Varbit length: when LenField is non-empty the extracted width is
	// value(LenField)*LenScale + LenBias bits, clamped to [0, Field.Width].
	// LenField must have been extracted earlier on every path to this state.
	LenField string `json:"lenField,omitempty"`
	LenScale int    `json:"lenScale,omitempty"`
	LenBias  int    `json:"lenBias,omitempty"`
}

// KeyPart is one component of a state's transition key. Exactly one of the
// two variants is used:
//
//   - a field slice: bits [Lo, Hi) of an extracted field, MSB-first, or
//   - lookahead: Width bits starting Skip bits past the current cursor.
type KeyPart struct {
	Field string `json:"field,omitempty"` // extracted-field variant when non-empty
	Lo    int    `json:"lo,omitempty"`    // bit range [Lo, Hi) within the field, 0 = MSB
	Hi    int    `json:"hi,omitempty"`

	Lookahead bool `json:"lookahead,omitempty"` // lookahead variant when true
	Skip      int  `json:"skip,omitempty"`      // bits to skip past the cursor before the window
	Width     int  `json:"width,omitempty"`     // lookahead window width
}

// FieldSlice builds a key part selecting bits [lo, hi) of field f.
func FieldSlice(f string, lo, hi int) KeyPart { return KeyPart{Field: f, Lo: lo, Hi: hi} }

// WholeField builds a key part selecting all bits of a width-w field.
func WholeField(f string, w int) KeyPart { return KeyPart{Field: f, Lo: 0, Hi: w} }

// LookaheadBits builds a lookahead key part of width bits, skip bits ahead
// of the cursor.
func LookaheadBits(skip, width int) KeyPart {
	return KeyPart{Lookahead: true, Skip: skip, Width: width}
}

// BitWidth returns the number of key bits this part contributes.
func (p KeyPart) BitWidth() int {
	if p.Lookahead {
		return p.Width
	}
	return p.Hi - p.Lo
}

func (p KeyPart) String() string {
	if p.Lookahead {
		return fmt.Sprintf("lookahead(+%d,%d)", p.Skip, p.Width)
	}
	return fmt.Sprintf("%s[%d:%d]", p.Field, p.Lo, p.Hi)
}

// Rule is one ternary transition rule: the rule fires when
// key & Mask == Value & Mask. Rules are checked in order; the first match
// wins, mirroring TCAM priority.
type Rule struct {
	Value, Mask uint64
	Next        Target
}

// ExactRule builds a rule matching the full key exactly (mask of all ones
// over width bits).
func ExactRule(value uint64, width int, next Target) Rule {
	return Rule{Value: value, Mask: widthMask(width), Next: next}
}

func widthMask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// State is one parser state.
type State struct {
	Name     string
	Extracts []Extract
	Key      []KeyPart
	Rules    []Rule
	Default  Target // taken when no rule matches; Accept in P4 by default
}

// KeyWidth returns the total transition-key width of the state in bits.
func (s *State) KeyWidth() int {
	w := 0
	for _, p := range s.Key {
		w += p.BitWidth()
	}
	return w
}

// Spec is a complete parser specification.
type Spec struct {
	Name   string
	Fields []Field
	States []State // States[0] is the start state

	fieldIdx map[string]int
}

// New constructs a validated Spec. It is the only constructor; the returned
// Spec is immutable by convention.
func New(name string, fields []Field, states []State) (*Spec, error) {
	s := &Spec{Name: name, Fields: fields, States: states}
	s.fieldIdx = make(map[string]int, len(fields))
	var dups []error
	for i, f := range fields {
		if _, dup := s.fieldIdx[f.Name]; dup {
			dups = append(dups, fmt.Errorf("pir: duplicate field %q", f.Name))
			continue
		}
		s.fieldIdx[f.Name] = i
	}
	if err := errors.Join(append(dups, s.Validate())...); err != nil {
		return nil, err
	}
	return s, nil
}

// MustNew is New that panics on error; for tests and static benchmark data.
func MustNew(name string, fields []Field, states []State) *Spec {
	s, err := New(name, fields, states)
	if err != nil {
		panic(err)
	}
	return s
}

// Field returns the declaration of the named field.
func (s *Spec) Field(name string) (Field, bool) {
	i, ok := s.fieldIdx[name]
	if !ok {
		return Field{}, false
	}
	return s.Fields[i], true
}

// StateIndex returns the index of the named state, or -1.
func (s *Spec) StateIndex(name string) int {
	for i := range s.States {
		if s.States[i].Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the specification's structural invariants and returns
// every violation found, joined with errors.Join — not just the first —
// so a caller fixing a hand-written spec sees the whole repair list at
// once. A nil result means the spec is well-formed.
func (s *Spec) Validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("pir: "+format, args...))
	}
	if len(s.States) == 0 {
		bad("spec %q has no states", s.Name)
	}
	for _, f := range s.Fields {
		if f.Width <= 0 {
			bad("field %q has non-positive width %d", f.Name, f.Width)
		}
	}
	seen := map[string]bool{}
	for si := range s.States {
		st := &s.States[si]
		if seen[st.Name] {
			bad("duplicate state name %q", st.Name)
		}
		seen[st.Name] = true
		for _, e := range st.Extracts {
			f, ok := s.Field(e.Field)
			if !ok {
				bad("state %q extracts unknown field %q", st.Name, e.Field)
				continue
			}
			if e.LenField != "" {
				if !f.Var {
					bad("state %q gives runtime length to fixed field %q", st.Name, e.Field)
				}
				if _, ok := s.Field(e.LenField); !ok {
					bad("state %q length field %q unknown", st.Name, e.LenField)
				}
			} else if f.Var {
				bad("state %q extracts varbit field %q without a length", st.Name, e.Field)
			}
		}
		for _, p := range st.Key {
			if p.Lookahead {
				if p.Skip < 0 || p.Width <= 0 {
					bad("state %q has invalid lookahead %v", st.Name, p)
				}
				continue
			}
			f, ok := s.Field(p.Field)
			if !ok {
				bad("state %q keys on unknown field %q", st.Name, p.Field)
				continue
			}
			if p.Lo < 0 || p.Hi > f.Width || p.Lo >= p.Hi {
				bad("state %q key slice %v out of range for width %d", st.Name, p, f.Width)
			}
		}
		kw := st.KeyWidth()
		if kw > 64 {
			bad("state %q key width %d exceeds 64", st.Name, kw)
		}
		if kw == 0 && len(st.Rules) > 0 {
			bad("state %q has rules but no key", st.Name)
		}
		for _, r := range st.Rules {
			if err := s.checkTarget(r.Next); err != nil {
				bad("state %q rule: %v", st.Name, err)
			}
		}
		if err := s.checkTarget(st.Default); err != nil {
			bad("state %q default: %v", st.Name, err)
		}
	}
	return errors.Join(errs...)
}

func (s *Spec) checkTarget(t Target) error {
	if t.Kind == ToState && (t.State < 0 || t.State >= len(s.States)) {
		return fmt.Errorf("target state %d out of range", t.State)
	}
	return nil
}

// String renders the spec in a compact P4-flavoured text form, useful in
// error messages and golden tests.
func (s *Spec) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "parser %s {\n", s.Name)
	for _, f := range s.Fields {
		kind := "bit"
		if f.Var {
			kind = "varbit"
		}
		fmt.Fprintf(&sb, "  field %s : %s<%d>\n", f.Name, kind, f.Width)
	}
	for i := range s.States {
		st := &s.States[i]
		fmt.Fprintf(&sb, "  state %s {\n", st.Name)
		for _, e := range st.Extracts {
			if e.LenField != "" {
				fmt.Fprintf(&sb, "    extract %s len(%s*%d+%d)\n", e.Field, e.LenField, e.LenScale, e.LenBias)
			} else {
				fmt.Fprintf(&sb, "    extract %s\n", e.Field)
			}
		}
		if len(st.Key) > 0 {
			parts := make([]string, len(st.Key))
			for j, p := range st.Key {
				parts[j] = p.String()
			}
			fmt.Fprintf(&sb, "    select (%s) {\n", strings.Join(parts, ", "))
			for _, r := range st.Rules {
				fmt.Fprintf(&sb, "      %#x &&& %#x : %s\n", r.Value, r.Mask, s.targetName(r.Next))
			}
			fmt.Fprintf(&sb, "      default : %s\n    }\n", s.targetName(st.Default))
		} else {
			fmt.Fprintf(&sb, "    transition %s\n", s.targetName(st.Default))
		}
		sb.WriteString("  }\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}

func (s *Spec) targetName(t Target) string {
	if t.Kind == ToState {
		return s.States[t.State].Name
	}
	return t.String()
}

// SortedFieldNames returns all field names in lexical order. Deterministic
// iteration keeps the synthesizer and its tests reproducible.
func (s *Spec) SortedFieldNames() []string {
	names := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		names[i] = f.Name
	}
	sort.Strings(names)
	return names
}
