// Package mat models a match-action pipeline — the packet-processing
// half of the interleaved parser architecture of Figure 2(c) (Broadcom
// Trident style). Devices of that class can jump out of the parser into
// the pipeline, let match-action tables rewrite header fields, and return
// to parsing, so later parse decisions can depend on rewritten values.
//
// The model is deliberately small: a pipeline is a sequence of tables;
// each table matches ternary patterns over already-extracted fields and
// applies field updates. It is exactly enough substrate to express — and
// test — the "more expressive parsing behavior" the paper attributes to
// interleaved devices (§3.1).
package mat

import (
	"fmt"
	"strings"

	"parserhawk/internal/bitstream"
)

// Action is one field update applied when a rule matches.
type Action struct {
	// Field is the destination header field.
	Field string
	// Width is the destination width in bits.
	Width int

	// Exactly one source:
	SetConst *uint64 // write a constant
	CopyFrom string  // copy another field's value (truncated/zero-extended)
	AddConst *int64  // add a signed constant to the current value
}

// Rule is one match-action entry: fires when every keyed field matches
// its (value, mask) pattern; entries are checked in priority order.
type Rule struct {
	Match   []FieldMatch
	Actions []Action
}

// FieldMatch is a ternary condition over one field.
type FieldMatch struct {
	Field       string
	Value, Mask uint64
	Width       int
}

// Table is one match-action stage: the first matching rule fires; if none
// match, the table is a no-op (standard miss-means-skip semantics).
type Table struct {
	Name  string
	Rules []Rule
}

// Pipeline is an ordered sequence of tables.
type Pipeline struct {
	Tables []Table
}

// Apply runs the pipeline over a field dictionary, returning the updated
// dictionary. Fields never extracted read as absent and never match.
func (p *Pipeline) Apply(dict bitstream.Dict) bitstream.Dict {
	out := dict.Clone()
	for ti := range p.Tables {
		t := &p.Tables[ti]
		for ri := range t.Rules {
			r := &t.Rules[ri]
			if !r.matches(out) {
				continue
			}
			for _, a := range r.Actions {
				applyAction(out, a)
			}
			break // first match per table
		}
	}
	return out
}

func (r *Rule) matches(dict bitstream.Dict) bool {
	for _, m := range r.Match {
		v, ok := dict[m.Field]
		if !ok {
			return false
		}
		got := v.Uint(0, m.Width)
		if got&m.Mask != m.Value&m.Mask {
			return false
		}
	}
	return true
}

func applyAction(dict bitstream.Dict, a Action) {
	switch {
	case a.SetConst != nil:
		dict[a.Field] = bitstream.FromUint(*a.SetConst, a.Width)
	case a.CopyFrom != "":
		src := dict[a.CopyFrom]
		dict[a.Field] = bitstream.FromUint(src.Uint(0, len(src)), a.Width)
	case a.AddConst != nil:
		cur := int64(dict[a.Field].Uint(0, a.Width))
		dict[a.Field] = bitstream.FromUint(uint64(cur+*a.AddConst), a.Width)
	}
}

// Validate checks structural sanity: every action has exactly one source
// and a positive width.
func (p *Pipeline) Validate() error {
	for ti := range p.Tables {
		for ri, r := range p.Tables[ti].Rules {
			for ai, a := range r.Actions {
				n := 0
				if a.SetConst != nil {
					n++
				}
				if a.CopyFrom != "" {
					n++
				}
				if a.AddConst != nil {
					n++
				}
				if n != 1 {
					return fmt.Errorf("mat: table %q rule %d action %d has %d sources, want 1",
						p.Tables[ti].Name, ri, ai, n)
				}
				if a.Width <= 0 || a.Width > 64 {
					return fmt.Errorf("mat: table %q rule %d action %d has bad width %d",
						p.Tables[ti].Name, ri, ai, a.Width)
				}
			}
		}
	}
	return nil
}

// String renders the pipeline for diagnostics.
func (p *Pipeline) String() string {
	var sb strings.Builder
	for _, t := range p.Tables {
		fmt.Fprintf(&sb, "table %s:\n", t.Name)
		for _, r := range t.Rules {
			var ms, as []string
			for _, m := range r.Match {
				ms = append(ms, fmt.Sprintf("%s&%#x==%#x", m.Field, m.Mask, m.Value&m.Mask))
			}
			for _, a := range r.Actions {
				switch {
				case a.SetConst != nil:
					as = append(as, fmt.Sprintf("%s=%#x", a.Field, *a.SetConst))
				case a.CopyFrom != "":
					as = append(as, fmt.Sprintf("%s=%s", a.Field, a.CopyFrom))
				case a.AddConst != nil:
					as = append(as, fmt.Sprintf("%s+=%d", a.Field, *a.AddConst))
				}
			}
			fmt.Fprintf(&sb, "  [%s] -> [%s]\n", strings.Join(ms, " && "), strings.Join(as, "; "))
		}
	}
	return sb.String()
}

// U64 is a convenience for building SetConst actions.
func U64(v uint64) *uint64 { return &v }
