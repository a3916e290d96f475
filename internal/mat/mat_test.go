package mat

import (
	"strings"
	"testing"

	"parserhawk/internal/bitstream"
)

func dictOf(pairs map[string]uint64, widths map[string]int) bitstream.Dict {
	d := bitstream.Dict{}
	for k, v := range pairs {
		d[k] = bitstream.FromUint(v, widths[k])
	}
	return d
}

func TestSetConst(t *testing.T) {
	p := &Pipeline{Tables: []Table{{
		Name: "t",
		Rules: []Rule{{
			Match:   []FieldMatch{{Field: "f", Value: 3, Mask: 0xF, Width: 4}},
			Actions: []Action{{Field: "g", Width: 4, SetConst: U64(9)}},
		}},
	}}}
	out := p.Apply(dictOf(map[string]uint64{"f": 3, "g": 0}, map[string]int{"f": 4, "g": 4}))
	if got := out["g"].Uint(0, 4); got != 9 {
		t.Errorf("g=%d", got)
	}
	// Non-matching value: no-op.
	out = p.Apply(dictOf(map[string]uint64{"f": 5, "g": 0}, map[string]int{"f": 4, "g": 4}))
	if got := out["g"].Uint(0, 4); got != 0 {
		t.Errorf("miss must not act, g=%d", got)
	}
}

func TestCopyAndAdd(t *testing.T) {
	dec := int64(-1)
	p := &Pipeline{Tables: []Table{{
		Rules: []Rule{{
			Actions: []Action{
				{Field: "dst", Width: 8, CopyFrom: "src"},
				{Field: "ttl", Width: 8, AddConst: &dec},
			},
		}},
	}}}
	out := p.Apply(dictOf(map[string]uint64{"src": 0xAB, "dst": 0, "ttl": 64},
		map[string]int{"src": 8, "dst": 8, "ttl": 8}))
	if out["dst"].Uint(0, 8) != 0xAB {
		t.Error("copy failed")
	}
	if out["ttl"].Uint(0, 8) != 63 {
		t.Error("decrement failed")
	}
}

func TestFirstMatchPerTablePriority(t *testing.T) {
	p := &Pipeline{Tables: []Table{{
		Rules: []Rule{
			{
				Match:   []FieldMatch{{Field: "f", Value: 0b10, Mask: 0b10, Width: 2}},
				Actions: []Action{{Field: "g", Width: 4, SetConst: U64(1)}},
			},
			{
				Actions: []Action{{Field: "g", Width: 4, SetConst: U64(2)}},
			},
		},
	}}}
	out := p.Apply(dictOf(map[string]uint64{"f": 0b11, "g": 0}, map[string]int{"f": 2, "g": 4}))
	if out["g"].Uint(0, 4) != 1 {
		t.Error("first match must win")
	}
	out = p.Apply(dictOf(map[string]uint64{"f": 0b01, "g": 0}, map[string]int{"f": 2, "g": 4}))
	if out["g"].Uint(0, 4) != 2 {
		t.Error("fallthrough to wildcard rule")
	}
}

func TestTablesChainEffects(t *testing.T) {
	// Table 1 writes a field table 2 matches on.
	p := &Pipeline{Tables: []Table{
		{Rules: []Rule{{Actions: []Action{{Field: "x", Width: 4, SetConst: U64(7)}}}}},
		{Rules: []Rule{{
			Match:   []FieldMatch{{Field: "x", Value: 7, Mask: 0xF, Width: 4}},
			Actions: []Action{{Field: "y", Width: 4, SetConst: U64(1)}},
		}}},
	}}
	out := p.Apply(dictOf(map[string]uint64{"x": 0, "y": 0}, map[string]int{"x": 4, "y": 4}))
	if out["y"].Uint(0, 4) != 1 {
		t.Error("later table must see earlier table's writes")
	}
}

func TestMissingFieldNeverMatches(t *testing.T) {
	p := &Pipeline{Tables: []Table{{
		Rules: []Rule{{
			Match:   []FieldMatch{{Field: "ghost", Value: 0, Mask: 0, Width: 4}},
			Actions: []Action{{Field: "g", Width: 4, SetConst: U64(1)}},
		}},
	}}}
	out := p.Apply(dictOf(map[string]uint64{"g": 0}, map[string]int{"g": 4}))
	if out["g"].Uint(0, 4) != 0 {
		t.Error("rule over an absent field must not fire")
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	p := &Pipeline{Tables: []Table{{
		Rules: []Rule{{Actions: []Action{{Field: "f", Width: 4, SetConst: U64(9)}}}},
	}}}
	in := dictOf(map[string]uint64{"f": 1}, map[string]int{"f": 4})
	_ = p.Apply(in)
	if in["f"].Uint(0, 4) != 1 {
		t.Error("Apply must not mutate its input dictionary")
	}
}

func TestValidate(t *testing.T) {
	bad := &Pipeline{Tables: []Table{{
		Rules: []Rule{{Actions: []Action{{Field: "f", Width: 4}}}}, // no source
	}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-source action must fail validation")
	}
	bad2 := &Pipeline{Tables: []Table{{
		Rules: []Rule{{Actions: []Action{{Field: "f", Width: 0, SetConst: U64(1)}}}},
	}}}
	if err := bad2.Validate(); err == nil {
		t.Error("zero width must fail validation")
	}
	both := &Pipeline{Tables: []Table{{
		Rules: []Rule{{Actions: []Action{{Field: "f", Width: 4, SetConst: U64(1), CopyFrom: "g"}}}},
	}}}
	if err := both.Validate(); err == nil {
		t.Error("two sources must fail validation")
	}
}

func TestString(t *testing.T) {
	p := &Pipeline{Tables: []Table{{
		Name: "norm",
		Rules: []Rule{{
			Match:   []FieldMatch{{Field: "f", Value: 1, Mask: 1, Width: 1}},
			Actions: []Action{{Field: "g", Width: 4, SetConst: U64(2)}},
		}},
	}}}
	s := p.String()
	if !strings.Contains(s, "norm") || !strings.Contains(s, "g=0x2") {
		t.Errorf("render:\n%s", s)
	}
}
