package pir

import (
	"strings"
	"testing"

	"parserhawk/internal/bitstream"
)

// spec1 is Spec1.p4 from Figure 7: extract field0 then field1
// unconditionally.
func spec1(t *testing.T) *Spec {
	t.Helper()
	s, err := New("spec1",
		[]Field{{Name: "field0", Width: 4}, {Name: "field1", Width: 4}},
		[]State{
			{Name: "State0", Extracts: []Extract{{Field: "field0"}}, Default: To(1)},
			{Name: "State1", Extracts: []Extract{{Field: "field1"}}, Default: AcceptTarget},
		})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// spec2 is Spec2.p4 from Figure 7: extract field1 only when field0[0]==0.
func spec2(t *testing.T) *Spec {
	t.Helper()
	s, err := New("spec2",
		[]Field{{Name: "field0", Width: 4}, {Name: "field1", Width: 4}},
		[]State{
			{
				Name:     "State0",
				Extracts: []Extract{{Field: "field0"}},
				Key:      []KeyPart{FieldSlice("field0", 0, 1)},
				Rules:    []Rule{ExactRule(0, 1, To(1))},
				Default:  AcceptTarget,
			},
			{Name: "State1", Extracts: []Extract{{Field: "field1"}}, Default: AcceptTarget},
		})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpec1Run(t *testing.T) {
	s := spec1(t)
	in := bitstream.MustFromString("1010_0110")
	r := s.Run(in, 0)
	if !r.Accepted {
		t.Fatal("spec1 must accept")
	}
	if got := r.Dict["field0"].Uint(0, 4); got != 0b1010 {
		t.Errorf("field0=%b", got)
	}
	if got := r.Dict["field1"].Uint(0, 4); got != 0b0110 {
		t.Errorf("field1=%b", got)
	}
	if r.Consumed != 8 {
		t.Errorf("consumed=%d", r.Consumed)
	}
}

func TestSpec2ConditionalExtraction(t *testing.T) {
	s := spec2(t)
	// First bit 0: field1 extracted.
	r := s.Run(bitstream.MustFromString("0010_1111"), 0)
	if _, ok := r.Dict["field1"]; !ok {
		t.Error("field1 should be extracted when field0[0]==0")
	}
	// First bit 1: field1 absent.
	r = s.Run(bitstream.MustFromString("1010_1111"), 0)
	if _, ok := r.Dict["field1"]; ok {
		t.Error("field1 must not be extracted when field0[0]==1")
	}
	if !r.Accepted {
		t.Error("must still accept")
	}
}

func TestFigure3Transitions(t *testing.T) {
	// The Figure 3 motivating program: 4-bit key; {15,11,7,3}->N1, 14->N2,
	// 2->N3, default accept.
	s := MustNew("fig3",
		[]Field{{Name: "k", Width: 4}, {Name: "a", Width: 2}, {Name: "b", Width: 2}, {Name: "c", Width: 2}},
		[]State{
			{
				Name:     "Start",
				Extracts: []Extract{{Field: "k"}},
				Key:      []KeyPart{WholeField("k", 4)},
				Rules: []Rule{
					ExactRule(15, 4, To(1)), ExactRule(11, 4, To(1)),
					ExactRule(7, 4, To(1)), ExactRule(3, 4, To(1)),
					ExactRule(14, 4, To(2)), ExactRule(2, 4, To(3)),
				},
				Default: AcceptTarget,
			},
			{Name: "N1", Extracts: []Extract{{Field: "a"}}, Default: AcceptTarget},
			{Name: "N2", Extracts: []Extract{{Field: "b"}}, Default: AcceptTarget},
			{Name: "N3", Extracts: []Extract{{Field: "c"}}, Default: AcceptTarget},
		})
	for v, want := range map[uint64]string{15: "a", 11: "a", 7: "a", 3: "a", 14: "b", 2: "c"} {
		r := s.Run(bitstream.FromUint(v, 4).Concat(bitstream.MustFromString("01")), 0)
		if _, ok := r.Dict[want]; !ok {
			t.Errorf("key %d: expected extraction of %q, dict=%v", v, want, r.Dict)
		}
	}
	// Default path extracts nothing extra.
	r := s.Run(bitstream.FromUint(1, 4), 0)
	if len(r.Dict) != 1 || !r.Accepted {
		t.Errorf("key 1 must accept with only k extracted: %v", r.Dict)
	}
}

func TestMaskedRulePriority(t *testing.T) {
	s := MustNew("masked",
		[]Field{{Name: "k", Width: 4}},
		[]State{{
			Name:     "S",
			Extracts: []Extract{{Field: "k"}},
			Key:      []KeyPart{WholeField("k", 4)},
			Rules: []Rule{
				{Value: 0b1000, Mask: 0b1000, Next: RejectTarget}, // 1*** first
				ExactRule(0b1111, 4, AcceptTarget),                // shadowed
			},
			Default: AcceptTarget,
		}})
	r := s.Run(bitstream.MustFromString("1111"), 0)
	if !r.Rejected {
		t.Error("first-match priority violated: 1111 must hit the masked rule")
	}
}

func TestLookaheadKey(t *testing.T) {
	// State keys on 2 bits ahead of the cursor without extracting them.
	s := MustNew("la",
		[]Field{{Name: "f", Width: 4}, {Name: "g", Width: 2}},
		[]State{
			{
				Name:     "S0",
				Extracts: []Extract{{Field: "f"}},
				Key:      []KeyPart{LookaheadBits(0, 2)},
				Rules:    []Rule{ExactRule(0b11, 2, To(1))},
				Default:  AcceptTarget,
			},
			{Name: "S1", Extracts: []Extract{{Field: "g"}}, Default: AcceptTarget},
		})
	r := s.Run(bitstream.MustFromString("0000_11"), 0)
	if got := r.Dict["g"].Uint(0, 2); got != 0b11 {
		t.Errorf("lookahead transition failed, dict=%v", r.Dict)
	}
	r = s.Run(bitstream.MustFromString("0000_01"), 0)
	if _, ok := r.Dict["g"]; ok {
		t.Error("lookahead mismatch must take default")
	}
}

func TestVarbitExtraction(t *testing.T) {
	// len field gives number of 4-bit units.
	s := MustNew("vb",
		[]Field{{Name: "len", Width: 2}, {Name: "opts", Width: 12, Var: true}},
		[]State{{
			Name: "S",
			Extracts: []Extract{
				{Field: "len"},
				{Field: "opts", LenField: "len", LenScale: 4},
			},
			Default: AcceptTarget,
		}})
	r := s.Run(bitstream.MustFromString("10_1111_0000_1010"), 0)
	if got := len(r.Dict["opts"]); got != 8 {
		t.Fatalf("varbit width=%d want 8", got)
	}
	if r.Consumed != 10 {
		t.Errorf("consumed=%d want 10", r.Consumed)
	}
	// Length clamped to declared max.
	r = s.Run(bitstream.MustFromString("11_1111_0000_1010"), 0)
	if got := len(r.Dict["opts"]); got != 12 {
		t.Errorf("clamped varbit width=%d want 12", got)
	}
}

func mplsLike(t *testing.T) *Spec {
	t.Helper()
	// Loop: extract a label; bottom-of-stack bit decides loop vs exit.
	s, err := New("mpls",
		[]Field{{Name: "label", Width: 4}},
		[]State{{
			Name:     "L",
			Extracts: []Extract{{Field: "label"}},
			Key:      []KeyPart{FieldSlice("label", 3, 4)},
			Rules:    []Rule{ExactRule(0, 1, To(0))},
			Default:  AcceptTarget,
		}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLoopExecutionAndBudget(t *testing.T) {
	s := mplsLike(t)
	// Two non-bottom labels then a bottom label.
	in := bitstream.MustFromString("0000_0010_0101")
	r := s.Run(in, 0)
	if !r.Accepted {
		t.Fatal("must accept at bottom of stack")
	}
	if got := r.Dict["label"].Uint(0, 4); got != 0b0101 {
		t.Errorf("last label=%04b", got)
	}
	if len(r.Path) != 3 {
		t.Errorf("path=%v", r.Path)
	}
	// All-zero input never reaches bottom: iteration budget rejects.
	r = s.Run(make(bitstream.Bits, 400), 4)
	if !r.Rejected {
		t.Error("iteration exhaustion must reject")
	}
}

func TestHasLoop(t *testing.T) {
	if !mplsLike(t).HasLoop() {
		t.Error("mpls-like spec must report a loop")
	}
	if spec1(t).HasLoop() {
		t.Error("spec1 is loop-free")
	}
}

func TestReachable(t *testing.T) {
	s := MustNew("unreach",
		[]Field{{Name: "f", Width: 2}},
		[]State{
			{Name: "S0", Extracts: []Extract{{Field: "f"}}, Default: AcceptTarget},
			{Name: "dead", Default: AcceptTarget},
		})
	r := s.Reachable()
	if !r[0] || r[1] {
		t.Errorf("reachability=%v", r)
	}
}

func TestRelevantBitsAndIrrelevantFields(t *testing.T) {
	s := spec2(t)
	rb := s.RelevantBits()
	if len(rb) != 1 || rb[0] != (BitRef{Field: "field0", Bit: 0}) {
		t.Errorf("relevant bits=%v", rb)
	}
	ir := s.IrrelevantFields()
	if len(ir) != 1 || ir[0] != "field1" {
		t.Errorf("irrelevant=%v", ir)
	}
}

func TestMaxConsumedBits(t *testing.T) {
	if got := spec1(t).MaxConsumedBits(0); got != 8 {
		t.Errorf("spec1 max=%d want 8", got)
	}
	if got := mplsLike(t).MaxConsumedBits(3); got != 12 {
		t.Errorf("mpls max with K=3: %d want 12", got)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name   string
		fields []Field
		states []State
		want   string
	}{
		{"no states", []Field{{Name: "f", Width: 1}}, nil, "no states"},
		{"dup field", []Field{{Name: "f", Width: 1}, {Name: "f", Width: 2}},
			[]State{{Name: "S", Default: AcceptTarget}}, "duplicate field"},
		{"bad width", []Field{{Name: "f", Width: 0}},
			[]State{{Name: "S", Default: AcceptTarget}}, "non-positive width"},
		{"unknown extract", []Field{{Name: "f", Width: 1}},
			[]State{{Name: "S", Extracts: []Extract{{Field: "g"}}, Default: AcceptTarget}}, "unknown field"},
		{"varbit without len", []Field{{Name: "f", Width: 4, Var: true}},
			[]State{{Name: "S", Extracts: []Extract{{Field: "f"}}, Default: AcceptTarget}}, "without a length"},
		{"key out of range", []Field{{Name: "f", Width: 2}},
			[]State{{Name: "S", Extracts: []Extract{{Field: "f"}},
				Key: []KeyPart{FieldSlice("f", 0, 3)}, Rules: []Rule{ExactRule(0, 3, AcceptTarget)},
				Default: AcceptTarget}}, "out of range"},
		{"bad target", []Field{{Name: "f", Width: 1}},
			[]State{{Name: "S", Default: To(7)}}, "out of range"},
		{"dup state", []Field{{Name: "f", Width: 1}},
			[]State{{Name: "S", Default: AcceptTarget}, {Name: "S", Default: AcceptTarget}}, "duplicate state"},
	}
	for _, c := range cases {
		_, err := New(c.name, c.fields, c.states)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err=%v want substring %q", c.name, err, c.want)
		}
	}
}

// Validation aggregates: a spec with several independent defects reports
// all of them in one error, not just the first.
func TestValidationAggregatesAllErrors(t *testing.T) {
	_, err := New("multi",
		[]Field{{Name: "f", Width: 0}, {Name: "f", Width: 2}},
		[]State{
			{Name: "S", Extracts: []Extract{{Field: "ghost"}}, Default: To(9)},
			{Name: "S", Default: AcceptTarget},
		})
	if err == nil {
		t.Fatal("want error")
	}
	for _, want := range []string{
		"duplicate field", "non-positive width", "unknown field",
		"out of range", "duplicate state",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error missing %q:\n%v", want, err)
		}
	}

	// The exported Validate reports nil on a well-formed spec.
	good := MustNew("ok", []Field{{Name: "f", Width: 1}},
		[]State{{Name: "S", Default: AcceptTarget}})
	if verr := good.Validate(); verr != nil {
		t.Errorf("well-formed spec: %v", verr)
	}
}

func TestStringRendering(t *testing.T) {
	out := spec2(t).String()
	for _, want := range []string{"parser spec2", "state State0", "select", "default : accept", "field0[0:1]"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestSearchSpaceBitsMonotone(t *testing.T) {
	s := spec2(t)
	if a, b := s.SearchSpaceBits(3, 1), s.SearchSpaceBits(6, 1); b <= a {
		t.Errorf("search space must grow with entries: %d vs %d", a, b)
	}
	if a, b := s.SearchSpaceBits(3, 1), s.SearchSpaceBits(3, 4); b <= a {
		t.Errorf("search space must grow with stages: %d vs %d", a, b)
	}
}

func TestResultSame(t *testing.T) {
	a := Result{Accepted: true, Dict: bitstream.Dict{"f": bitstream.MustFromString("1")}}
	b := Result{Accepted: true, Dict: bitstream.Dict{"f": bitstream.MustFromString("1")}}
	if !a.Same(b) {
		t.Error("identical results must compare Same")
	}
	b.Accepted = false
	b.Rejected = true
	if a.Same(b) {
		t.Error("acceptance flag must matter")
	}
}
