package p4

import (
	"strings"
	"testing"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
)

const ethIPv4 = `
// Quickstart parser: Ethernet then IPv4.
header eth {
    bit<8> dst;     // scaled-down addresses
    bit<8> src;
    bit<16> etherType;
}
header ipv4 {
    bit<4> version;
    bit<4> ihl;
    bit<8> ttl;
}
parser EthIp {
    state start {
        extract(eth);
        transition select(eth.etherType) {
            0x0800  : parse_ipv4;
            default : accept;
        }
    }
    state parse_ipv4 {
        extract(ipv4);
        transition accept;
    }
}
`

func TestLowerEthIPv4(t *testing.T) {
	spec, err := ParseSpec(ethIPv4)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "EthIp" {
		t.Errorf("name=%q", spec.Name)
	}
	if len(spec.Fields) != 6 {
		t.Errorf("fields=%d", len(spec.Fields))
	}
	if spec.States[0].Name != "start" {
		t.Errorf("start state=%q", spec.States[0].Name)
	}
	// Semantics: etherType 0x0800 parses IPv4.
	in := bitstream.FromUint(0xAA, 8).
		Concat(bitstream.FromUint(0xBB, 8)).
		Concat(bitstream.FromUint(0x0800, 16)).
		Concat(bitstream.FromUint(0x45, 8)).
		Concat(bitstream.FromUint(64, 8))
	r := spec.Run(in, 0)
	if !r.Accepted {
		t.Fatal("must accept")
	}
	if got := r.Dict["ipv4.ttl"].Uint(0, 8); got != 64 {
		t.Errorf("ttl=%d", got)
	}
	if got := r.Dict["eth.etherType"].Uint(0, 16); got != 0x0800 {
		t.Errorf("etherType=%#x", got)
	}
	// Non-IP accepts without ipv4 fields.
	in2 := bitstream.FromUint(0, 32)
	r2 := spec.Run(in2, 0)
	if !r2.Accepted {
		t.Fatal("must accept default")
	}
	if _, ok := r2.Dict["ipv4.ttl"]; ok {
		t.Error("ipv4 must not be extracted on default path")
	}
}

func TestMaskedCaseAndComments(t *testing.T) {
	spec, err := ParseSpec(`
header h { bit<4> k; }
parser P {
    state start {
        extract(h);
        /* block
           comment */
        transition select(h.k) {
            0b1010 &&& 0b1110 : hit;  // matches 1010 and 1011
            default : accept;
        }
    }
    state hit { transition reject; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	for v, wantReject := range map[uint64]bool{0b1010: true, 0b1011: true, 0b1000: false, 0b0010: false} {
		r := spec.Run(bitstream.FromUint(v, 4), 0)
		if r.Rejected != wantReject {
			t.Errorf("k=%04b rejected=%v want %v", v, r.Rejected, wantReject)
		}
	}
}

func TestSliceSyntaxP4BitOrder(t *testing.T) {
	// P4 slice [3:2] of a 4-bit field selects the two MSBs.
	spec, err := ParseSpec(`
header h { bit<4> k; }
parser P {
    state start {
        extract(h);
        transition select(h.k[3:2]) {
            0b11 : hit;
            default : accept;
        }
    }
    state hit { transition reject; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	kp := spec.States[0].Key[0]
	if kp.Lo != 0 || kp.Hi != 2 {
		t.Errorf("slice lowered to [%d,%d), want [0,2)", kp.Lo, kp.Hi)
	}
	if r := spec.Run(bitstream.MustFromString("1101"), 0); !r.Rejected {
		t.Error("1101 has MSBs 11, must reject")
	}
	if r := spec.Run(bitstream.MustFromString("0111"), 0); !r.Accepted {
		t.Error("0111 has MSBs 01, must accept")
	}
}

func TestLookaheadSyntax(t *testing.T) {
	spec, err := ParseSpec(`
header h { bit<4> f; }
header g { bit<2> x; }
parser P {
    state start {
        extract(h);
        transition select(lookahead<bit<2>>()) {
            0b11 : more;
            default : accept;
        }
    }
    state more { extract(g); transition accept; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.States[0].Key[0].Lookahead {
		t.Fatal("expected lookahead key part")
	}
	r := spec.Run(bitstream.MustFromString("0000_11"), 0)
	if _, ok := r.Dict["g.x"]; !ok {
		t.Error("lookahead must route to state more")
	}
}

func TestTupleCase(t *testing.T) {
	spec, err := ParseSpec(`
header h { bit<2> a; bit<2> b; }
parser P {
    state start {
        extract(h);
        transition select(h.a, h.b) {
            (0b10, 0b01)             : hit;
            (0b11 &&& 0b10, 0b00)    : hit;
            default                  : accept;
        }
    }
    state hit { transition reject; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]bool{
		"1001": true,  // (10,01)
		"1000": true,  // (1x, 00) via masked arm
		"1100": true,  // (1x, 00)
		"1011": false, // b=11 matches nothing
		"0001": false,
	}
	for in, wantReject := range cases {
		r := spec.Run(bitstream.MustFromString(in), 0)
		if r.Rejected != wantReject {
			t.Errorf("%s: rejected=%v want %v", in, r.Rejected, wantReject)
		}
	}
}

func TestVarbitLowering(t *testing.T) {
	spec, err := ParseSpec(`
header ip { bit<4> ihl; varbit<40> options; }
parser P {
    state start {
        extract(ip, ip.ihl * 8);
        transition accept;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := spec.Field("ip.options")
	if !f.Var || f.Width != 40 {
		t.Errorf("varbit decl lowered wrong: %+v", f)
	}
	r := spec.Run(bitstream.MustFromString("0010_1111_0000_1111_0000"), 0)
	if got := len(r.Dict["ip.options"]); got != 16 {
		t.Errorf("options width=%d want 16", got)
	}
}

func TestWidthPrefixedLiterals(t *testing.T) {
	spec, err := ParseSpec(`
header h { bit<16> t; }
parser P {
    state start {
        extract(h);
        transition select(h.t) {
            16w0x0800 : hit;
            default   : accept;
        }
    }
    state hit { transition reject; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if r := spec.Run(bitstream.FromUint(0x0800, 16), 0); !r.Rejected {
		t.Error("width-prefixed literal mismatch")
	}
}

func TestMissingDefaultRejects(t *testing.T) {
	spec, err := ParseSpec(`
header h { bit<2> k; }
parser P {
    state start {
        extract(h);
        transition select(h.k) {
            0 : accept;
        }
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if r := spec.Run(bitstream.MustFromString("01"), 0); !r.Rejected {
		t.Error("missing default must reject")
	}
}

func TestStartStateReordered(t *testing.T) {
	spec, err := ParseSpec(`
header h { bit<1> k; }
parser P {
    state other { transition accept; }
    state start { extract(h); transition other; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.States[0].Name != "start" {
		t.Errorf("state0=%q", spec.States[0].Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`header h { bit<4> f; } parser P { state start { transition nowhere; } }`, "unknown state"},
		{`parser P { state start { extract(ghost); transition accept; } }`, "unknown header"},
		{`header h { bit<4> f; } garbage`, "expected 'header' or 'parser'"},
		{`header h { bit<4> f; } parser P { state start { transition select(h.f) { (1,2) : accept; } } }`, "tuple has 2 values"},
		{`header h { bit<4> f; } parser P { state start { transition select(h.f, h.f) { 3 : accept; } } }`, "use a tuple"},
		{`header h { bit<4> f; } parser P { state start { transition select(h.f) { 0x1F : accept; } } }`, "exceeds 4-bit"},
		{`header h { bit<4> f; } parser P { state start { transition select(h.f[5:0]) { 0 : accept; } } }`, "out of range"},
		{`header h { bit<4> f; } parser P { state start { transition select(h.f[0:2]) { 0 : accept; } } }`, "hi < lo"},
		{`header h { varbit<8> v; } parser P { state start { extract(h); transition accept; } }`, "length expression"},
		{`header h { bit<4> f; } parser P { state start { transition accept; transition accept; } }`, "duplicate transition"},
		{`header h { bit<4> f; } parser P { state start { transition accept; extract(h); } }`, "extract after transition"},
		{`header h { bit<4> f; } header h { bit<2> g; } parser P { state start { transition accept; } }`, "duplicate header"},
		{`@`, "unexpected character"},
		{`header h { bit<4> f; } parser P { } parser Q { }`, "exactly one parser"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("source %q: err=%v, want substring %q", c.src, err, c.want)
		}
	}
}

func TestFigure7Spec2RoundTrip(t *testing.T) {
	// Spec2.p4 from Figure 7 written in our subset.
	spec, err := ParseSpec(`
header f0 { bit<4> v; }
header f1 { bit<4> v; }
parser Spec2 {
    state start {
        extract(f0);
        transition select(f0.v[3:3]) {
            0       : state1;
            default : accept;
        }
    }
    state state1 {
        extract(f1);
        transition accept;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	r := spec.Run(bitstream.MustFromString("0111_1010"), 0)
	if got := r.Dict["f1.v"].Uint(0, 4); got != 0b1010 {
		t.Errorf("f1=%04b dict=%v", got, r.Dict)
	}
	r = spec.Run(bitstream.MustFromString("1111_1010"), 0)
	if _, ok := r.Dict["f1.v"]; ok {
		t.Error("f1 must be skipped when f0 MSB is 1")
	}
}

func TestLowerReferenceIntoPIRTypes(t *testing.T) {
	spec := MustParseSpec(ethIPv4)
	// The lowered states must be a valid pir.Spec usable by analyses.
	if spec.HasLoop() {
		t.Error("eth/ipv4 has no loop")
	}
	if len(spec.RelevantBits()) != 16 {
		t.Errorf("relevant bits=%d want 16 (etherType)", len(spec.RelevantBits()))
	}
	var names []string
	for _, f := range spec.Fields {
		names = append(names, f.Name)
	}
	if _, ok := spec.Field("eth.etherType"); !ok {
		t.Errorf("qualified field names missing: %v", names)
	}
	_ = pir.AcceptTarget
}
