package benchdata

import "parserhawk/internal/pir"

// Seeded-defect fixtures for the differential fuzzer (internal/fuzz).
// These are deliberately *clean* parsers: the defect is injected by the
// fuzz harness's corruption hooks (a program edit for the spec-vs-program
// oracle, a forged lint verdict for the lint-vs-observed oracle), and the
// regression tests in internal/fuzz prove hawkfuzz both detects the
// divergence and shrinks it to a spec that still exhibits it. They are not
// part of All(): they exist to pin the fuzzer's detection power, not to
// benchmark the synthesizer.
const (
	// srcFuzzSemantics feeds the spec-vs-program oracle: a two-level
	// dispatch with enough rules that corrupting any one program entry's
	// value or mask flips the outcome on a dense fraction of packets.
	srcFuzzSemantics = `
header eth  { bit<4> etherType; }
header ipv4 { bit<3> proto; }
header ipv6 { bit<3> nextHdr; }
header tcp  { bit<2> flags; }
parser FuzzSemantics {
    state start {
        extract(eth);
        transition select(eth.etherType) {
            4       : parse_ipv4;
            6       : parse_ipv6;
            default : accept;
        }
    }
    state parse_ipv4 {
        extract(ipv4);
        transition select(ipv4.proto) {
            6       : parse_tcp;
            default : accept;
        }
    }
    state parse_ipv6 {
        extract(ipv6);
        transition select(ipv6.nextHdr) {
            6       : parse_tcp;
            default : reject;
        }
    }
    state parse_tcp { extract(tcp); transition accept; }
}
`

	// srcFuzzSplitKeyMask is a real hawkfuzz find, shrunk: a 16-bit key
	// exceeds tofino-scaled's KeyLimit of 12, so the synthesizer splits
	// the key across two TCAM states — and an early verifier accepted a
	// program that dropped the second fragment's mask conjunct of the
	// ternary rule, extracting leg.kind on packets the spec sends to the
	// default. The don't-care-plane directed suite in core/verify.go now
	// refutes such candidates; this fixture pins that.
	srcFuzzSplitKeyMask = `
header h   { bit<16> k; }
header leg { bit<8> kind; }
parser FuzzSplitKeyMask {
    state start {
        extract(h);
        transition select(h.k) {
            0x0800              : accept;
            0x0800 &&& 0xBFFF   : parse_leg;
            default             : accept;
        }
    }
    state parse_leg { extract(leg); transition accept; }
}
`

	// srcFuzzLint feeds the lint-vs-observed oracle: rule 0 of the start
	// state fires on a quarter of all packets, so a forged PH002
	// shadowed-rule certificate for it is refuted within a handful of
	// random inputs.
	srcFuzzLint = `
header tag { bit<2> kind; }
header a   { bit<3> va; }
header b   { bit<3> vb; }
parser FuzzLint {
    state start {
        extract(tag);
        transition select(tag.kind) {
            1       : parse_a;
            2       : parse_b;
            default : accept;
        }
    }
    state parse_a { extract(a); transition accept; }
    state parse_b { extract(b); transition accept; }
}
`
)

// Seed sources of the coverage-guided native fuzz targets (internal/fuzz,
// internal/core): one plain select, one loop with a two-part key, and one
// lookahead select into a varbit extraction.
const (
	FuzzSeedSrcA = `
header eth { bit<4> t; }
header v4  { bit<3> p; }
parser SeedA {
    state start {
        extract(eth);
        transition select(eth.t) {
            4       : parse_v4;
            default : accept;
        }
    }
    state parse_v4 { extract(v4); transition accept; }
}
`
	FuzzSeedSrcB = `
header tag { bit<2> kind; bit<2> more; }
header opt { bit<3> v; }
parser SeedB {
    state start {
        extract(tag);
        transition select(tag.kind, tag.more) {
            (1, 1)  : parse_opt;
            (2, 0)  : reject;
            default : accept;
        }
    }
    state parse_opt { extract(opt); transition start; }
}
`
	FuzzSeedSrcC = `
header h { bit<2> n; }
header b { bit<4> body; }
parser SeedC {
    state start {
        extract(h);
        transition select(lookahead<bit<1>>()) {
            1       : parse_b;
            default : accept;
        }
    }
    state parse_b { extract(b, h.n * 2); transition accept; }
}
`
)

// FuzzSemanticsFixture returns the seeded-defect fixture for the
// spec-vs-program oracle pair.
func FuzzSemanticsFixture() *pir.Spec { return mustSpec(srcFuzzSemantics) }

// FuzzLintFixture returns the seeded-defect fixture for the
// lint-vs-observed oracle pair.
func FuzzLintFixture() *pir.Spec { return mustSpec(srcFuzzLint) }

// FuzzSplitKeyMaskFixture returns the shrunk spec of a real divergence
// hawkfuzz found (see srcFuzzSplitKeyMask): a masked rule over a key wider
// than the device's KeyLimit. Regression-tested in internal/fuzz.
func FuzzSplitKeyMaskFixture() *pir.Spec { return mustSpec(srcFuzzSplitKeyMask) }
