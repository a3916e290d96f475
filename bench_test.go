// Benchmarks regenerating the paper's evaluation (§7): one benchmark per
// table and figure. Run with
//
//	go test -bench=. -benchmem
//
// BenchmarkTable3 compiles every §7 benchmark program for both targets
// (the paper's OPT columns); BenchmarkTable3Orig runs the naive encoding
// on a representative subset (the Orig columns — the full naive suite is
// timeout-censored by design, see cmd/hawkbench -orig). BenchmarkTable4
// and BenchmarkFigure4/5 compare against DPParserGen; BenchmarkTable5 is
// the Opt4/Opt5 ablation.
package parserhawk_test

import (
	"testing"
	"time"

	"parserhawk"
	"parserhawk/internal/benchdata"
	"parserhawk/internal/core"
	"parserhawk/internal/dpgen"
	"parserhawk/internal/tables"
	"parserhawk/internal/vendorc"
)

// BenchmarkTable3 measures ParserHawk's optimized compilation time for
// every benchmark/target cell of Table 3.
func BenchmarkTable3(b *testing.B) {
	suite := benchdata.All()
	if testing.Short() {
		// CI smoke mode: one representative family instead of the full
		// 29-program suite.
		var trimmed []benchdata.Benchmark
		for _, bench := range suite {
			if bench.Family == "Parse Ethernet" {
				trimmed = append(trimmed, bench)
			}
		}
		suite = trimmed
	}
	for _, bench := range suite {
		for _, target := range []parserhawk.Profile{tables.TofinoScaled(), tables.IPUScaled()} {
			bench, target := bench, target
			b.Run(bench.Name()+"/"+target.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opts := core.DefaultOptions()
					opts.Timeout = 2 * time.Minute
					opts.MaxIterations = bench.MaxIterations
					if _, err := core.Compile(bench.Spec, target, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable3Vendor measures the vendor-compiler models on the same
// suite (they are rule-based and fast; the comparison is resource usage,
// reported by cmd/hawkbench).
func BenchmarkTable3Vendor(b *testing.B) {
	tof, ipu := tables.TofinoScaled(), tables.IPUScaled()
	b.Run("tofino", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, bench := range benchdata.All() {
				_, _ = vendorc.CompileTofino(bench.Spec, tof)
			}
		}
	})
	b.Run("ipu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, bench := range benchdata.All() {
				_, _ = vendorc.CompileIPU(bench.Spec, ipu)
			}
		}
	})
}

// BenchmarkTable3Orig runs the naive ("Orig") encoding on the benchmarks
// small enough to finish: the OPT/Orig ratio on these cells is the
// uncensored part of the paper's speedup distribution.
func BenchmarkTable3Orig(b *testing.B) {
	if testing.Short() {
		b.Skip("naive mode is minutes-slow by design; skipped in -short")
	}
	for _, name := range []string{
		"Parse Ethernet",
		"Parse icmp",
		"Multi-key (same pkt field)",
	} {
		bench, ok := benchdata.ByName(name)
		if !ok {
			b.Fatalf("missing %s", name)
		}
		b.Run(name+"/tofino", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.NaiveOptions()
				opts.Timeout = 5 * time.Minute
				opts.MaxIterations = bench.MaxIterations
				if _, err := core.Compile(bench.Spec, tables.TofinoScaled(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4 measures the motivating-example comparison against
// DPParserGen under parameterized hardware.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := tables.Table4(tables.Config{OptTimeout: 2 * time.Minute})
		for _, r := range rows {
			if r.PHErr != "" || r.DPErr != "" {
				b.Fatalf("%s: %s %s", r.Name, r.PHErr, r.DPErr)
			}
		}
	}
}

// BenchmarkTable5 measures the Opt4/Opt5 ablation configurations on one
// representative benchmark per configuration (full sweep:
// cmd/hawkbench -table 5).
func BenchmarkTable5(b *testing.B) {
	bench, _ := benchdata.ByName("Sai V1")
	cases := []struct {
		name       string
		opt5, opt4 bool
	}{
		{"OtherOPT", false, false},
		{"PlusOPT5", true, false},
		{"PlusOPT4and5", true, true},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.Timeout = 2 * time.Minute
				opts.Opt4ConstantSynthesis = c.opt4
				opts.Opt5KeyGrouping = c.opt5
				if _, err := core.Compile(bench.Spec, tables.TofinoScaled(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4 regenerates the §3.2.1 motivating example (devices A
// and B, both compilers).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tables.Figure4(2 * time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates the §3.2.2 written-style example.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tables.Figure5(2 * time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPParserGen isolates the baseline generator's own speed.
func BenchmarkDPParserGen(b *testing.B) {
	bench, _ := benchdata.ByName("Parse icmp")
	profile := parserhawk.Custom(12, 24, 64)
	for i := 0; i < b.N; i++ {
		if _, err := dpgen.Compile(bench.Spec, profile); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifier measures the §7.1 equivalence check on a compiled
// benchmark.
func BenchmarkVerifier(b *testing.B) {
	bench, _ := benchdata.ByName("Sai V1")
	res, err := core.Compile(bench.Spec, tables.TofinoScaled(), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := parserhawk.Verify(bench.Spec, res.Program, 4096); !rep.OK() {
			b.Fatal(rep)
		}
	}
}

// BenchmarkWireScaleCompile compiles the real-width Ethernet/IPv4/TCP
// parser — the quickstart workload.
func BenchmarkWireScaleCompile(b *testing.B) {
	spec, err := parserhawk.ParseSpec(wireSource)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := parserhawk.Compile(spec, parserhawk.Tofino(), parserhawk.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

const wireSource = `
header ethernet { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4 { bit<4> version; bit<4> ihl; bit<8> tos; bit<16> totalLen;
              bit<16> id; bit<16> fragOff; bit<8> ttl; bit<8> protocol;
              bit<16> checksum; bit<32> src; bit<32> dst; }
header tcp { bit<16> srcPort; bit<16> dstPort; }
parser Wire {
    state start {
        extract(ethernet);
        transition select(ethernet.etherType) {
            0x0800  : parse_ipv4;
            default : accept;
        }
    }
    state parse_ipv4 {
        extract(ipv4);
        transition select(ipv4.protocol) {
            6       : parse_tcp;
            default : accept;
        }
    }
    state parse_tcp { extract(tcp); transition accept; }
}
`
