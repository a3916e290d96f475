package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"parserhawk/internal/core"
	"parserhawk/internal/p4"
	"parserhawk/internal/tables"
)

// TestLowerBoundAboveCapFailsWithoutSolve compiles a select whose 30
// targets each extract their own header on tofino-scaled: every skeleton
// needs at least 31 entries (30 targets plus accept) against a cap of 24.
// The ladder must answer ErrNoSolution from that bound alone, before any
// SAT query: refuting the 24-entry rung instead is a pigeonhole proof of
// some 200,000 conflicts that runs past the timeout.
func TestLowerBoundAboveCapFailsWithoutSolve(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("header h { bit<8> t; }\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&sb, "header p%d { bit<4> x; }\n", i)
	}
	sb.WriteString("parser Big {\n  state start {\n    extract(h);\n    transition select(h.t) {\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&sb, "      0x%02x : s%d;\n", i, i)
	}
	sb.WriteString("      default : accept;\n    }\n  }\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&sb, "  state s%d { extract(p%d); transition accept; }\n", i, i)
	}
	sb.WriteString("}\n")
	spec, err := p4.ParseSpec(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Timeout = 5 * time.Second
	queries := 0
	opts.QuerySink = func(core.QueryDump) { queries++ }
	_, err = core.Compile(spec, tables.TofinoScaled(), opts)
	if !errors.Is(err, core.ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
	if queries != 0 {
		t.Fatalf("%d SAT queries dumped, want none", queries)
	}
}
