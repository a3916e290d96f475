// Package hw describes programmable-parser hardware configurations (§3.1,
// §5.1.2).
//
// ParserHawk's retargetability comes from splitting the implementation
// encoding into generic FSM-simulation rules and a per-device configuration
// profile. A Profile captures everything device-specific the synthesizer
// and the validators need: the parser architecture class and the resource
// limits (key width, TCAM entries, lookahead window, stages, extraction
// length).
package hw

import (
	"fmt"

	"parserhawk/internal/tcam"
)

// Arch is the parser architecture class of Figure 2.
type Arch int

// Architecture classes.
const (
	// SingleTable devices (Tofino) hold the whole parser in one TCAM table
	// whose entries may be revisited, permitting parse loops (Figure 2a).
	SingleTable Arch = iota
	// Pipelined devices (Intel IPU) chain one TCAM table per stage; a packet
	// flows strictly forward, so loops are impossible but throughput is one
	// packet per cycle (Figure 2b).
	Pipelined
	// Interleaved devices (Broadcom Trident) alternate pipelined sub-parsers
	// with match-action stages (Figure 2c). Modeled as Pipelined with
	// checkpoints; provided for the retargetability discussion.
	Interleaved
	// Streaming devices (FPGA streaming parsers) see the packet as a fixed
	// words-per-cycle window sliding strictly forward: one TCAM table per
	// cycle, every transition advances exactly one stage, and the scarce
	// resource is pipeline depth (latency in cycles), not entries.
	Streaming
)

func (a Arch) String() string {
	switch a {
	case SingleTable:
		return "single-tcam-table"
	case Pipelined:
		return "pipelined-tcam-tables"
	case Streaming:
		return "streaming-pipeline"
	default:
		return "interleaved"
	}
}

// Objective is the device-unit cost model the synthesizer minimizes. The
// iterative-deepening ladder and the portfolio's dominance comparison are
// both generic over it: "budget" means Objective units, not TCAM entries. The zero value (ObjectiveAuto) derives the historical
// per-architecture default, so profile literals that predate the field keep
// their exact behavior.
type Objective int

// Objectives.
const (
	// ObjectiveAuto selects the architecture's default objective:
	// MinimizeEntries for SingleTable, MinimizeStages for Pipelined and
	// Interleaved, MinimizeDepth for Streaming.
	ObjectiveAuto Objective = iota
	// MinimizeEntries minimizes total TCAM entries, tie-breaking on states.
	MinimizeEntries
	// MinimizeStages minimizes occupied pipeline stages, tie-breaking on
	// total entries.
	MinimizeStages
	// MinimizeDepth minimizes pipeline depth (latency in cycles),
	// tie-breaking on entries and then states.
	MinimizeDepth
)

func (o Objective) String() string {
	switch o {
	case MinimizeEntries:
		return "min-entries"
	case MinimizeStages:
		return "min-stages"
	case MinimizeDepth:
		return "min-depth"
	default:
		return "auto"
	}
}

// For resolves ObjectiveAuto to the architecture's default objective.
// Explicit objectives pass through unchanged.
func (o Objective) For(a Arch) Objective {
	if o != ObjectiveAuto {
		return o
	}
	switch a {
	case SingleTable:
		return MinimizeEntries
	case Streaming:
		return MinimizeDepth
	default:
		return MinimizeStages
	}
}

// Less reports whether resources a are strictly cheaper than b under the
// objective. It is a total preorder; the synthesizer keeps the first result
// in deterministic skeleton order among incomparable candidates.
func (o Objective) Less(a, b tcam.Resources) bool {
	switch o {
	case MinimizeStages:
		if a.Stages != b.Stages {
			return a.Stages < b.Stages
		}
		return a.Entries < b.Entries
	case MinimizeDepth:
		if a.Stages != b.Stages {
			return a.Stages < b.Stages
		}
		if a.Entries != b.Entries {
			return a.Entries < b.Entries
		}
		return a.States < b.States
	default: // MinimizeEntries (and unresolved Auto, treated as entries)
		if a.Entries != b.Entries {
			return a.Entries < b.Entries
		}
		return a.States < b.States
	}
}

// Cost is the scalar objective value of a deployment, in device units:
// entries for MinimizeEntries, occupied stages otherwise. The portfolio's
// provably-cheapest cancellation compares candidate costs against encoded
// lower bounds in these units.
func (o Objective) Cost(r tcam.Resources) int {
	if o == MinimizeEntries {
		return r.Entries
	}
	return r.Stages
}

// UsesEntryLowerBound reports whether per-skeleton entry lower bounds are
// sound bounds on the objective. Only the entry-minimizing objective can
// compare candidate entry counts against them; stage/depth objectives have
// no comparable per-skeleton bound yet.
func (o Objective) UsesEntryLowerBound() bool { return o == MinimizeEntries }

// LadderCap clamps the iterative-deepening search cap to the device. The
// ladder still climbs entry budgets for every objective — entries bound the
// symbolic table size — but only the entry-minimizing objective can cap the
// search at TCAMLimit, because for per-stage-limited devices the total
// entry count may legitimately exceed the per-stage limit.
func (o Objective) LadderCap(p Profile, cap int) int {
	if o == MinimizeEntries && cap > p.TCAMLimit {
		return p.TCAMLimit
	}
	return cap
}

// Profile is one device's hardware configuration (§5.1.2). The zero value
// is not meaningful; use the constructors or fill every field.
type Profile struct {
	Name string
	Arch Arch

	// KeyLimit bounds the state-transition key width per entry, in bits.
	KeyLimit int
	// TCAMLimit bounds TCAM entries: total entries for SingleTable devices,
	// per-stage entries for Pipelined devices.
	TCAMLimit int
	// LookaheadLimit bounds how far past the cursor a key may peek
	// (skip+width), in bits. 0 disables lookahead entirely.
	LookaheadLimit int
	// StageLimit bounds the number of pipeline stages (Pipelined only).
	StageLimit int
	// ExtractLimit bounds the bits extracted by a single entry; wider fields
	// are split across entries by the post-synthesis optimizer.
	ExtractLimit int
	// WindowBits is the streaming window: the bits visible to one cycle's
	// match and extraction on Streaming devices (words-per-cycle × word
	// width). 0 for non-streaming architectures.
	WindowBits int
	// Objective is the cost model the synthesizer minimizes for this
	// device. The zero value (ObjectiveAuto) derives the architecture's
	// historical default, so existing profile literals are unchanged.
	Objective Objective
}

// AllowLoops reports whether the architecture permits revisiting entries.
func (p Profile) AllowLoops() bool { return p.Arch == SingleTable }

// KeySplitStates returns how many chained TCAM lookups a transition key of
// w bits needs on this device: ⌈w/KeyLimit⌉, minimum one. The static
// analyzer uses it to quantify the cost of over-wide spec keys (PH006).
func (p Profile) KeySplitStates(w int) int {
	if p.KeyLimit <= 0 || w <= p.KeyLimit {
		return 1
	}
	return (w + p.KeyLimit - 1) / p.KeyLimit
}

// FitsLookahead reports whether a key that peeks reach bits past the
// cursor can be matched directly in one lookup. Beyond the window the
// compiler must defer the match past extraction (an extra state).
func (p Profile) FitsLookahead(reach int) bool { return reach <= p.LookaheadLimit }

// Tofino returns the profile used for the Barefoot Tofino experiments:
// a single loop-capable TCAM table with a generous entry budget.
func Tofino() Profile {
	return Profile{
		Name:           "tofino",
		Arch:           SingleTable,
		KeyLimit:       32,
		TCAMLimit:      256,
		LookaheadLimit: 32,
		ExtractLimit:   256,
	}
}

// IPU returns the profile used for the Intel IPU experiments: pipelined
// TCAM tables, forward-only transitions, bounded stages.
func IPU() Profile {
	return Profile{
		Name:           "ipu",
		Arch:           Pipelined,
		KeyLimit:       32,
		TCAMLimit:      16,
		LookaheadLimit: 32,
		StageLimit:     16,
		ExtractLimit:   128,
	}
}

// FPGAStreaming returns the profile for the FPGA streaming-parser backend
// (PAPERS.md, "P4-compatible High-level Synthesis of Low Latency 100 Gb/s
// Streaming Packet Parsers in FPGAs"): a fixed words-per-cycle window, one
// match table per cycle, forward-only with every transition advancing
// exactly one stage, and pipeline depth as the minimized resource.
func FPGAStreaming() Profile {
	return Profile{
		Name:           "fpga",
		Arch:           Streaming,
		KeyLimit:       32,
		TCAMLimit:      16,
		LookaheadLimit: 32,
		StageLimit:     24,
		ExtractLimit:   64,
		WindowBits:     64,
		Objective:      MinimizeDepth,
	}
}

// Parameterized returns a SingleTable profile with explicit limits, used by
// the Table 4 experiments that sweep hardware configurations.
func Parameterized(keyLimit, lookahead, extract int) Profile {
	return Profile{
		Name:           fmt.Sprintf("param(key=%d,la=%d,ex=%d)", keyLimit, lookahead, extract),
		Arch:           SingleTable,
		KeyLimit:       keyLimit,
		TCAMLimit:      1024,
		LookaheadLimit: lookahead,
		ExtractLimit:   extract,
	}
}

// Validate checks a TCAM program against the profile, returning the first
// violated constraint. It is the ground truth the paper's §7.1 correctness
// validation relies on: a program that validates here is accepted by the
// device.
func (p Profile) Validate(prog *tcam.Program) error {
	res := prog.Resources()
	if res.MaxKeyWidth > p.KeyLimit {
		return fmt.Errorf("hw %s: key width %d exceeds limit %d", p.Name, res.MaxKeyWidth, p.KeyLimit)
	}
	switch p.Arch {
	case SingleTable:
		if res.Entries > p.TCAMLimit {
			return fmt.Errorf("hw %s: %d TCAM entries exceed limit %d", p.Name, res.Entries, p.TCAMLimit)
		}
		for i := range prog.States {
			if prog.States[i].Table != 0 {
				return fmt.Errorf("hw %s: single-table device but state uses table %d", p.Name, prog.States[i].Table)
			}
		}
	case Pipelined, Interleaved:
		perStage := map[int]int{}
		for i := range prog.States {
			st := &prog.States[i]
			perStage[st.Table] += len(st.Entries)
			if st.Table < 0 || st.Table >= p.StageLimit {
				return fmt.Errorf("hw %s: stage %d outside 0..%d", p.Name, st.Table, p.StageLimit-1)
			}
			for _, e := range st.Entries {
				// New2 of Figure 11: transitions move strictly forward.
				if e.Next.Kind == tcam.ToState && e.Next.Table <= st.Table {
					return fmt.Errorf("hw %s: transition from stage %d to stage %d is not forward",
						p.Name, st.Table, e.Next.Table)
				}
			}
		}
		for stage, n := range perStage {
			if n > p.TCAMLimit {
				return fmt.Errorf("hw %s: stage %d holds %d entries, limit %d", p.Name, stage, n, p.TCAMLimit)
			}
		}
	case Streaming:
		perStage := map[int]int{}
		for i := range prog.States {
			st := &prog.States[i]
			perStage[st.Table] += len(st.Entries)
			if st.Table < 0 || st.Table >= p.StageLimit {
				return fmt.Errorf("hw %s: stage %d outside 0..%d", p.Name, st.Table, p.StageLimit-1)
			}
			for _, e := range st.Entries {
				// The window slides one word group per cycle: a transition
				// that skips a stage would need the packet to stall, and one
				// that goes backward would need it to rewind. Both are
				// impossible on a streaming pipeline.
				if e.Next.Kind == tcam.ToState && e.Next.Table != st.Table+1 {
					return fmt.Errorf("hw %s: transition from stage %d to stage %d is not aligned to the next cycle",
						p.Name, st.Table, e.Next.Table)
				}
			}
		}
		for stage, n := range perStage {
			if n > p.TCAMLimit {
				return fmt.Errorf("hw %s: stage %d holds %d entries, limit %d", p.Name, stage, n, p.TCAMLimit)
			}
		}
	}
	for i := range prog.States {
		st := &prog.States[i]
		for _, part := range st.Key {
			if part.Lookahead && part.Skip+part.Width > p.LookaheadLimit {
				return fmt.Errorf("hw %s: lookahead reach %d exceeds window %d",
					p.Name, part.Skip+part.Width, p.LookaheadLimit)
			}
		}
		for _, e := range st.Entries {
			bits := 0
			fixedFields := 0
			for _, x := range e.Extracts {
				f, ok := prog.Spec.Field(x.Field)
				if !ok {
					return fmt.Errorf("hw %s: entry extracts unknown field %q", p.Name, x.Field)
				}
				if f.Var {
					// Variable-length extraction is streamed by the device
					// with transparent continuation entries, like a single
					// oversized field; it does not count against the
					// per-entry budget.
					continue
				}
				fixedFields++
				bits += f.Width
			}
			// A single fixed field wider than the per-entry limit is legal:
			// the device completes it with extraction-continuation entries
			// (§5.1.2, "more than one entry may be needed to complete the
			// extraction of the entire field"). Multi-field overflows must
			// be split by the compiler instead.
			if bits > p.ExtractLimit && fixedFields > 1 {
				return fmt.Errorf("hw %s: entry extracts %d bits, limit %d", p.Name, bits, p.ExtractLimit)
			}
			// One streaming cycle sees exactly the window; an entry cannot
			// extract across words that have not arrived yet. A single
			// oversized field keeps the continuation-entry exemption above.
			if p.Arch == Streaming && p.WindowBits > 0 && bits > p.WindowBits && fixedFields > 1 {
				return fmt.Errorf("hw %s: entry extracts %d bits, streaming window is %d", p.Name, bits, p.WindowBits)
			}
		}
	}
	return nil
}

// Fingerprint returns a stable identity string covering every field that
// changes compilation outcomes. Cache keys must use it instead of Name:
// two profiles can share a name (a scaled variant, a renamed device) while
// demanding different programs, and a name-keyed cache would alias them.
func (p Profile) Fingerprint() string {
	return fmt.Sprintf("name=%s;arch=%s;obj=%s;key=%d;tcam=%d;la=%d;stage=%d;ex=%d;win=%d",
		p.Name, p.Arch, p.Objective.For(p.Arch), p.KeyLimit, p.TCAMLimit,
		p.LookaheadLimit, p.StageLimit, p.ExtractLimit, p.WindowBits)
}
