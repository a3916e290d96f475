package core

// The core side of the cross-compile memo cache (internal/memo): the
// interface the portfolio consults, and the canonical per-skeleton keys
// the facts are filed under. core deliberately defines the interface
// rather than importing internal/memo, so the dependency points outward
// (memo imports core, never the reverse).

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
)

// Memo is the subset of the memo cache the synthesis core talks to: its
// tier 2. SkeletonUnsat/RecordSkeletonUnsat store the fact "this
// skeleton's encoding is solver-UNSAT at its ladder cap": with values
// drawn from any spec-consistent example set, no entry table within the
// cap exists in the skeleton's search space, so the whole ladder's
// ErrNoSolution verdict may be recalled without running it. The fact is
// recorded only from genuine solver UNSATs (a ladder whose cap rung
// climbed via UNSAT — never via a device-validation failure of a found
// model, which is seed-dependent), and is keyed by the canonical spec +
// skeleton structure + cap + profile + options minus the seed (see
// computeMemoKeys).
type Memo interface {
	SkeletonUnsat(key string) bool
	RecordSkeletonUnsat(key string)
}

// computeMemoKeys canonicalizes the effective synthesis spec and derives
// each skeleton's tier-2 memo key. An empty key marks a skeleton that
// could not be keyed (it referenced an unknown field); such skeletons are
// neither consulted nor recorded. Returns nil when the spec cannot be
// canonicalized — the compile then simply runs unmemoized.
func computeMemoKeys(effSynth *pir.Spec, synthSks []skeleton, profile hw.Profile, opts Options) []string {
	canon, wit, err := pir.Canonicalize(effSynth)
	if err != nil {
		return nil
	}
	fieldCanon := wit.FieldToCanon()
	stateCanon := make([]int, len(effSynth.States)) // orig index -> canon index
	for c, o := range wit.States {
		stateCanon[o] = c
	}
	stateNameCanon := make(map[string]string, len(effSynth.States))
	for o := range effSynth.States {
		stateNameCanon[effSynth.States[o].Name] = fmt.Sprintf("s%d", stateCanon[o])
	}

	// The seed steers CEGIS example generation but never the existence of
	// a solution, so tier-2 facts are shared across seeds.
	noSeed := opts
	noSeed.Seed = 0
	optsFP := noSeed.Fingerprint()
	canonText := canon.String()

	keys := make([]string, len(synthSks))
	for i := range synthSks {
		ser, ok := serializeSkeleton(&synthSks[i], fieldCanon, stateCanon, stateNameCanon)
		if !ok {
			continue
		}
		low, capN := ladderBounds(effSynth, &synthSks[i], profile, opts)
		base := fmt.Sprintf("%s\x00%s\x00%d:%d\x00%s\x00%s",
			canonText, ser, low, capN, profile.Fingerprint(), optsFP)
		keys[i] = fmt.Sprintf("%x", sha256.Sum256([]byte("t2\x00"+base)))
	}
	return keys
}

// serializeSkeleton renders a skeleton's full structure in canonical
// names: spec states as canonical indices, fields as canonical names,
// chain groups as canonical state names. Display names (skelState.Name
// embeds original state names) are skipped. Two skeletons serialize
// equally exactly when they pose the same synthesis subproblem up to the
// spec isomorphism, which is what makes tier-2 reuse across alias specs
// sound.
func serializeSkeleton(sk *skeleton, fieldCanon map[string]string, stateCanon []int, stateNameCanon map[string]string) (string, bool) {
	var sb strings.Builder
	field := func(name string) (string, bool) {
		if name == "" {
			return "-", true
		}
		c, ok := fieldCanon[name]
		return c, ok
	}
	fmt.Fprintf(&sb, "loopy=%t", sk.Loopy)
	for si := range sk.States {
		ss := &sk.States[si]
		sb.WriteString(";st{")
		for _, sp := range ss.SpecStates {
			if sp < 0 || sp >= len(stateCanon) {
				return "", false
			}
			fmt.Fprintf(&sb, "p%d,", stateCanon[sp])
		}
		for _, e := range ss.Extracts {
			f, ok1 := field(e.Field)
			lf, ok2 := field(e.LenField)
			if !ok1 || !ok2 {
				return "", false
			}
			fmt.Fprintf(&sb, "x%s,%s,%d,%d;", f, lf, e.LenScale, e.LenBias)
		}
		for _, k := range ss.Key {
			if k.Lookahead {
				fmt.Fprintf(&sb, "l%d,%d,%d;", k.Skip, k.Width, k.RelOff)
				continue
			}
			f, ok := field(k.Field)
			if !ok {
				return "", false
			}
			fmt.Fprintf(&sb, "k%s,%d,%d,%d;", f, k.Lo, k.Hi, k.RelOff)
		}
		fmt.Fprintf(&sb, "kw=%d,max=%d,sw=%d,vb=%t,lvl=%d,opt=%t", ss.KeyWidth, ss.MaxEntries, ss.StaticWidth, ss.HasVarbit, ss.ChainLevel, ss.OptionalExtract)
		if ss.ChainGroup != "" {
			cg, ok := stateNameCanon[ss.ChainGroup]
			if !ok {
				// A chain group that is not a plain spec-state name still
				// keys deterministically on its literal text; it just will
				// not alias across renamed specs.
				cg = "raw:" + ss.ChainGroup
			}
			fmt.Fprintf(&sb, ",cg=%s", cg)
		}
		for _, c := range ss.Candidates {
			fmt.Fprintf(&sb, ";c%#x,%#x,%d", c.Value, c.Mask, c.Width)
		}
		sb.WriteString("}")
	}
	return sb.String(), true
}
