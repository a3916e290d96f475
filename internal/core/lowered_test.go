package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/bitstream"
	"parserhawk/internal/hw"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// dict rebuilds the reference Dict from the registers' slot offsets.
func (r *regFile) dict(in bitstream.Bits, names []string) bitstream.Dict {
	d := bitstream.Dict{}
	for _, s := range r.live {
		d[names[s]] = in.Slice(r.pos[s], r.n[s])
	}
	return d
}

// sweep visits at least n inputs from the verifier's own generators: every
// input of an exhaustible space (up to n of them), the directed suite, then
// directed walks and random inputs, every fourth cut to a random length so
// extractions and lookaheads run past the end. The visited slice is only
// valid during visit.
func (v *verifier) sweep(n int, visit func(bitstream.Bits)) {
	count := 0
	if v.maxLen <= v.opts.ExhaustiveVerifyBits {
		for x := uint64(0); x < 1<<uint(v.maxLen) && count < n; x++ {
			for i := range v.in {
				v.in[i] = byte(x >> uint(v.maxLen-1-i) & 1)
			}
			visit(v.in)
			count++
		}
	}
	v.directedSuite(func(in bitstream.Bits) bool {
		visit(in)
		count++
		return true
	})
	for i := 0; count < n; i++ {
		in := v.in
		switch i % 4 {
		case 0, 1:
			in = v.directedInput()
		case 2:
			fillRandom(v.rng, in)
		case 3:
			fillRandom(v.rng, in)
			in = in[:v.rng.Intn(len(in)+1)]
		}
		visit(in)
		count++
	}
}

// crossCheck runs prog against the verifier's spec on at least n sweep
// inputs and fails on any input where the lowered check disagrees with the
// reference interpreters. It returns the inputs checked and how many of
// them the program got wrong.
func crossCheck(t testing.TB, v *verifier, prog *tcam.Program, n int) (inputs, wrong int) {
	t.Helper()
	lp := lowerProgram(prog, v.low)
	k := v.budget
	v.sweep(n, func(in bitstream.Bits) {
		sr, pr := v.spec.Run(in, k), prog.Run(in, k)
		want := !pr.Same(sr)
		if got := v.differs(lp, in); got != want {
			t.Fatalf("lowered check says differs=%v, reference %v, on %s\nspec acc=%v dict=%v\nprog acc=%v dict=%v\nprogram:\n%s",
				got, want, in, sr.Accepted, sr.Dict, pr.Accepted, pr.Dict, prog)
		}
		inputs++
		if want {
			wrong++
		}
	})
	return inputs, wrong
}

// corruptions returns copies of prog with one seeded defect each: a mask
// bit flipped, an entry dropped, a transition pointed at a state that does
// not exist. A defect with no place to go (no keyed entry) is left out.
func corruptions(prog *tcam.Program, rng *rand.Rand) []*tcam.Program {
	clone := func() *tcam.Program {
		c := &tcam.Program{Spec: prog.Spec, States: slices.Clone(prog.States)}
		for i := range c.States {
			c.States[i].Entries = slices.Clone(c.States[i].Entries)
		}
		return c
	}
	var keyed, nonEmpty []int
	for i := range prog.States {
		if len(prog.States[i].Entries) == 0 {
			continue
		}
		nonEmpty = append(nonEmpty, i)
		if prog.States[i].KeyWidth() > 0 {
			keyed = append(keyed, i)
		}
	}
	var out []*tcam.Program
	if len(keyed) > 0 {
		c := clone()
		st := &c.States[keyed[rng.Intn(len(keyed))]]
		st.Entries[rng.Intn(len(st.Entries))].Mask ^= 1 << uint(rng.Intn(st.KeyWidth()))
		out = append(out, c)
	}
	if len(nonEmpty) > 0 {
		c := clone()
		st := &c.States[nonEmpty[rng.Intn(len(nonEmpty))]]
		j := rng.Intn(len(st.Entries))
		st.Entries = slices.Delete(st.Entries, j, j+1)
		out = append(out, c)

		c = clone()
		st = &c.States[nonEmpty[rng.Intn(len(nonEmpty))]]
		st.Entries[rng.Intn(len(st.Entries))].Next = tcam.To(1<<20, 0)
		out = append(out, c)
	}
	return out
}

// crossCheckCorrupted cross-checks prog and its corruptions on n inputs
// each and returns how many corrupted programs the reference caught.
func crossCheckCorrupted(t *testing.T, v *verifier, prog *tcam.Program, n int, rng *rand.Rand) (caught int) {
	t.Helper()
	if _, wrong := crossCheck(t, v, prog, n); wrong != 0 {
		t.Fatalf("compiled program is wrong on %d inputs", wrong)
	}
	for _, c := range corruptions(prog, rng) {
		if _, wrong := crossCheck(t, v, c, n); wrong > 0 {
			caught++
		}
	}
	return caught
}

const crossCheckInputs = 10000

// TestLoweredCheckRandomSpecs is the equivalence property over the seeded
// random specs of random_test.go, their compiled programs, and corrupted
// copies of those programs.
func TestLoweredCheckRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	caught, compiled := 0, 0
	for i := 0; i < 12; i++ {
		spec := randomSpec(rng, i)
		opts := DefaultOptions()
		opts.Timeout = 20 * time.Second
		res, err := Compile(spec, hw.Tofino(), opts)
		if err != nil {
			t.Logf("spec %d: %v", i, err)
			continue
		}
		compiled++
		v, err := newVerifier(spec, DefaultOptions(), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		caught += crossCheckCorrupted(t, v, res.Program, crossCheckInputs, rng)
	}
	if compiled == 0 || caught == 0 {
		t.Fatalf("%d specs compiled, %d corruptions caught: disagreement never exercised", compiled, caught)
	}
}

func fixtureProg(spec *pir.Spec, states ...tcam.State) *tcam.Program {
	return &tcam.Program{Spec: spec, States: states}
}

// wildcard is an entry that matches every key.
func wildcard(next tcam.Target, xs ...pir.Extract) tcam.Entry {
	return tcam.Entry{Extracts: xs, Next: next}
}

func ex(field string) pir.Extract { return pir.Extract{Field: field} }

// TestLoweredCheckHandFixtures pins the corners of the reference semantics
// the lowered machines must reproduce. Each fixture says whether the
// program is right (wrong == 0) or wrong somewhere (wrong > 0); the lowered
// check must agree with the reference on every input either way.
func TestLoweredCheckHandFixtures(t *testing.T) {
	twoFields := pir.MustNew("two",
		[]pir.Field{{Name: "a", Width: 2}, {Name: "x", Width: 2}},
		[]pir.State{{Name: "start", Extracts: []pir.Extract{ex("a")}, Default: pir.AcceptTarget}})
	varbit := pir.MustNew("varbit",
		[]pir.Field{{Name: "len", Width: 2}, {Name: "opt", Width: 8, Var: true}},
		[]pir.State{{
			Name:     "start",
			Extracts: []pir.Extract{ex("len"), {Field: "opt", LenField: "len", LenScale: 2}},
			Default:  pir.AcceptTarget,
		}})
	peek := pir.MustNew("peek",
		[]pir.Field{{Name: "a", Width: 4}, {Name: "b", Width: 4}},
		[]pir.State{
			{
				Name:     "start",
				Extracts: []pir.Extract{ex("a")},
				Key:      []pir.KeyPart{pir.LookaheadBits(0, 4)},
				Rules:    []pir.Rule{pir.ExactRule(0, 4, pir.To(1))},
				Default:  pir.AcceptTarget,
			},
			{Name: "b", Extracts: []pir.Extract{ex("b")}, Default: pir.AcceptTarget},
		})
	loop := pir.MustNew("loop",
		[]pir.Field{{Name: "bos", Width: 1}, {Name: "v", Width: 1}},
		[]pir.State{{
			Name:     "start",
			Extracts: []pir.Extract{ex("bos"), ex("v")},
			Key:      []pir.KeyPart{pir.WholeField("bos", 1)},
			Rules:    []pir.Rule{pir.ExactRule(0, 1, pir.To(0))},
			Default:  pir.AcceptTarget,
		}})
	spin := pir.MustNew("spin",
		[]pir.Field{{Name: "a", Width: 1}},
		[]pir.State{{
			Name:    "start",
			Key:     []pir.KeyPart{pir.LookaheadBits(0, 1)},
			Rules:   []pir.Rule{pir.ExactRule(1, 1, pir.To(0))},
			Default: pir.AcceptTarget,
		}})
	la := func(skip, w int) []pir.KeyPart { return []pir.KeyPart{pir.LookaheadBits(skip, w)} }

	for _, tc := range []struct {
		name  string
		spec  *pir.Spec
		prog  *tcam.Program
		wrong bool
	}{
		{"missing start state", twoFields, fixtureProg(twoFields,
			tcam.State{Table: 0, ID: 1, Entries: []tcam.Entry{wildcard(tcam.AcceptTarget, ex("a"))}}), true},
		{"no matching entry", twoFields, fixtureProg(twoFields,
			tcam.State{Key: la(0, 1), Entries: []tcam.Entry{{Value: 1, Mask: 1, Extracts: []pir.Extract{ex("a")}, Next: tcam.AcceptTarget}}}), true},
		{"zero-width varbit", varbit, fixtureProg(varbit,
			tcam.State{Entries: []tcam.Entry{wildcard(tcam.AcceptTarget, varbit.States[0].Extracts...)}}), false},
		{"zero-width varbit left out", varbit, fixtureProg(varbit,
			tcam.State{Key: la(0, 2), Entries: []tcam.Entry{
				{Value: 0, Mask: 3, Extracts: []pir.Extract{ex("len")}, Next: tcam.AcceptTarget},
				wildcard(tcam.AcceptTarget, varbit.States[0].Extracts...),
			}}), true},
		{"lookahead past the end", peek, fixtureProg(peek,
			tcam.State{Key: la(4, 4), Entries: []tcam.Entry{
				{Value: 0, Mask: 0xF, Extracts: []pir.Extract{ex("a"), ex("b")}, Next: tcam.AcceptTarget},
				wildcard(tcam.AcceptTarget, ex("a")),
			}}), false},
		{"loop re-extraction", loop, fixtureProg(loop,
			tcam.State{Key: la(0, 1), Entries: []tcam.Entry{
				{Value: 0, Mask: 1, Extracts: []pir.Extract{ex("bos"), ex("v")}, Next: tcam.To(0, 0)},
				wildcard(tcam.AcceptTarget, ex("bos"), ex("v")),
			}}), false},
		// Right on the first turn, swapped on later ones: only the last
		// write of each field can tell.
		{"loop re-extraction, later writes swapped", loop, fixtureProg(loop,
			tcam.State{Key: la(0, 1), Entries: []tcam.Entry{
				{Value: 0, Mask: 1, Extracts: []pir.Extract{ex("bos"), ex("v")}, Next: tcam.To(0, 1)},
				wildcard(tcam.AcceptTarget, ex("bos"), ex("v")),
			}},
			tcam.State{ID: 1, Key: la(0, 1), Entries: []tcam.Entry{
				{Value: 0, Mask: 1, Extracts: []pir.Extract{ex("v"), ex("bos")}, Next: tcam.To(0, 1)},
				wildcard(tcam.AcceptTarget, ex("v"), ex("bos")),
			}}), true},
		{"declared field only the program extracts", twoFields, fixtureProg(twoFields,
			tcam.State{Entries: []tcam.Entry{wildcard(tcam.AcceptTarget, ex("a"), ex("x"))}}), true},
		{"undeclared field only the program extracts", twoFields, fixtureProg(twoFields,
			tcam.State{Entries: []tcam.Entry{wildcard(tcam.AcceptTarget, ex("a"), ex("ghost"))}}), true},
		{"iteration bound", spin, fixtureProg(spin,
			tcam.State{Key: la(0, 1), Entries: []tcam.Entry{
				{Value: 1, Mask: 1, Next: tcam.To(0, 0)},
				wildcard(tcam.AcceptTarget),
			}}), false},
		{"iteration bound escaped", spin, fixtureProg(spin,
			tcam.State{Key: la(0, 1), Entries: []tcam.Entry{
				{Value: 1, Mask: 1, Next: tcam.AcceptTarget},
				wildcard(tcam.AcceptTarget),
			}}), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := newVerifier(tc.spec, DefaultOptions(), 1)
			if err != nil {
				t.Fatal(err)
			}
			_, wrong := crossCheck(t, v, tc.prog, crossCheckInputs)
			if tc.wrong != (wrong > 0) {
				t.Fatalf("program wrong on %d inputs, want wrong=%v", wrong, tc.wrong)
			}
			if _, found, _ := v.counterexample(tc.prog); found != tc.wrong {
				t.Fatalf("counterexample found=%v, want %v", found, tc.wrong)
			}
		})
	}
}

func TestRegFileGenerationWrap(t *testing.T) {
	in := bitstream.MustFromString("1011")
	var r regFile
	r.reset(2)
	r.extract(in, &lowExtract{slot: 1, width: 4, lenSlot: -1, capture: -1}, 0)
	r.cur = ^uint32(0) // next reset wraps
	r.gen[1] = 0       // a slot written in generation 0, long ago
	r.reset(2)
	if r.cur != 1 || r.has(0) || r.has(1) || len(r.live) != 0 {
		t.Fatalf("after wrap: cur=%d live=%v gen=%v", r.cur, r.live, r.gen)
	}
}

// FuzzLoweredSpec fuzzes the lowered spec machine against pir.Spec.Run:
// the same outcome, the same path, and a dictionary that, rebuilt from the
// registers' slot offsets, equals the reference's. Each input runs twice on
// one register file, after a run on the complemented input, so stale
// registers from an earlier generation would show.
func FuzzLoweredSpec(f *testing.F) {
	f.Add(benchdata.FuzzSeedSrcA, []byte{0x4a}, 0)
	f.Add(benchdata.FuzzSeedSrcB, []byte{0x55, 0xaa}, 8)
	f.Add(benchdata.FuzzSeedSrcC, []byte{0xff, 0x00}, 3)
	f.Fuzz(func(t *testing.T, src string, packet []byte, maxIter int) {
		spec, err := p4.ParseSpec(src)
		if err != nil {
			t.Skip()
		}
		if maxIter < 0 || maxIter > 4*pir.DefaultMaxIterations {
			maxIter = 0
		}
		in := bitstream.FromBytes(packet)
		other := in.Clone()
		for i := range other {
			other[i] ^= 1
		}
		want := spec.Run(in, maxIter)
		ls := lowerSpec(spec)
		var r regFile
		ls.run(other, maxIter, &r, nil)
		var path []int
		acc := ls.run(in, maxIter, &r, &path)
		if acc != want.Accepted || acc == want.Rejected {
			t.Fatalf("lowered accepts=%v, reference %+v", acc, want)
		}
		if !slices.Equal(path, want.Path) {
			t.Fatalf("lowered path %v, reference %v", path, want.Path)
		}
		if got := r.dict(in, ls.names); !got.Equal(want.Dict) {
			t.Fatalf("dictionaries differ: %s", got.Diff(want.Dict))
		}
	})
}
