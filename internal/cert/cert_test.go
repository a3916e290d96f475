package cert

import (
	"strings"
	"testing"

	"parserhawk/internal/pir"
)

// TestEncodeSpecJSONGolden pins the certificate's effective-spec bytes,
// which stored certificates and the memo entries holding them carry, so
// the wire form must not drift. It covers a field slice and a lookahead
// key part, a varbit extract with lenScale and lenBias, the three target
// kinds, and a spec with no fields.
func TestEncodeSpecJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		spec *pir.Spec
		want string
	}{
		{pir.MustNew("golden",
			[]pir.Field{{Name: "h.type", Width: 16}, {Name: "h.len", Width: 4}, {Name: "h.opts", Width: 40, Var: true}},
			[]pir.State{
				{
					Name: "start",
					Extracts: []pir.Extract{
						{Field: "h.type"},
						{Field: "h.len"},
						{Field: "h.opts", LenField: "h.len", LenScale: 8, LenBias: -4},
					},
					Key: []pir.KeyPart{pir.FieldSlice("h.type", 4, 12), pir.LookaheadBits(8, 4)},
					Rules: []pir.Rule{
						{Value: 0x8a5, Mask: 0xfff, Next: pir.To(1)},
						{Value: 0x0, Mask: 0xf00, Next: pir.RejectTarget},
					},
					Default: pir.AcceptTarget,
				},
				{Name: "tail", Default: pir.RejectTarget},
			}), `{"name":"golden","fields":[{"name":"h.type","width":16},{"name":"h.len","width":4},{"name":"h.opts","width":40,"varbit":true}],"states":[{"name":"start","extracts":[{"field":"h.type"},{"field":"h.len"},{"field":"h.opts","lenField":"h.len","lenScale":8,"lenBias":-4}],"key":[{"field":"h.type","lo":4,"hi":12},{"lookahead":true,"skip":8,"width":4}],"rules":[{"value":"0x8a5","mask":"0xfff","next":{"kind":"state","state":1}},{"value":"0x0","mask":"0xf00","next":{"kind":"reject"}}],"default":{"kind":"accept"}},{"name":"tail","default":{"kind":"reject"}}]}`},
		{pir.MustNew("empty", []pir.Field{}, []pir.State{{Name: "start", Default: pir.AcceptTarget}}), `{"name":"empty","fields":null,"states":[{"name":"start","default":{"kind":"accept"}}]}`},
	} {
		got, err := EncodeSpecJSON(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: EncodeSpecJSON drifted:\n%s\nwant:\n%s", tc.spec.Name, got, tc.want)
		}
	}
}

// TestSelfCheckRejectsMalformedHex: a program entry whose value or mask
// is a number followed by junk is malformed. Read as its valid prefix it
// spells the correct program, so a checker that read it that way would
// vouch for bytes that spell no program at all.
func TestSelfCheckRejectsMalformedHex(t *testing.T) {
	spec := miniSpec(t)
	eff, err := EncodeSpecJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := miniProg(spec).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Certificate{Version: Version, Effective: eff, Program: pj}).SelfCheck(); err != nil {
		t.Fatalf("fixture: the intact certificate fails: %v", err)
	}
	for _, edit := range [][2]string{
		{`"value": "0x800"`, `"value": "0x800zz"`},
		{`"mask": "0xffff"`, `"mask": "0xffff junk"`},
	} {
		bad := strings.Replace(string(pj), edit[0], edit[1], 1)
		if bad == string(pj) {
			t.Fatalf("fixture: %s is not in the program", edit[0])
		}
		if err := (&Certificate{Version: Version, Effective: eff, Program: []byte(bad)}).SelfCheck(); err == nil {
			t.Errorf("SelfCheck accepted a program with %s", edit[1])
		}
	}
}
