package tcam

import (
	"strings"
	"testing"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
)

func TestJSONRoundTrip(t *testing.T) {
	prog, spec := table1Program(t)
	data, err := prog.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"fields"`, `"states"`, `"accept"`, `"0x1"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("encoded JSON missing %s:\n%s", want, data)
		}
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	// The deserialized program must behave identically.
	for v := 0; v < 256; v++ {
		in := bitstream.FromUint(uint64(v), 8)
		got := back.Run(in, 0)
		want := spec.Run(in, 0)
		if !got.Same(want) {
			t.Fatalf("input %08b: decoded program diverges: %v vs %v", v, got.Dict, want.Dict)
		}
	}
	// Resource accounting survives too.
	if back.Resources().Entries != prog.Resources().Entries {
		t.Error("entry count changed across serialization")
	}
}

func TestJSONRoundTripVarbit(t *testing.T) {
	spec := pir.MustNew("vb",
		[]pir.Field{{Name: "h.len", Width: 2}, {Name: "h.opts", Width: 12, Var: true}},
		[]pir.State{{
			Name: "S",
			Extracts: []pir.Extract{
				{Field: "h.len"},
				{Field: "h.opts", LenField: "h.len", LenScale: 4},
			},
			Default: pir.AcceptTarget,
		}})
	prog := &Program{Spec: spec, States: []State{{
		Entries: []Entry{{
			Extracts: []pir.Extract{
				{Field: "h.len"},
				{Field: "h.opts", LenField: "h.len", LenScale: 4},
			},
			Next: AcceptTarget,
		}},
	}}}
	data, err := prog.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	in := bitstream.MustFromString("10_1111_0000_10")
	got := back.Run(in, 0)
	if len(got.Dict["h.opts"]) != 8 {
		t.Errorf("varbit semantics lost: %v", got.Dict)
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	if _, err := DecodeJSON([]byte("{")); err == nil {
		t.Error("malformed JSON must error")
	}
	if _, err := DecodeJSON([]byte(`{"states":[{"entries":[{"value":"zz","mask":"0x0","next":{"kind":"accept"}}]}]}`)); err == nil {
		t.Error("bad hex must error")
	}
	if _, err := DecodeJSON([]byte(`{"states":[{"entries":[{"value":"0x0","mask":"0x0","next":{"kind":"sideways"}}]}]}`)); err == nil {
		t.Error("bad target kind must error")
	}
	// A number followed by junk is malformed too, not its valid prefix:
	// "0x1fzz" is not 0x1f, and "255 junk" is not 255.
	for _, entry := range []string{
		`{"value":"0x1fzz","mask":"0xff","next":{"kind":"accept"}}`,
		`{"value":"0x1f","mask":"255 junk","next":{"kind":"accept"}}`,
	} {
		if p, err := DecodeJSON([]byte(`{"states":[{"entries":[` + entry + `]}]}`)); err == nil {
			t.Errorf("%s decoded as %#x/%#x, want an error", entry, p.States[0].Entries[0].Value, p.States[0].Entries[0].Mask)
		}
	}
}

// TestEncodeJSONGolden pins the deployment program's bytes, which memo
// entries and certificates store, so the wire form must not drift. It
// covers a field slice and a lookahead key part, a varbit extract with
// lenScale and lenBias, the three target kinds, a keyless state, and a
// program with no fields.
func TestEncodeJSONGolden(t *testing.T) {
	spec := pir.MustNew("golden",
		[]pir.Field{{Name: "h.type", Width: 16}, {Name: "h.len", Width: 4}, {Name: "h.opts", Width: 40, Var: true}},
		[]pir.State{{Name: "start", Default: pir.AcceptTarget}})
	prog := &Program{Spec: spec, States: []State{
		{
			Table: 0, ID: 0,
			Key: []pir.KeyPart{pir.FieldSlice("h.type", 4, 12), pir.LookaheadBits(8, 4)},
			Entries: []Entry{
				{Value: 0x8a5, Mask: 0xfff, Extracts: []pir.Extract{
					{Field: "h.len"},
					{Field: "h.opts", LenField: "h.len", LenScale: 8, LenBias: -4},
				}, Next: To(1, 2)},
				{Value: 0x0, Mask: 0xf00, Next: RejectTarget},
				{Next: AcceptTarget},
			},
		},
		{Table: 1, ID: 2, Entries: []Entry{{Extracts: []pir.Extract{{Field: "h.type"}}, Next: To(0, 0)}}},
	}}
	for _, tc := range []struct {
		name string
		prog *Program
		want string
	}{
		{"program", prog, `{
  "fields": [
    {
      "name": "h.type",
      "width": 16
    },
    {
      "name": "h.len",
      "width": 4
    },
    {
      "name": "h.opts",
      "width": 40,
      "varbit": true
    }
  ],
  "states": [
    {
      "table": 0,
      "id": 0,
      "key": [
        {
          "field": "h.type",
          "lo": 4,
          "hi": 12
        },
        {
          "lookahead": true,
          "skip": 8,
          "width": 4
        }
      ],
      "entries": [
        {
          "value": "0x8a5",
          "mask": "0xfff",
          "extracts": [
            {
              "field": "h.len"
            },
            {
              "field": "h.opts",
              "lenField": "h.len",
              "lenScale": 8,
              "lenBias": -4
            }
          ],
          "next": {
            "kind": "state",
            "table": 1,
            "state": 2
          }
        },
        {
          "value": "0x0",
          "mask": "0xf00",
          "next": {
            "kind": "reject"
          }
        },
        {
          "value": "0x0",
          "mask": "0x0",
          "next": {
            "kind": "accept"
          }
        }
      ]
    },
    {
      "table": 1,
      "id": 2,
      "entries": [
        {
          "value": "0x0",
          "mask": "0x0",
          "extracts": [
            {
              "field": "h.type"
            }
          ],
          "next": {
            "kind": "state"
          }
        }
      ]
    }
  ]
}`},
		{"no fields", &Program{
			Spec:   pir.MustNew("empty", []pir.Field{}, []pir.State{{Name: "start", Default: pir.AcceptTarget}}),
			States: []State{{Entries: []Entry{{Next: AcceptTarget}}}},
		}, `{
  "fields": null,
  "states": [
    {
      "table": 0,
      "id": 0,
      "entries": [
        {
          "value": "0x0",
          "mask": "0x0",
          "next": {
            "kind": "accept"
          }
        }
      ]
    }
  ]
}`},
	} {
		got, err := tc.prog.EncodeJSON()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: EncodeJSON drifted:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}
