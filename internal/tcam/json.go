package tcam

import (
	"encoding/json"
	"fmt"
	"strconv"

	"parserhawk/internal/pir"
)

// The JSON form of a compiled program is the deployment artifact: the
// field table plus every TCAM row, exactly what a device driver needs to
// populate the parser. EncodeJSON/DecodeJSON round-trip losslessly.

type jsonProgram struct {
	Fields []pir.Field `json:"fields"`
	States []jsonState `json:"states"`
}

type jsonState struct {
	Table   int           `json:"table"`
	ID      int           `json:"id"`
	Key     []pir.KeyPart `json:"key,omitempty"`
	Entries []jsonEntry   `json:"entries"`
}

type jsonEntry struct {
	Value    string        `json:"value"` // hex
	Mask     string        `json:"mask"`  // hex
	Extracts []pir.Extract `json:"extracts,omitempty"`
	Next     jsonTarget    `json:"next"`
}

type jsonTarget struct {
	Kind  string `json:"kind"` // "state" | "accept" | "reject"
	Table int    `json:"table,omitempty"`
	State int    `json:"state,omitempty"`
}

// EncodeJSON serializes the program (including its field table) so it can
// be stored, diffed, or loaded into a device driver.
func (p *Program) EncodeJSON() ([]byte, error) {
	// The copy is nil for an empty field table, which the wire form
	// writes as "fields": null.
	out := jsonProgram{Fields: append([]pir.Field(nil), p.Spec.Fields...)}
	for i := range p.States {
		s := &p.States[i]
		js := jsonState{Table: s.Table, ID: s.ID, Key: s.Key}
		for _, e := range s.Entries {
			je := jsonEntry{
				Value:    fmt.Sprintf("%#x", e.Value),
				Mask:     fmt.Sprintf("%#x", e.Mask),
				Extracts: e.Extracts,
			}
			switch e.Next.Kind {
			case Accept:
				je.Next = jsonTarget{Kind: "accept"}
			case Reject:
				je.Next = jsonTarget{Kind: "reject"}
			default:
				je.Next = jsonTarget{Kind: "state", Table: e.Next.Table, State: e.Next.State}
			}
			js.Entries = append(js.Entries, je)
		}
		out.States = append(out.States, js)
	}
	return json.MarshalIndent(out, "", "  ")
}

// DecodeJSON reconstructs a program from its EncodeJSON form.
func DecodeJSON(data []byte) (*Program, error) {
	var in jsonProgram
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("tcam: %w", err)
	}
	// The field table alone is a valid one-state spec carrier; programs
	// deserialized this way exist to be executed, so a synthetic spec with
	// the right fields is sufficient.
	spec, err := pir.New("deserialized", in.Fields, []pir.State{{Name: "start", Default: pir.AcceptTarget}})
	if err != nil {
		return nil, fmt.Errorf("tcam: %w", err)
	}
	prog := &Program{Spec: spec}
	for _, js := range in.States {
		st := State{Table: js.Table, ID: js.ID, Key: js.Key}
		for _, je := range js.Entries {
			e := Entry{Extracts: je.Extracts}
			if e.Value, err = strconv.ParseUint(je.Value, 0, 64); err != nil {
				return nil, fmt.Errorf("tcam: bad value %q: %w", je.Value, err)
			}
			if e.Mask, err = strconv.ParseUint(je.Mask, 0, 64); err != nil {
				return nil, fmt.Errorf("tcam: bad mask %q: %w", je.Mask, err)
			}
			switch je.Next.Kind {
			case "accept":
				e.Next = AcceptTarget
			case "reject":
				e.Next = RejectTarget
			case "state":
				e.Next = To(je.Next.Table, je.Next.State)
			default:
				return nil, fmt.Errorf("tcam: bad target kind %q", je.Next.Kind)
			}
			st.Entries = append(st.Entries, e)
		}
		prog.States = append(prog.States, st)
	}
	return prog, nil
}
