package sat_test

import (
	"bytes"
	"testing"

	"parserhawk/internal/cert"
	"parserhawk/internal/sat"
)

// pigeonhole encodes the unsatisfiable "n+1 pigeons in n holes"
// instance: var p*n+h means pigeon p sits in hole h.
func pigeonhole(s *sat.Solver, n int) {
	vars := make([][]int, n+1)
	for p := 0; p <= n; p++ {
		vars[p] = make([]int, n)
		for h := 0; h < n; h++ {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		var cl []sat.Lit
		for h := 0; h < n; h++ {
			cl = append(cl, sat.MkLit(vars[p][h], false))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ {
		for p := 0; p <= n; p++ {
			for q := p + 1; q <= n; q++ {
				s.AddClause(sat.MkLit(vars[p][h], true), sat.MkLit(vars[q][h], true))
			}
		}
	}
}

func TestProofCertifiesUnsat(t *testing.T) {
	s := sat.New()
	s.RecordOriginal = true
	s.StartProof()
	pigeonhole(s, 4)
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("pigeonhole: got %v, want Unsat", st)
	}
	var cnf bytes.Buffer
	if err := s.WriteDIMACS(&cnf); err != nil {
		t.Fatal(err)
	}
	proof := s.ProofBytes(true)
	if len(proof) == 0 {
		t.Fatal("no proof logged")
	}
	if err := cert.CheckDRAT(cnf.Bytes(), proof); err != nil {
		t.Fatalf("proof does not check: %v", err)
	}
}

func TestProofCertifiesAssumptionUnsat(t *testing.T) {
	// x1 -> x2, x2 -> x3, and we assume x1 and ¬x3: UNSAT under
	// assumptions while the instance itself is satisfiable. The dumped
	// CNF includes the assumptions as units, so the proof refutes it.
	s := sat.New()
	s.RecordOriginal = true
	s.StartProof()
	v := make([]int, 4)
	for i := range v {
		v[i] = s.NewVar()
	}
	s.AddClause(sat.MkLit(v[0], true), sat.MkLit(v[1], false))
	s.AddClause(sat.MkLit(v[1], true), sat.MkLit(v[2], false))
	assumps := []sat.Lit{sat.MkLit(v[0], false), sat.MkLit(v[2], true)}
	if st := s.Solve(assumps...); st != sat.Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	var cnf bytes.Buffer
	if err := s.WriteDIMACSUnder(&cnf, assumps...); err != nil {
		t.Fatal(err)
	}
	if err := cert.CheckDRAT(cnf.Bytes(), s.ProofBytes(true)); err != nil {
		t.Fatalf("assumption proof does not check: %v", err)
	}
	// The session stays usable and a later solve is certifiable too.
	if st := s.Solve(sat.MkLit(v[0], false), sat.MkLit(v[2], false)); st != sat.Sat {
		t.Fatalf("follow-up solve: got %v, want Sat", st)
	}
}

func TestProofOffByDefault(t *testing.T) {
	s := sat.New()
	pigeonhole(s, 3)
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	if s.ProofEnabled() || s.ProofBytes(true) != nil {
		t.Fatal("proof logging must be off unless StartProof is called")
	}
}
