package sat

import (
	"bytes"
	"strconv"
)

// DRAT proof logging. When enabled (StartProof), the solver appends one
// line per clause-database change to an in-memory log, in the DRAT
// clausal format the checker in internal/cert replays by forward unit
// propagation:
//
//   - every learnt clause (unit, binary-implication-list, and long) is
//     an addition line, in derivation order;
//   - every reduceDB removal is a deletion ("d") line; binary learnts
//     join the implication lists permanently and are never deleted.
//
// The log deliberately omits the final empty clause: the same session
// answers many queries, and only the caller knows which solve's verdict
// is being certified. ProofBytes(true) appends the terminating "0" for
// a solve that returned Unsat.
//
// Every hook is a nil-check on Solver.proof, mirroring RecordOriginal:
// with logging off the hot path does no work and no allocation.

type proofLog struct {
	buf bytes.Buffer
	tmp []byte
}

// StartProof enables DRAT logging on this solver. Call before the first
// Solve so the log covers every learnt clause the verdict depends on.
func (s *Solver) StartProof() {
	if s.proof == nil {
		s.proof = &proofLog{}
	}
}

// ProofEnabled reports whether DRAT logging is active.
func (s *Solver) ProofEnabled() bool { return s.proof != nil }

// ProofBytes returns a copy of the DRAT log. With finalUnsat the
// terminating empty clause is appended, completing a refutation of the
// instance-plus-assumptions CNF that WriteDIMACSUnder dumps for the
// same solve.
func (s *Solver) ProofBytes(finalUnsat bool) []byte {
	if s.proof == nil {
		return nil
	}
	out := append([]byte(nil), s.proof.buf.Bytes()...)
	if finalUnsat {
		out = append(out, '0', '\n')
	}
	return out
}

func (p *proofLog) writeLits(lits []Lit) {
	for _, l := range lits {
		n := l.Var() + 1
		if l.Neg() {
			n = -n
		}
		p.tmp = strconv.AppendInt(p.tmp[:0], int64(n), 10)
		p.buf.Write(p.tmp)
		p.buf.WriteByte(' ')
	}
	p.buf.WriteString("0\n")
}

func (p *proofLog) add(lits []Lit) {
	p.writeLits(lits)
}

func (p *proofLog) del(lits []Lit) {
	p.buf.WriteString("d ")
	p.writeLits(lits)
}
