package cert

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// This file implements a standalone forward DRAT checker: it validates
// an UNSAT verdict by replaying the solver's clausal proof against the
// DIMACS instance (including any assumption unit clauses) with nothing
// but unit propagation. It shares no code with internal/sat — it has
// its own parser and its own watched-literal propagator — so a solver
// bug cannot hide inside the checker that certifies it.
//
// Supported proof subset (see DESIGN.md):
//   - one clause per line, DIMACS literals, 0-terminated
//   - "d <lits> 0" deletes one instance of a clause; deletions of unit
//     clauses are ignored (their propagations are kept), matching
//     standard forward checkers
//   - "c ..." lines are comments
//   - a clause means its normal form (normClause): repeated literals
//     count once, and a clause holding l and ¬l is satisfied
//   - every added clause must be RUP
//   - the proof ends with the empty clause ("0"); the check succeeds
//     only if unit propagation has derived a contradiction by then

// CheckDRAT validates that proof is a correct DRAT refutation of the
// DIMACS instance. It returns nil exactly when the proof derives the
// empty clause by reverse unit propagation.
func CheckDRAT(dimacs, proof []byte) error {
	ck := &dratChecker{watches: map[int][]int{}, byKey: map[string][]int{}}
	if err := ck.loadDIMACS(dimacs); err != nil {
		return fmt.Errorf("cert: drat: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(proof))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		del := false
		if strings.HasPrefix(line, "d ") || line == "d" {
			del = true
			line = strings.TrimSpace(line[1:])
		}
		lits, err := parseLits(line)
		if err != nil {
			return fmt.Errorf("cert: drat: line %d: %w", lineNo, err)
		}
		if del {
			ck.deleteClause(lits)
			continue
		}
		if len(lits) == 0 {
			if ck.contradiction {
				return nil // refutation complete
			}
			return fmt.Errorf("cert: drat: line %d: empty clause is not derivable by unit propagation", lineNo)
		}
		if !ck.rup(lits) {
			return fmt.Errorf("cert: drat: line %d: clause %v is not RUP", lineNo, lits)
		}
		ck.addClause(lits)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("cert: drat: %w", err)
	}
	if ck.contradiction {
		// Proofs dumped mid-session may omit the trailing empty clause;
		// a derived contradiction is the refutation either way.
		return nil
	}
	return fmt.Errorf("cert: drat: proof ends without deriving the empty clause")
}

// dratChecker is a minimal watched-literal unit propagator over an
// incrementally growing clause database. Literals use the DIMACS
// convention (±var, 1-based).
type dratChecker struct {
	db            [][]int
	dead          []bool
	watches       map[int][]int    // literal -> indices of clauses watching it
	byKey         map[string][]int // canonical clause -> db indices (for deletion)
	assign        []int8           // var -> 0 unassigned, +1 true, -1 false
	trail         []int
	qhead         int
	contradiction bool
}

func (ck *dratChecker) loadDIMACS(dimacs []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(dimacs))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var pending []int
	sawHeader := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p ") {
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "cnf" {
				return fmt.Errorf("malformed problem line %q", line)
			}
			sawHeader = true
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return fmt.Errorf("bad literal %q", tok)
			}
			if n == 0 {
				ck.addClause(pending)
				pending = nil
				continue
			}
			pending = append(pending, n)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawHeader {
		return fmt.Errorf("missing DIMACS header")
	}
	if len(pending) != 0 {
		return fmt.Errorf("unterminated clause %v", pending)
	}
	return nil
}

func parseLits(line string) ([]int, error) {
	var lits []int
	terminated := false
	for _, tok := range strings.Fields(line) {
		n, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("bad literal %q", tok)
		}
		if n == 0 {
			terminated = true
			break
		}
		lits = append(lits, n)
	}
	if !terminated {
		return nil, fmt.Errorf("clause missing terminating 0")
	}
	return lits, nil
}

func (ck *dratChecker) ensureVar(v int) {
	for len(ck.assign) <= v {
		ck.assign = append(ck.assign, 0)
	}
}

// val reports the current value of a literal: +1 true, -1 false, 0 unassigned.
func (ck *dratChecker) val(l int) int8 {
	v := l
	if v < 0 {
		v = -v
	}
	ck.ensureVar(v)
	a := ck.assign[v]
	if a == 0 {
		return 0
	}
	if l < 0 {
		return -a
	}
	return a
}

func (ck *dratChecker) enqueue(l int) {
	v := l
	s := int8(1)
	if v < 0 {
		v, s = -v, -1
	}
	ck.ensureVar(v)
	ck.assign[v] = s
	ck.trail = append(ck.trail, l)
}

func (ck *dratChecker) undoTo(mark int) {
	for i := mark; i < len(ck.trail); i++ {
		v := ck.trail[i]
		if v < 0 {
			v = -v
		}
		ck.assign[v] = 0
	}
	ck.trail = ck.trail[:mark]
	ck.qhead = mark
}

// propagate runs unit propagation to fixpoint; false means conflict.
func (ck *dratChecker) propagate() bool {
	for ck.qhead < len(ck.trail) {
		t := ck.trail[ck.qhead]
		ck.qhead++
		neg := -t
		ws := ck.watches[neg]
		j := 0
		for i := 0; i < len(ws); i++ {
			ci := ws[i]
			if ck.dead[ci] {
				continue
			}
			cl := ck.db[ci]
			if cl[0] == neg {
				cl[0], cl[1] = cl[1], cl[0]
			}
			if ck.val(cl[0]) == 1 {
				ws[j] = ci
				j++
				continue
			}
			moved := false
			for k := 2; k < len(cl); k++ {
				if ck.val(cl[k]) != -1 {
					cl[1], cl[k] = cl[k], cl[1]
					ck.watches[cl[1]] = append(ck.watches[cl[1]], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			ws[j] = ci
			j++
			switch ck.val(cl[0]) {
			case -1:
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				ck.watches[neg] = ws[:j]
				return false
			case 0:
				ck.enqueue(cl[0])
			}
		}
		ck.watches[neg] = ws[:j]
	}
	return true
}

// rup reports whether F ∧ ¬C propagates to a conflict (so F implies C).
// The trail is restored afterwards.
func (ck *dratChecker) rup(lits []int) bool {
	if ck.contradiction {
		return true
	}
	mark := len(ck.trail)
	for _, l := range lits {
		switch ck.val(l) {
		case 1:
			// A literal of C is already implied: C follows immediately.
			ck.undoTo(mark)
			return true
		case 0:
			ck.enqueue(-l)
		}
	}
	conflict := !ck.propagate()
	ck.undoTo(mark)
	return conflict
}

// addClause installs a clause as an axiom or verified lemma. The trail
// here only ever holds top-level (permanent) assignments.
func (ck *dratChecker) addClause(lits []int) {
	if ck.contradiction {
		return
	}
	lits, taut := normClause(lits)
	if taut {
		return // satisfied by every assignment: constrains nothing
	}
	if len(lits) == 0 {
		ck.contradiction = true
		return
	}
	if len(lits) == 1 {
		switch ck.val(lits[0]) {
		case -1:
			ck.contradiction = true
		case 0:
			ck.enqueue(lits[0])
			if !ck.propagate() {
				ck.contradiction = true
			}
		}
		return
	}
	k := fmt.Sprint(lits) // deletion key, taken before the watch reordering
	// Order the watched positions onto non-false literals so the watch
	// invariant holds under the current top-level trail.
	cl := lits
	slot := 0
	for i := 0; i < len(cl) && slot < 2; i++ {
		if ck.val(cl[i]) != -1 {
			cl[slot], cl[i] = cl[i], cl[slot]
			slot++
		}
	}
	switch slot {
	case 0: // every literal false under the top level
		ck.contradiction = true
		return
	case 1:
		if ck.val(cl[0]) == 0 {
			ck.enqueue(cl[0])
			if !ck.propagate() {
				ck.contradiction = true
				return
			}
		}
		// Still install it; a deleted unit-producing clause is never
		// un-propagated, matching the documented subset.
	}
	ci := len(ck.db)
	ck.db = append(ck.db, cl)
	ck.dead = append(ck.dead, false)
	ck.watches[cl[0]] = append(ck.watches[cl[0]], ci)
	if len(cl) > 1 {
		ck.watches[cl[1]] = append(ck.watches[cl[1]], ci)
	}
	ck.byKey[k] = append(ck.byKey[k], ci)
}

// deleteClause removes one instance of the clause from the database.
// Missing instances and unit clauses are ignored, as in standard
// forward DRAT checking.
func (ck *dratChecker) deleteClause(lits []int) {
	lits, taut := normClause(lits)
	if taut || len(lits) <= 1 {
		return
	}
	k := fmt.Sprint(lits)
	idxs := ck.byKey[k]
	for len(idxs) > 0 {
		ci := idxs[len(idxs)-1]
		idxs = idxs[:len(idxs)-1]
		if !ck.dead[ci] {
			ck.dead[ci] = true
			break
		}
	}
	ck.byKey[k] = idxs
}

// normClause returns a fresh copy of a clause in normal form: literals
// ordered by variable, each once. taut reports a clause holding some
// literal and its negation.
func normClause(lits []int) (cl []int, taut bool) {
	cl = slices.Clone(lits)
	slices.SortFunc(cl, func(a, b int) int {
		return cmp.Or(cmp.Compare(max(a, -a), max(b, -b)), cmp.Compare(a, b))
	})
	cl = slices.Compact(cl)
	for i := 1; i < len(cl); i++ {
		if cl[i] == -cl[i-1] {
			return nil, true
		}
	}
	return cl, false
}
