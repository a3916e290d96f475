package core

import (
	"sync"
	"testing"
)

// TestHardestQuery: Best and Proved pick different dumps when the most
// conflicted one carries no proof, and a tie keeps the first dump
// offered. Portfolio workers offer dumps concurrently; run it with -race.
func TestHardestQuery(t *testing.T) {
	var h HardestQuery
	if h.Best() != nil || h.Proved() != nil {
		t.Fatal("an empty HardestQuery returned a dump")
	}
	proof := []byte("0\n")
	for _, q := range []QueryDump{
		{Skeleton: "unsat-first", Status: "unsat", Conflicts: 7, Proof: proof},
		{Skeleton: "unsat-tie", Status: "unsat", Conflicts: 7, Proof: proof},
		{Skeleton: "sat-first", Status: "sat", Conflicts: 9},
		{Skeleton: "sat-tie", Status: "sat", Conflicts: 9},
		{Skeleton: "unsat-easy", Status: "unsat", Conflicts: 1, Proof: proof},
	} {
		h.Consider(q)
	}
	if b := h.Best(); b == nil || b.Skeleton != "sat-first" {
		t.Errorf("Best() = %+v, want sat-first", b)
	}
	if p := h.Proved(); p == nil || p.Skeleton != "unsat-first" {
		t.Errorf("Proved() = %+v, want unsat-first", p)
	}

	var racing HardestQuery
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := QueryDump{Budget: i, Conflicts: int64(i)}
			if i%2 == 0 {
				q.Proof = proof
			}
			racing.Consider(q)
			racing.Best()
			racing.Proved()
		}()
	}
	wg.Wait()
	if b, p := racing.Best(), racing.Proved(); b == nil || b.Budget != 7 || p == nil || p.Budget != 6 {
		t.Errorf("after racing offers: Best() = %+v, Proved() = %+v, want budgets 7 and 6", b, p)
	}
}
