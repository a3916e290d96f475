package tables

import (
	"bytes"
	"encoding/json"
	"fmt"

	"parserhawk/internal/core"
	"parserhawk/internal/memo"
)

// RunStats is the machine-readable record of one ParserHawk compilation in
// a harness run: which benchmark on which target in which mode, the
// outcome, and the full solver-level statistics (core.Stats including the
// CDCL/bit-blasting counters and the per-iteration trace). hawkbench
// -stats emits a JSON array of these, one element per compilation.
type RunStats struct {
	Program string  `json:"program"`
	Target  string  `json:"target"`
	Mode    string  `json:"mode"` // "opt" or "orig"
	OK      bool    `json:"ok"`
	Error   string  `json:"error,omitempty"`
	Entries int     `json:"entries"`
	Stages  int     `json:"stages"`
	Seconds float64 `json:"seconds"`

	// Specification size before and after the SpecLint prune (also inside
	// Stats.Lint, surfaced top-level so table tooling can chart the search
	// space reduction without digging into the solver trace). All zero in
	// "orig" mode, which compiles with linting skipped.
	StatesPrePrune  int `json:"states_pre_prune,omitempty"`
	StatesPostPrune int `json:"states_post_prune,omitempty"`
	RulesPrePrune   int `json:"rules_pre_prune,omitempty"`
	RulesPostPrune  int `json:"rules_post_prune,omitempty"`

	Stats core.Stats `json:"stats"`

	// Memo is the cross-compile memo's counter movement during this one
	// compilation; nil when the harness ran without a memo (a pointer so
	// pre-memo stats files still decode under DisallowUnknownFields).
	Memo *MemoRunStats `json:"memo,omitempty"`
}

// MemoRunStats is the per-compilation slice of memo.Stats surfaced in the
// hawkbench -stats report: how many hits/misses this specific compile
// saw, and how long key canonicalization took (fractional milliseconds:
// one canonicalization takes microseconds).
type MemoRunStats struct {
	T1Hits      int64   `json:"t1_hits"`
	T1AliasHits int64   `json:"t1_alias_hits"`
	T1Misses    int64   `json:"t1_misses"`
	BytesRead   int64   `json:"bytes_read"`
	BytesWrit   int64   `json:"bytes_written"`
	CanonMS     float64 `json:"canon_ms"`
}

// memoDelta converts a memo.Stats movement into the stats-report form.
func memoDelta(d memo.Stats) *MemoRunStats {
	return &MemoRunStats{
		T1Hits: d.T1Hits, T1AliasHits: d.T1AliasHits, T1Misses: d.T1Misses,
		BytesRead: d.BytesRead, BytesWrit: d.BytesWritten,
		CanonMS: float64(d.CanonNanos) / 1e6,
	}
}

// EncodeRunStats serializes a harness run's per-compilation records as
// indented JSON, the hawkbench -stats output format.
func EncodeRunStats(runs []RunStats) ([]byte, error) {
	data, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("tables: encoding run stats: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeRunStats reverses EncodeRunStats. Unknown fields are rejected so
// schema drift between a producer and a consumer fails loudly instead of
// silently dropping counters.
func DecodeRunStats(data []byte) ([]RunStats, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var runs []RunStats
	if err := dec.Decode(&runs); err != nil {
		return nil, fmt.Errorf("tables: decoding run stats: %w", err)
	}
	return runs, nil
}
