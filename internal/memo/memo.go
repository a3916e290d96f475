// Package memo is ParserHawk's cross-compile memoization layer: an
// optionally disk-backed cache of whole compiles keyed by canonical spec
// hashes (internal/pir's Canonicalize), so that alias specs — renamed
// states, reordered rules, shifted field layouts — share cached work.
//
// One entry memoizes one compile per (canonical spec, profile
// fingerprint, options fingerprint), its tier 1 (the name the stats and
// hawkd's metric labels keep). An exact hit (same spec text) replays the
// stored program, certificate, and verdict byte-for-byte. An alias hit
// (same canonical form, different text) re-names the stored program's
// fields through the two isomorphism witnesses and serves it only once
// internal/cert's walk proves it equivalent to the requester's spec. Every program the cache serves is thus vouched for by
// internal/cert: an exact replay by its stored, self-checked certificate,
// an alias replay by a fresh walk.
//
// Disk persistence is content-addressed: one file per entry under the
// cache directory, written via temp-file + atomic rename, integrity-guarded
// by a leading SHA-256 line. Corrupt or truncated entries are counted and
// treated as misses — a poisoned cache degrades to a cold compile, never
// to a wrong answer.
package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Stats counts the cache's traffic. Hits are split by kind (exact
// replays vs witness-renamed alias replays); Corrupt counts disk
// entries rejected by the integrity check; CanonNanos is wall time spent
// canonicalizing specs for key computation.
type Stats struct {
	T1Hits      int64 `json:"t1_hits"`
	T1AliasHits int64 `json:"t1_alias_hits"`
	T1Misses    int64 `json:"t1_misses"`
	T1Stores    int64 `json:"t1_stores"`

	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	Corrupt      int64 `json:"corrupt"`
	CanonNanos   int64 `json:"canon_nanos"`
}

// Sub returns the counter movement from o to s.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		T1Hits: s.T1Hits - o.T1Hits, T1AliasHits: s.T1AliasHits - o.T1AliasHits,
		T1Misses: s.T1Misses - o.T1Misses, T1Stores: s.T1Stores - o.T1Stores,
		BytesRead: s.BytesRead - o.BytesRead, BytesWritten: s.BytesWritten - o.BytesWritten,
		Corrupt: s.Corrupt - o.Corrupt, CanonNanos: s.CanonNanos - o.CanonNanos,
	}
}

// Cache is the memo store. The zero value is not usable; a nil
// *Cache is, and behaves as a disabled cache (every operation is a
// transparent no-op), so callers can thread an optional cache without
// guards. All methods are safe for concurrent use.
type Cache struct {
	dir string // "" = memory-only

	mu    sync.Mutex
	t1    map[string]*t1Entry
	stats Stats
}

// Open returns a cache persisted under dir, creating the directory if
// needed. Open("") returns a memory-only cache (still useful: repeated
// compiles within one process share it).
func Open(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("memo: %w", err)
		}
	}
	return &Cache{
		dir: dir,
		t1:  make(map[string]*t1Entry),
	}, nil
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// addCanon accounts canonicalization wall time.
func (c *Cache) addCanon(d time.Duration) {
	c.mu.Lock()
	c.stats.CanonNanos += d.Nanoseconds()
	c.mu.Unlock()
}

// --- disk layer ---

// entryPath is the content-addressed location of one cache entry. The
// "t1-" prefix keeps directories written by earlier versions readable.
func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, "t1-"+key+".json")
}

// readEntry loads and integrity-checks one disk entry into v. Any failure
// — absent file, truncated write, flipped bit, bad JSON — is a miss; a
// failure past the existence check also counts as Corrupt. Lock held.
func (c *Cache) readEntry(key string, v any) bool {
	if c.dir == "" {
		return false
	}
	data, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		return false
	}
	c.stats.BytesRead += int64(len(data))
	nl := bytes.IndexByte(data, '\n')
	if nl != sha256.Size*2 {
		c.stats.Corrupt++
		return false
	}
	sum := sha256.Sum256(data[nl+1:])
	if string(data[:nl]) != hex.EncodeToString(sum[:]) {
		c.stats.Corrupt++
		return false
	}
	if err := json.Unmarshal(data[nl+1:], v); err != nil {
		c.stats.Corrupt++
		return false
	}
	return true
}

// writeEntry persists one entry: SHA-256 line, payload, temp file, atomic
// rename. Write failures are silently dropped — the cache is an
// accelerator, never a correctness dependency. Lock held.
func (c *Cache) writeEntry(key string, v any) {
	if c.dir == "" {
		return
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return
	}
	sum := sha256.Sum256(payload)
	data := append([]byte(hex.EncodeToString(sum[:])+"\n"), payload...)
	tmp, err := os.CreateTemp(c.dir, ".t1-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, c.entryPath(key)); err != nil {
		os.Remove(name)
		return
	}
	c.stats.BytesWritten += int64(len(data))
}
