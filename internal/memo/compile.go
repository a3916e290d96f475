package memo

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"parserhawk/internal/cert"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// Tier-1 verdicts. Timeouts, lint rejections, and context errors are never
// cached: a deadline decides whether a verdict arrives, not which one, and
// lint diagnostics carry the caller's original state and field names.
const (
	verdictOK         = "ok"
	verdictNoSolution = "no_solution"
)

// t1Entry is one persisted whole-compile outcome. Program and certificate
// are stored in the producer's original naming so an exact replay is
// byte-identical; FieldCanon (producer field name -> canonical name) is
// the bridge an alias replay composes with the requester's witness.
type t1Entry struct {
	SpecSHA     string            `json:"spec_sha"` // sha256 of the producer's spec text
	Verdict     string            `json:"verdict"`
	ProgramJSON json.RawMessage   `json:"program,omitempty"`
	Cert        json.RawMessage   `json:"cert,omitempty"`
	FieldCanon  map[string]string `json:"field_canon,omitempty"`
}

// CompileContext is core.CompileContext behind the tier-1 memo. The
// signature matches core.CompileContext exactly so callers (the compile
// service, the benchmark tables, the CLI) can swap it in as their compile
// function. A nil cache compiles directly.
//
// Hit semantics:
//   - exact (stored spec text == requester's): the stored program,
//     certificate, and verdict are replayed byte-for-byte.
//   - alias (same canonical form, different text): ok verdicts only, and
//     only when no certificate was requested (the stored certificate
//     names the producer's spec) and no loop unrolling applies (the
//     bound defaulting is outside the canonical form). The stored program
//     is renamed producer->canonical->requester and served only when
//     cert.Walk proves it equivalent to the requester's spec; any doubt
//     is a miss.
//
// Store gating: ok verdicts are stored only when an independently
// self-checked certificate vouches for them (EmitCertificate is forced on
// the inner compile and stripped if the caller didn't ask for it);
// no-solution verdicts are stored for exact replay only.
func (c *Cache) CompileContext(ctx context.Context, spec *pir.Spec, profile hw.Profile, opts core.Options) (*core.Result, error) {
	if c == nil {
		return core.CompileContext(ctx, spec, profile, opts)
	}
	t0 := time.Now()
	canon, wit, cerr := pir.Canonicalize(spec)
	c.addCanon(time.Since(t0))
	if cerr != nil {
		c.mu.Lock()
		c.stats.T1Misses++
		c.mu.Unlock()
		return core.CompileContext(ctx, spec, profile, opts)
	}
	key := t1Key(canon.String(), profile, opts)
	specSHA := shaHex(spec.String())

	if e := c.loadT1(key); e != nil {
		if res, err, ok := c.replay(e, spec, wit, profile, opts, specSHA); ok {
			return res, err
		}
	}
	c.mu.Lock()
	c.stats.T1Misses++
	c.mu.Unlock()

	inner := opts
	inner.EmitCertificate = true // store gate; outcome-invariant (see core fingerprint)
	res, err := core.CompileContext(ctx, spec, profile, inner)
	c.maybeStore(key, specSHA, wit, res, err)
	if res != nil && !opts.EmitCertificate {
		res.Certificate = nil
	}
	return res, err
}

// t1Key derives the tier-1 cache key. Alias specs share it by
// construction: they canonicalize to the same text. The certificate
// schema is part of it: an entry whose certificate cert.Decode refuses
// would otherwise be looked up, recompiled and never replaced.
func t1Key(canonText string, profile hw.Profile, opts core.Options) string {
	return shaHex(fmt.Sprintf("t1\x00%s\x00%s\x00%s\x00cert%d", canonText, profile.Fingerprint(), opts.Fingerprint(), cert.Version))
}

func shaHex(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}

// loadT1 fetches a tier-1 entry from memory or disk.
func (c *Cache) loadT1(key string) *t1Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.t1[key]; ok {
		return e
	}
	var e t1Entry
	if c.readEntry(key, &e) {
		c.t1[key] = &e
		return &e
	}
	return nil
}

// replay attempts to serve a compile from entry e. ok=false means "treat
// as a miss and compile" — replay never degrades an answer, only skips.
func (c *Cache) replay(e *t1Entry, spec *pir.Spec, wit *pir.Witness, profile hw.Profile, opts core.Options, specSHA string) (*core.Result, error, bool) {
	exact := e.SpecSHA == specSHA
	hit := func(alias bool) {
		c.mu.Lock()
		if alias {
			c.stats.T1AliasHits++
		} else {
			c.stats.T1Hits++
		}
		c.mu.Unlock()
	}
	switch e.Verdict {
	case verdictNoSolution:
		// The no-solution proof search ran against the producer's exact
		// spec; an alias requester gets a fresh compile.
		if !exact {
			return nil, nil, false
		}
		hit(false)
		return nil, core.ErrNoSolution, true

	case verdictOK:
		prog, derr := tcam.DecodeJSON(e.ProgramJSON)
		if derr != nil {
			return nil, nil, false
		}
		if exact {
			res := &core.Result{Program: prog, Resources: prog.Resources()}
			if opts.EmitCertificate {
				ct, err := cert.Decode(e.Cert)
				if err != nil {
					return nil, nil, false
				}
				res.Certificate = ct
			}
			hit(false)
			return res, nil, true
		}
		// Alias replay.
		if opts.EmitCertificate {
			return nil, nil, false // the stored certificate names the producer's spec
		}
		if spec.HasLoop() && !profile.AllowLoops() {
			return nil, nil, false // unroll-bound defaulting sits outside the canonical form
		}
		renamed, ok := renameProgram(prog, e.FieldCanon, wit)
		if !ok {
			return nil, nil, false
		}
		// The stored certificate vouched for the producer's program, not
		// for this rename: prove the renamed program equivalent to the
		// requester's spec with a fresh walk, so a canonicalizer bug or a
		// wrong stored program that the walk refutes costs a miss.
		if err := cert.Walk(spec, renamed); err != nil {
			return nil, nil, false
		}
		hit(true)
		return &core.Result{Program: renamed, Resources: renamed.Resources()}, nil, true
	}
	return nil, nil, false
}

// renameProgram rewrites every field reference of a stored program from
// the producer's names to the requester's, composing the stored
// producer->canonical map with the requester witness's canonical->original
// map. A field either map cannot place makes the whole rename fail.
func renameProgram(prog *tcam.Program, fieldCanon map[string]string, wit *pir.Witness) (*tcam.Program, bool) {
	ren := func(name string) (string, bool) {
		if name == "" {
			return "", true
		}
		cn, ok := fieldCanon[name]
		if !ok {
			return "", false
		}
		on, ok := wit.Fields[cn]
		return on, ok
	}
	fields := make([]pir.Field, 0, len(prog.Spec.Fields))
	for _, f := range prog.Spec.Fields {
		n, ok := ren(f.Name)
		if !ok {
			return nil, false
		}
		fields = append(fields, pir.Field{Name: n, Width: f.Width, Var: f.Var})
	}
	carrier, err := pir.New("deserialized", fields, []pir.State{{Name: "start", Default: pir.AcceptTarget}})
	if err != nil {
		return nil, false
	}
	out := &tcam.Program{Spec: carrier, States: make([]tcam.State, len(prog.States))}
	for i := range prog.States {
		s := prog.States[i] // copies the struct; slices re-built below
		s.Key = append([]pir.KeyPart(nil), s.Key...)
		for j := range s.Key {
			if s.Key[j].Lookahead {
				continue
			}
			n, ok := ren(s.Key[j].Field)
			if !ok {
				return nil, false
			}
			s.Key[j].Field = n
		}
		s.Entries = append([]tcam.Entry(nil), s.Entries...)
		for j := range s.Entries {
			s.Entries[j].Extracts = append([]pir.Extract(nil), s.Entries[j].Extracts...)
			for k := range s.Entries[j].Extracts {
				x := &s.Entries[j].Extracts[k]
				n, ok := ren(x.Field)
				if !ok {
					return nil, false
				}
				ln, ok := ren(x.LenField)
				if !ok {
					return nil, false
				}
				x.Field, x.LenField = n, ln
			}
		}
		out.States[i] = s
	}
	return out, true
}

// maybeStore files a finished compile's outcome when it qualifies.
func (c *Cache) maybeStore(key, specSHA string, wit *pir.Witness, res *core.Result, err error) {
	switch {
	case err == nil:
		if res == nil || res.Certificate == nil || res.Certificate.SelfCheck() != nil {
			return
		}
		pj, jerr := res.Program.EncodeJSON()
		if jerr != nil {
			return
		}
		cj, jerr := res.Certificate.Encode()
		if jerr != nil {
			return
		}
		c.storeT1(key, &t1Entry{
			SpecSHA: specSHA, Verdict: verdictOK,
			ProgramJSON: pj, Cert: cj, FieldCanon: wit.FieldToCanon(),
		})
	case errors.Is(err, core.ErrNoSolution):
		c.storeT1(key, &t1Entry{SpecSHA: specSHA, Verdict: verdictNoSolution})
	}
}

func (c *Cache) storeT1(key string, e *t1Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.t1[key]; ok {
		return
	}
	c.t1[key] = e
	c.stats.T1Stores++
	c.writeEntry(key, e)
}
