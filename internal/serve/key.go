// Package serve is the fetserve query service: a long-running daemon
// that answers convergence-probability and convergence-time-quantile
// queries over HTTP+JSON with a tiered answer path — content-addressed
// cache hit, exact engine run inline, agent-engine study fallback on a
// bounded worker pool — and exposes the surface as spec'd, namespaced
// tools (fet.study.run, fet.study.get, fet.sweep.inspect,
// fet.scenarios.list, fet.health; see the specs/ directory for the
// per-tool acceptance specs).
//
// The package is deliberately engine-agnostic: everything that knows
// how to run a simulation sits behind the Backend interface, which the
// root passivespread package implements over its Study and Scenario
// layers. What lives here is the service machinery — canonical cell
// keys (key.go), the LRU answer cache over the checkpoint store's
// disk tier (cache.go), typed error codes (errors.go), per-tool
// metrics (metrics.go), and the HTTP server with the tier logic
// (server.go).
//
// The correctness story of the whole subsystem is the cell key: every
// cached byte is re-derivable from its key, because the deterministic
// StreamSeed contract makes a study's report a pure function of the
// canonical parameter tuple. A cache hit is therefore byte-identical
// to a cold run, which the golden and determinism tests pin.
package serve

import (
	"fmt"
	"strconv"
	"strings"

	"passivespread/internal/checkpoint"
)

// KeyVersion is the canonical serialization version prefix. Bump it
// whenever the answer payload or the canonical field set changes: old
// cache entries then simply stop matching instead of being replayed
// with stale semantics.
const KeyVersion = "fetcell/v1"

// CellKey is the canonical, content-addressed identity of one study
// cell: the fully resolved parameter tuple from which the answer is a
// deterministic pure function. All fields are resolved values — no
// zero-means-default remains (the Backend resolves defaults before
// keying), except the override fields Sources, NoiseEps and FlipFrac,
// where zero means "the scenario preset's own value" and is omitted
// from the canonical form.
type CellKey struct {
	// Scenario is the scenario preset name.
	Scenario string `json:"scenario"`
	// Engine is the canonical engine display name (EngineName form,
	// e.g. "agent-fast", "markov-chain") or a custom-runner scenario's
	// engine label.
	Engine string `json:"engine"`
	// Topology is the canonical topology spec (ParseTopology grammar).
	Topology string `json:"topology"`
	// N is the population size including sources.
	N int `json:"n"`
	// Ell is the resolved per-half sample size.
	Ell int `json:"ell"`
	// Replicates is the number of independent runs aggregated.
	Replicates int `json:"replicates"`
	// MaxRounds is the resolved per-replicate round cap.
	MaxRounds int `json:"max_rounds"`
	// Seed is the cell's root seed; replicate i runs with
	// StreamSeed(Seed, i).
	Seed uint64 `json:"seed"`
	// Sources overrides the scenario's source count (0 = preset value).
	Sources int `json:"sources,omitempty"`
	// NoiseEps overrides the scenario's observation noise (0 = preset).
	NoiseEps float64 `json:"noise_eps,omitempty"`
	// FlipFrac overrides the scenario's mid-run flip point (0 = preset).
	FlipFrac float64 `json:"flip_frac,omitempty"`
}

// Validate checks that the key is canonicalizable: every required
// field resolved and every name safe for the space-separated canonical
// form.
func (k CellKey) Validate() error {
	for _, f := range []struct{ name, v string }{
		{"scenario", k.Scenario}, {"engine", k.Engine}, {"topology", k.Topology},
	} {
		if f.v == "" {
			return fmt.Errorf("cell key: %s: empty", f.name)
		}
		if strings.ContainsAny(f.v, " =\n\t") {
			return fmt.Errorf("cell key: %s: %q contains canonical-form delimiters", f.name, f.v)
		}
	}
	if k.N < 2 {
		return fmt.Errorf("cell key: n: %d, want ≥ 2", k.N)
	}
	if k.Ell < 1 {
		return fmt.Errorf("cell key: ell: %d, want ≥ 1 (resolve defaults before keying)", k.Ell)
	}
	if k.Replicates < 1 {
		return fmt.Errorf("cell key: replicates: %d, want ≥ 1", k.Replicates)
	}
	if k.MaxRounds < 1 {
		return fmt.Errorf("cell key: max_rounds: %d, want ≥ 1 (resolve defaults before keying)", k.MaxRounds)
	}
	if k.Sources < 0 {
		return fmt.Errorf("cell key: sources: %d, want ≥ 0", k.Sources)
	}
	// Negated in-range tests, so NaN (which "noise_eps=NaN" would parse
	// to, and which never equals itself) is rejected too.
	if !(k.NoiseEps >= 0 && k.NoiseEps < 0.5) {
		return fmt.Errorf("cell key: noise_eps: %v, want in [0, 1/2)", k.NoiseEps)
	}
	if !(k.FlipFrac >= 0 && k.FlipFrac < 1) {
		return fmt.Errorf("cell key: flip_frac: %v, want in [0, 1)", k.FlipFrac)
	}
	return nil
}

// Canonical returns the stable one-line serialization of the key: the
// version prefix followed by fixed-order field=value pairs, override
// fields appended only when set. Canonical() of equal keys is equal
// byte-for-byte, and ParseCellKey inverts it exactly. It panics on a
// key that fails Validate (construct keys through a Backend, which
// resolves and validates).
func (k CellKey) Canonical() string {
	if err := k.Validate(); err != nil {
		panic(err)
	}
	var b strings.Builder
	b.WriteString(KeyVersion)
	fmt.Fprintf(&b, " scenario=%s engine=%s topology=%s n=%d ell=%d replicates=%d max_rounds=%d seed=%d",
		k.Scenario, k.Engine, k.Topology, k.N, k.Ell, k.Replicates, k.MaxRounds, k.Seed)
	if k.Sources != 0 {
		fmt.Fprintf(&b, " sources=%d", k.Sources)
	}
	if k.NoiseEps != 0 {
		b.WriteString(" noise_eps=" + strconv.FormatFloat(k.NoiseEps, 'g', -1, 64))
	}
	if k.FlipFrac != 0 {
		b.WriteString(" flip_frac=" + strconv.FormatFloat(k.FlipFrac, 'g', -1, 64))
	}
	return b.String()
}

// HashPrefix prefixes every key hash, naming the algorithm.
const HashPrefix = "sha256:"

// Hash returns the key's content address: "sha256:" plus the hex
// SHA-256 of the canonical serialization. The hex part is the cache
// entry's identity in memory and its file name on disk.
func (k CellKey) Hash() string { return HashPrefix + checkpoint.HashHex(k.Canonical()) }

// ParseCellKey inverts Canonical: it parses a canonical key string
// strictly (exact version, exact field order, no unknown or duplicate
// fields) and validates the result, so ParseCellKey(k.Canonical()) == k
// for every valid key and every non-canonical variant is rejected
// rather than silently aliasing a different cache identity.
func ParseCellKey(s string) (CellKey, error) {
	var k CellKey
	fields := strings.Split(s, " ")
	if len(fields) == 0 || fields[0] != KeyVersion {
		return k, fmt.Errorf("cell key: want version prefix %q, got %q", KeyVersion, s)
	}
	required := []string{"scenario", "engine", "topology", "n", "ell", "replicates", "max_rounds", "seed"}
	optional := []string{"sources", "noise_eps", "flip_frac"}
	pairs := fields[1:]
	if len(pairs) < len(required) {
		return k, fmt.Errorf("cell key: %d fields, want at least %d", len(pairs), len(required))
	}
	var parseErr error
	assign := func(name, value string) {
		atoi := func() int {
			v, err := strconv.Atoi(value)
			if err != nil && parseErr == nil {
				parseErr = fmt.Errorf("cell key: %s: bad integer %q", name, value)
			}
			return v
		}
		atof := func() float64 {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil && parseErr == nil {
				parseErr = fmt.Errorf("cell key: %s: bad float %q", name, value)
			}
			return v
		}
		switch name {
		case "scenario":
			k.Scenario = value
		case "engine":
			k.Engine = value
		case "topology":
			k.Topology = value
		case "n":
			k.N = atoi()
		case "ell":
			k.Ell = atoi()
		case "replicates":
			k.Replicates = atoi()
		case "max_rounds":
			k.MaxRounds = atoi()
		case "seed":
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil && parseErr == nil {
				parseErr = fmt.Errorf("cell key: seed: bad uint %q", value)
			}
			k.Seed = v
		case "sources":
			k.Sources = atoi()
		case "noise_eps":
			k.NoiseEps = atof()
		case "flip_frac":
			k.FlipFrac = atof()
		}
	}
	for i, pair := range pairs {
		name, value, ok := strings.Cut(pair, "=")
		if !ok || value == "" {
			return k, fmt.Errorf("cell key: malformed field %q", pair)
		}
		// Fixed order: required fields in sequence, then any suffix of
		// the optional fields in their canonical order.
		if i < len(required) {
			if name != required[i] {
				return k, fmt.Errorf("cell key: field %d is %q, want %q", i, name, required[i])
			}
		} else {
			pos := -1
			for j, opt := range optional {
				if opt == name {
					pos = j
				}
			}
			if pos == -1 {
				return k, fmt.Errorf("cell key: unknown field %q", name)
			}
			optional = optional[pos+1:] // each optional at most once, in order
		}
		assign(name, value)
	}
	if parseErr != nil {
		return CellKey{}, parseErr
	}
	if err := k.Validate(); err != nil {
		return CellKey{}, err
	}
	// Overrides that equal their zero value would have been omitted by
	// Canonical; round-trip exactness implies the parse is canonical.
	if got := k.Canonical(); got != s {
		return CellKey{}, fmt.Errorf("cell key: %q is not canonical (want %q)", s, got)
	}
	return k, nil
}
