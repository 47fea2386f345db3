package passivespread

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"passivespread/internal/checkpoint"
)

// This file is the sweep fabric's shard protocol: the deterministic
// 1/m grid partition (Shard, ParseShard), the mergeable per-shard
// artifact (ShardArtifact), and the join/verify logic (MergeShards)
// behind cmd/fetmerge. The whole design leans on one fact: a cell's
// row is a pure function of its canonical cell key (the fetserve
// CellKey), so shards computed on different machines at different
// worker counts join into output byte-identical to a single runner —
// and every claim in an artifact is re-verifiable from content
// addresses alone.

// Shard selects a deterministic 1/m slice of a sweep grid. The zero
// value selects the whole grid. Index is 1-based: shard i of m owns
// every cell c (in expansion order) with c mod m == i−1, so cells
// round-robin across shards and heterogeneous cell costs balance.
// Sharding never re-seeds anything — cell indices, seeds, and keys are
// those of the full grid, which is what makes shard output mergeable.
type Shard struct {
	// Index is the 1-based shard number, in [1, Count].
	Index int
	// Count is the total number of shards, ≥ 1.
	Count int
}

// IsZero reports whether the shard is the whole-grid zero value.
func (sh Shard) IsZero() bool { return sh == Shard{} }

// String renders the canonical "i/m" form ("" for the zero value).
func (sh Shard) String() string {
	if sh.IsZero() {
		return ""
	}
	return strconv.Itoa(sh.Index) + "/" + strconv.Itoa(sh.Count)
}

// validate checks the invariants (typed: wraps ErrInvalidOptions).
func (sh Shard) validate() error {
	if sh.IsZero() {
		return nil
	}
	if sh.Count < 1 {
		return fmt.Errorf("%w: Shard: count %d, want ≥ 1", ErrInvalidOptions, sh.Count)
	}
	if sh.Index < 1 || sh.Index > sh.Count {
		return fmt.Errorf("%w: Shard: index %d out of range [1, %d]", ErrInvalidOptions, sh.Index, sh.Count)
	}
	return nil
}

// owns reports whether the shard executes grid cell c. The zero value
// owns every cell, and so does 1/1: m = 1 is exactly the unsharded
// sweep.
func (sh Shard) owns(c int) bool {
	return sh.IsZero() || c%sh.Count == sh.Index-1
}

// ParseShard parses the canonical "i/m" shard form strictly: two
// base-10 integers without leading zeros, 1 ≤ i ≤ m, so an accepted
// string always equals the parsed Shard's String. Anything else —
// empty parts, extra slashes, signs, spaces, leading zeros, zero or
// out-of-range indices — is rejected with a typed error wrapping
// ErrInvalidOptions.
func ParseShard(s string) (Shard, error) {
	is, ms, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("%w: Shard: %q, want \"i/m\"", ErrInvalidOptions, s)
	}
	parse := func(part string) (int, error) {
		v, err := strconv.Atoi(part)
		if err != nil || strconv.Itoa(v) != part {
			return 0, fmt.Errorf("%w: Shard: %q, want \"i/m\" with canonical base-10 integers", ErrInvalidOptions, s)
		}
		return v, nil
	}
	i, err := parse(is)
	if err != nil {
		return Shard{}, err
	}
	m, err := parse(ms)
	if err != nil {
		return Shard{}, err
	}
	sh := Shard{Index: i, Count: m}
	if sh.IsZero() {
		// The zero Shard means "unsharded" and has no "i/m" spelling.
		return Shard{}, fmt.Errorf("%w: Shard: %q, want \"i/m\" with 1 ≤ i ≤ m", ErrInvalidOptions, s)
	}
	if err := sh.validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// ShardArtifactVersion is the shard artifact schema version. Bump it
// whenever the envelope or row schema changes: MergeShards then
// rejects stale artifacts instead of joining them with new semantics.
const ShardArtifactVersion = "fetshard/v1"

// ShardArtifact is one shard runner's mergeable output: the grid
// header (full grid size, replicates, root seed) plus this shard's
// completed rows, each carrying its canonical cell key and the digest
// of its row JSON so fetmerge can verify agreement without re-running
// anything.
type ShardArtifact struct {
	// Version is the schema version (ShardArtifactVersion).
	Version string `json:"version"`
	// Shard is the canonical "i/m" form ("1/1" for a whole-grid run).
	Shard string `json:"shard"`
	// Cells is the full grid size — not this shard's share.
	Cells int `json:"cells"`
	// Replicates is the per-cell replicate count.
	Replicates int `json:"replicates"`
	// Seed is the sweep's root seed.
	Seed uint64 `json:"seed"`
	// Rows holds the shard's completed cells in cell-index order.
	Rows []ShardRow `json:"rows"`
}

// ShardRow is one cell's row plus its verifiable identity.
type ShardRow struct {
	// Cell is the cell's index in full-grid expansion order.
	Cell int `json:"cell"`
	// Key is the cell's canonical fetcell key.
	Key string `json:"key"`
	// Digest is the bare hex SHA-256 of Row's canonical JSON — the
	// same body bytes a checkpoint envelope stores.
	Digest string `json:"digest"`
	// Row is the aggregated outcome.
	Row SweepRow `json:"row"`

	// shardLabel records which artifact the row came from during a
	// merge, for error messages only (never serialized).
	shardLabel string
}

// sweepRowBody renders a row's canonical JSON body — the bytes that
// checkpoints persist and shard digests commit to.
func sweepRowBody(row SweepRow) ([]byte, error) {
	return json.Marshal(row)
}

// canonicalKeys resolves every grid cell's canonical cell-key string,
// in expansion order. It fails (typed, ErrInvalidOptions) when a cell
// is not expressible as a canonical key — e.g. a custom (non-preset)
// scenario whose name would not round-trip — because the fabric's
// durability and merge verification both hang off these keys.
func (s *Sweep) canonicalKeys() ([]string, error) {
	keys := s.CellKeys()
	out := make([]string, len(keys))
	for i, k := range keys {
		if err := k.Validate(); err != nil {
			return nil, fmt.Errorf("%w: Shard/CheckpointDir: cell %d: %v", ErrInvalidOptions, i, err)
		}
		out[i] = k.Canonical()
	}
	return out, nil
}

// ShardArtifact packages a report produced by this sweep into the
// mergeable artifact form. The report must come from this sweep's Run
// (rows are matched to cells by index and digested as-is).
func (s *Sweep) ShardArtifact(rep *SweepReport) (*ShardArtifact, error) {
	keys, err := s.canonicalKeys()
	if err != nil {
		return nil, err
	}
	sh := s.shard
	if sh.IsZero() {
		sh = Shard{Index: 1, Count: 1}
	}
	art := &ShardArtifact{
		Version:    ShardArtifactVersion,
		Shard:      sh.String(),
		Cells:      len(s.cells),
		Replicates: s.replicates,
		Seed:       s.seed,
		Rows:       make([]ShardRow, 0, len(rep.Rows)),
	}
	for _, row := range rep.Rows {
		if row.Cell < 0 || row.Cell >= len(keys) {
			return nil, fmt.Errorf("shard artifact: row cell %d outside grid of %d cells", row.Cell, len(keys))
		}
		body, err := sweepRowBody(row)
		if err != nil {
			return nil, fmt.Errorf("shard artifact: cell %d: %v", row.Cell, err)
		}
		art.Rows = append(art.Rows, ShardRow{
			Cell:   row.Cell,
			Key:    keys[row.Cell],
			Digest: checkpoint.HashHex(string(body)),
			Row:    row,
		})
	}
	return art, nil
}

// JSON renders the artifact in its canonical indented form (the bytes
// fetsweep -format shard emits and fetmerge consumes).
func (a *ShardArtifact) JSON() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// ParseShardArtifact parses an artifact rendered by ShardArtifact.JSON.
func ParseShardArtifact(data []byte) (*ShardArtifact, error) {
	var a ShardArtifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("passivespread: parsing shard artifact: %w", err)
	}
	if a.Version != ShardArtifactVersion {
		return nil, fmt.Errorf("passivespread: shard artifact version %q, want %q", a.Version, ShardArtifactVersion)
	}
	return &a, nil
}

// ErrShardMerge is the typed failure of MergeShards: artifacts that do
// not join into one complete, consistent grid — overlapping or missing
// shards, duplicate or uncovered cells, header disagreement, or (under
// full verification) a cell whose key or digest does not agree with
// its row.
var ErrShardMerge = errors.New("shard artifacts do not merge")

func mergeErrf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrShardMerge, fmt.Sprintf(format, args...))
}

// MergeShards joins shard artifacts into the single-runner report.
//
// Structural verification always runs: every artifact must carry the
// current schema version and agree on (cells, replicates, seed); the
// shard set must be exactly {1/m, …, m/m} with no duplicates (an
// overlapping or missing shard is a typed ErrShardMerge); every row
// must sit in its artifact's partition class; and the union of rows
// must cover every grid cell exactly once.
//
// With verify set, each row is additionally re-verified from content
// addresses: its canonical key must parse and agree field-by-field
// with the row it labels (n, ℓ, replicates, seed, scenario, engine,
// topology), and the recorded digest must equal the SHA-256 of the
// row's canonical JSON — so a bit-flipped or hand-edited artifact
// cannot merge silently.
//
// The merged report renders CSV and JSON byte-identical to the same
// grid run unsharded, because rows are the same bytes in the same cell
// order and both renderers are deterministic.
func MergeShards(artifacts []*ShardArtifact, verify bool) (*SweepReport, error) {
	if len(artifacts) == 0 {
		return nil, mergeErrf("no artifacts")
	}
	head := artifacts[0]
	m := 0
	seenShard := map[int]bool{}
	rowsByCell := map[int]ShardRow{}
	for ai, a := range artifacts {
		if a.Version != ShardArtifactVersion {
			return nil, mergeErrf("artifact %d: version %q, want %q", ai, a.Version, ShardArtifactVersion)
		}
		if a.Cells != head.Cells || a.Replicates != head.Replicates || a.Seed != head.Seed {
			return nil, mergeErrf("artifact %d (%s): grid header (cells=%d replicates=%d seed=%d) disagrees with artifact 0 (cells=%d replicates=%d seed=%d)",
				ai, a.Shard, a.Cells, a.Replicates, a.Seed, head.Cells, head.Replicates, head.Seed)
		}
		sh, err := ParseShard(a.Shard)
		if err != nil {
			return nil, mergeErrf("artifact %d: shard %q: %v", ai, a.Shard, err)
		}
		if m == 0 {
			m = sh.Count
		} else if sh.Count != m {
			return nil, mergeErrf("artifact %d: shard %s disagrees with count %d of artifact 0", ai, a.Shard, m)
		}
		if seenShard[sh.Index] {
			return nil, mergeErrf("overlapping shards: %s appears twice", a.Shard)
		}
		seenShard[sh.Index] = true
		for _, r := range a.Rows {
			if r.Cell < 0 || r.Cell >= a.Cells {
				return nil, mergeErrf("shard %s: cell %d outside grid of %d cells", a.Shard, r.Cell, a.Cells)
			}
			if !sh.owns(r.Cell) {
				return nil, mergeErrf("shard %s: cell %d belongs to shard %d/%d", a.Shard, r.Cell, r.Cell%m+1, m)
			}
			if prev, dup := rowsByCell[r.Cell]; dup {
				return nil, mergeErrf("overlapping coverage: cell %d appears in shard %s and again in shard %s", r.Cell, prev.shardLabel, a.Shard)
			}
			r.shardLabel = a.Shard
			if verify {
				if err := verifyShardRow(r); err != nil {
					return nil, err
				}
			}
			rowsByCell[r.Cell] = r
		}
	}
	for i := 1; i <= m; i++ {
		if !seenShard[i] {
			return nil, mergeErrf("missing shard %d/%d (%d of %d artifacts present)", i, m, len(artifacts), m)
		}
	}
	if len(rowsByCell) != head.Cells {
		missing := make([]string, 0, 4)
		for c := 0; c < head.Cells && len(missing) < 4; c++ {
			if _, ok := rowsByCell[c]; !ok {
				missing = append(missing, strconv.Itoa(c))
			}
		}
		return nil, mergeErrf("incomplete coverage: %d of %d cells present (first missing: %s) — a shard run was interrupted; resume it from its checkpoint directory",
			len(rowsByCell), head.Cells, strings.Join(missing, ", "))
	}
	rep := &SweepReport{Cells: head.Cells, Replicates: head.Replicates, Rows: make([]SweepRow, 0, head.Cells)}
	//fet:allow detrand: rows are collected then sorted by cell index below
	for _, r := range rowsByCell {
		rep.Rows = append(rep.Rows, r.Row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Cell < rep.Rows[j].Cell })
	return rep, nil
}

// verifyShardRow re-derives a row's content addresses and checks key ↔
// row agreement.
func verifyShardRow(r ShardRow) error {
	key, err := ParseCellKey(r.Key)
	if err != nil {
		return mergeErrf("cell %d (shard %s): key: %v", r.Cell, r.shardLabel, err)
	}
	row := r.Row
	if row.Cell != r.Cell {
		return mergeErrf("cell %d (shard %s): row labels itself cell %d", r.Cell, r.shardLabel, row.Cell)
	}
	if key.Scenario != row.Scenario || key.Engine != row.Engine || key.Topology != row.Topology ||
		key.N != row.N || key.Ell != row.Ell || key.Seed != row.Seed || key.Replicates != row.Replicates {
		return mergeErrf("cell %d (shard %s): key %q disagrees with its row (scenario=%s engine=%s topology=%s n=%d ell=%d seed=%d replicates=%d)",
			r.Cell, r.shardLabel, r.Key, row.Scenario, row.Engine, row.Topology, row.N, row.Ell, row.Seed, row.Replicates)
	}
	body, err := sweepRowBody(row)
	if err != nil {
		return mergeErrf("cell %d (shard %s): %v", r.Cell, r.shardLabel, err)
	}
	if got := checkpoint.HashHex(string(body)); got != r.Digest {
		return mergeErrf("cell %d (shard %s): digest %s does not match the row body (%s) — artifact corrupt or edited", r.Cell, r.shardLabel, r.Digest, got)
	}
	return nil
}
