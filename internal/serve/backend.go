package serve

import "context"

// Tier classifies how an uncached key is answered.
type Tier int

const (
	// TierExact keys run inline in the request handler: the chain and
	// aggregate(-sparse) engines answer a full cell in microseconds to
	// milliseconds, cheaper than a queue round-trip.
	TierExact Tier = iota
	// TierFallback keys run agent-level replicates (or custom-runner
	// scenarios): seconds of work, dispatched to the bounded worker
	// pool, with streamed progress available.
	TierFallback
)

// String names the tier for the X-Fetserve-Tier response header.
func (t Tier) String() string {
	if t == TierExact {
		return "exact"
	}
	return "fallback"
}

// Query is the wire shape of a fet.study.run / fet.study.get cell
// query. Zero fields select defaults; the Backend resolves every
// default into the canonical CellKey, which is the response's (and the
// cache's) sole identity.
type Query struct {
	// Scenario is a scenario preset name ("" = worst-case).
	Scenario string `json:"scenario,omitempty"`
	// Engine is an engine name, parse form or canonical display form
	// ("" = the fastest engine that answers the scenario exactly).
	Engine string `json:"engine,omitempty"`
	// Topology is a ParseTopology spec ("" = the scenario's pinned
	// topology, or complete).
	Topology string `json:"topology,omitempty"`
	// N is the population size including sources (required).
	N int `json:"n"`
	// Ell is the per-half sample size (0 = ⌈3·log₂ n⌉).
	Ell int `json:"ell,omitempty"`
	// Replicates is the number of independent runs (0 = server default).
	Replicates int `json:"replicates,omitempty"`
	// MaxRounds is the per-replicate round cap (0 = 400·log₂ n).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Seed is the cell's root seed (0 is a valid seed and the default).
	Seed uint64 `json:"seed,omitempty"`
	// Sources, NoiseEps and FlipFrac override the scenario preset's
	// corresponding fields (0 = keep the preset's value).
	Sources  int     `json:"sources,omitempty"`
	NoiseEps float64 `json:"noise_eps,omitempty"`
	FlipFrac float64 `json:"flip_frac,omitempty"`
}

// SweepQuery is the wire shape of fet.sweep.inspect: the axes of a
// SweepSpec by name/value, expanded without running anything.
type SweepQuery struct {
	Scenarios  []string `json:"scenarios,omitempty"`
	Engines    []string `json:"engines,omitempty"`
	Topologies []string `json:"topologies,omitempty"`
	Ns         []int    `json:"ns"`
	Ells       []int    `json:"ells,omitempty"`
	Replicates int      `json:"replicates,omitempty"`
	MaxRounds  int      `json:"max_rounds,omitempty"`
	Seed       uint64   `json:"seed,omitempty"`
}

// InspectedCell is one planned sweep cell: its grid identity plus its
// canonical key and content address. Cached is filled by the server.
type InspectedCell struct {
	Index    int    `json:"index"`
	Scenario string `json:"scenario"`
	Engine   string `json:"engine"`
	Topology string `json:"topology"`
	N        int    `json:"n"`
	Ell      int    `json:"ell"`
	Seed     uint64 `json:"seed"`
	Key      string `json:"key"`
	Hash     string `json:"hash"`
	Cached   bool   `json:"cached"`
}

// Inspection is the fet.sweep.inspect response payload.
type Inspection struct {
	Cells      int             `json:"cells"`
	Replicates int             `json:"replicates"`
	Rows       []InspectedCell `json:"rows"`
}

// ScenarioInfo is one listing entry of fet.scenarios.list.
type ScenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Engine is the custom-runner engine label, when the scenario
	// schedules itself ("" for synchronous-engine scenarios).
	Engine string `json:"engine,omitempty"`
	// Topology is the scenario's pinned topology, if any.
	Topology string `json:"topology,omitempty"`
}

// TopologyInfo is one topology-family listing entry.
type TopologyInfo struct {
	Spec        string `json:"spec"`
	Description string `json:"description"`
}

// Listings is the fet.scenarios.list response payload: every axis a
// query can name, each sorted so the listing is stable for docs and
// golden tests.
type Listings struct {
	Scenarios  []ScenarioInfo `json:"scenarios"`
	Engines    []string       `json:"engines"`
	Topologies []TopologyInfo `json:"topologies"`
}

// Backend is everything the server needs from the simulation layers.
// The root passivespread package implements it over the Study API and
// the scenario presets; tests substitute deterministic fakes.
//
// Run's contract carries the subsystem's correctness story: the
// returned body must be a pure function of the key — byte-identical
// across calls, processes, and worker counts — because it is cached
// under the key's content address and replayed verbatim.
type Backend interface {
	// Resolve canonicalizes a query into its cell key, resolving every
	// default and validating. Failures are *Error values
	// (invalidArgument, or notFound for an unknown scenario).
	Resolve(q Query) (CellKey, error)

	// Tier classifies how an uncached key is executed.
	Tier(k CellKey) Tier

	// Run executes the key's study and returns the canonical answer
	// body. progress, when non-nil, is called from the run's goroutine
	// as replicates finish (monotone done ∈ [0, total]).
	Run(ctx context.Context, k CellKey, progress func(done, total int)) ([]byte, error)

	// Inspect expands a sweep grid into its planned cells and keys
	// without running anything.
	Inspect(q SweepQuery) (*Inspection, error)

	// Listings returns the sorted scenario/engine/topology listings.
	Listings() Listings
}
