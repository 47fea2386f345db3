package passivespread

import (
	"fmt"

	"passivespread/internal/topo"
)

// Topology selects the observation topology of a run: who each agent can
// observe each round. The paper's model — and the default everywhere a
// Topology is nil — is Complete: uniform mixing over the whole
// population, the assumption under which Theorem 1 and the aggregate
// engines are exact. The non-complete topologies restrict every agent's
// observations to a fixed (or per-round rewired) out-neighbor set,
// turning "does FET's self-stabilizing trend-following survive
// structure?" into a sweepable experimental axis (see DESIGN.md §5).
//
// Determinism is preserved on every topology: graphs build from the
// run seed via the repository's SplitMix64 stream rule, per-round
// rewiring derives from (seed, round, agent) alone, and sharded rounds
// stay bit-identical at any Parallelism. Engine support: the agent
// engines (fast, exact) run every topology; EngineAggregate and EngineMarkovChain
// are exact only under uniform mixing and reject non-complete
// topologies up front with ErrInvalidOptions.
type Topology = topo.Topology

// CompleteTopology returns the default uniform-mixing topology: every
// agent observes the whole population (the paper's model).
func CompleteTopology() Topology { return topo.Complete() }

// Ring returns the cycle topology: agent i observes its k nearest
// neighbors on each side (out-degree 2k). Requires 2k ≤ N−1.
func Ring(k int) Topology { return topo.Ring(k) }

// Torus returns the √N × √N wraparound-grid topology with the von
// Neumann (4-neighbor) observation set. Requires N to be a perfect
// square with side ≥ 3.
func Torus() Topology { return topo.Torus() }

// RandomRegular returns the random k-out observation digraph: every
// agent observes a fixed set of k distinct uniformly random other
// agents (out-degree exactly k, in-degrees Binomial). Requires k ≤ N−1.
func RandomRegular(k int) Topology { return topo.RandomRegular(k) }

// SmallWorld returns the Watts–Strogatz small-world topology: the
// Ring(k) base with every out-edge independently rewired to a uniformly
// random target with probability beta ∈ [0, 1]. beta = 0 is exactly
// Ring(k); beta = 1 approaches a random 2k-out digraph.
func SmallWorld(k int, beta float64) Topology { return topo.SmallWorld(k, beta) }

// DynamicRewire returns the dynamic topology: a random k-out base graph
// where, independently every round, each agent's out-neighbor set is
// resampled with probability p ∈ [0, 1] (p = 1 redraws the whole graph
// every round). The round-t neighbors of agent i derive from
// (seed, t, i) alone, so results stay bit-identical at any parallelism.
func DynamicRewire(k int, p float64) Topology { return topo.DynamicRewire(k, p) }

// ParseTopology returns the topology selected by a CLI-style spec with
// strict validation (malformed specs error, never default silently):
//
//	complete
//	ring[:k]                 (default k = 2)
//	torus
//	random-regular[:k]       (default k = 8)
//	small-world[:k[:beta]]   (defaults k = 4, beta = 0.1)
//	dynamic[:k[:p]]          (defaults k = 8, p = 0.1)
//
// ParseTopology(t.Name()) reconstructs t, so topology names round-trip
// through sweep CSV/JSON artifacts. Errors wrap ErrInvalidOptions.
func ParseTopology(spec string) (Topology, error) {
	t, err := topo.Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	return t, nil
}

// TopologyName returns t's canonical parseable name, mapping the nil
// default to "complete".
func TopologyName(t Topology) string { return topo.DisplayName(t) }

// TopologySpec is one topology family's parseable grammar plus a
// one-line summary, for CLI listings.
type TopologySpec = topo.Spec

// TopologySpecs returns the built-in topology families in listing
// order — the single source of truth behind `fetlab -topologies`.
func TopologySpecs() []TopologySpec { return topo.Specs() }
