package passivespread

import (
	"passivespread/internal/adversary"
	"passivespread/internal/clocked"
	"passivespread/internal/domain"
	"passivespread/internal/dynamics"
	"passivespread/internal/stats"
	"passivespread/internal/tablefmt"
	"passivespread/internal/trace"
)

// This file re-exports the analysis and presentation toolkit that the
// CLI tools and examples build on, so that nothing outside this module
// root ever imports an internal package: the paper's state-space
// geometry (domain), trajectory annotation (trace), baseline protocols
// (dynamics, clocked), statistics, and table rendering.

// State-space geometry of the paper's analysis (Figures 1a and 2).
type (
	// DomainParams fixes the population-dependent constants of the
	// domain partition; methods classify and render the grid.
	DomainParams = domain.Params
	// DomainKind is one colored domain of Figure 1a.
	DomainKind = domain.Kind
	// DomainArea is one A/B/C area of the Yellow′ box (Figure 2).
	DomainArea = domain.Area
)

// DefaultDelta is the paper's default δ margin.
const DefaultDelta = domain.DefaultDelta

// NewDomainParams returns the partition parameters for population n with
// the default δ.
func NewDomainParams(n int) DomainParams { return domain.NewParams(n) }

// DomainKinds lists every domain kind in rendering order.
func DomainKinds() []DomainKind { return domain.Kinds() }

// Trajectory annotation: each round of a trajectory classified by the
// domain of its (x_t, x_{t+1}) state.
type (
	// Trace is a domain-annotated trajectory.
	Trace = trace.Trace
	// TracePoint is one annotated round.
	TracePoint = trace.Point
)

// TraceFromTrajectory annotates a recorded trajectory (x_0 … x_T) with
// the domain geometry; x0 is the emulated round-(−1) fraction.
func TraceFromTrajectory(p DomainParams, x0 float64, xs []float64) *Trace {
	return trace.FromTrajectory(p, x0, xs)
}

// GridStart places a simulation at a chosen grid point (x_t, x_{t+1}) by
// combining a fraction initializer (Init) with a binomial memory law
// (Memory).
type GridStart = adversary.GridStart

// Baseline protocols from the paper's related-work comparisons.

// Voter returns the voter-model dynamics (adopt one sampled opinion).
func Voter() Protocol { return dynamics.Voter{} }

// ThreeMajority returns the 3-majority dynamics.
func ThreeMajority() Protocol { return dynamics.ThreeMajority{} }

// UndecidedState returns the undecided-state dynamics.
func UndecidedState() Protocol { return dynamics.Undecided{} }

// The Section 1.4 clocked phase-protocol baseline.
type (
	// ClockedConfig configures a clocked baseline run.
	ClockedConfig = clocked.Config
	// ClockedResult reports a clocked baseline outcome.
	ClockedResult = clocked.Result
	// ClockedMode selects the clock model.
	ClockedMode = clocked.Mode
)

// Clock models of the clocked baseline.
const (
	ModeSharedClock = clocked.ModeSharedClock
	ModeLocalClocks = clocked.ModeLocalClocks
)

// RunClocked executes the clocked phase-protocol baseline.
func RunClocked(cfg ClockedConfig) (ClockedResult, error) { return clocked.Run(cfg) }

// Statistics used when post-processing study results.

// PolylogFit reports a t ≈ a·(ln n)^b least-squares fit.
type PolylogFit = stats.PolylogFit

// Summarize computes descriptive statistics of a sample.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// FitPolylog fits times[i] ≈ a·(ln ns[i])^b — the Theorem 1 shape check.
func FitPolylog(ns []int, times []float64) PolylogFit { return stats.FitPolylog(ns, times) }

// Table renders aligned text / Markdown / CSV tables.
type Table = tablefmt.Table

// NewTable returns an empty table with the given header.
func NewTable(header ...string) *Table { return tablefmt.New(header...) }
