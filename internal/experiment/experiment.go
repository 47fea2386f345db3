// Package experiment implements the reproduction harness: one
// experiment per figure, theorem, lemma, or design claim of the paper
// (see DESIGN.md §4 for the index). Each experiment produces a Report of
// named sections containing tables and/or text (ASCII maps), which the
// cmd/fetlab tool renders and EXPERIMENTS.md records.
package experiment

import (
	"context"
	"fmt"
	"runtime"

	"passivespread/internal/sched"
	"passivespread/internal/tablefmt"
)

// Config controls an experiment run.
type Config struct {
	// Seed is the root seed; every trial derives its own stream from it.
	Seed uint64
	// Quick shrinks sweeps and trial counts for CI and unit tests. The
	// full-size run is the one recorded in EXPERIMENTS.md.
	Quick bool
	// Smoke additionally caps the few Quick sweeps that still run for
	// tens of seconds (the heavy-tail configurations of E13 and E19) to a
	// bare smoke scale, so the package tests exercise every experiment
	// end-to-end without dominating `go test ./...`. Implies Quick;
	// results are exercised, not meaningful.
	Smoke bool
	// Workers bounds concurrent trials (0 = GOMAXPROCS).
	Workers int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Pick returns quick when Quick (or Smoke) is set, else full.
func Pick[T any](c Config, full, quick T) T {
	if c.Quick || c.Smoke {
		return quick
	}
	return full
}

// Section is one titled piece of a report.
type Section struct {
	// Name titles the section.
	Name string
	// Table holds tabular results (may be nil).
	Table *tablefmt.Table
	// Text holds free-form output such as ASCII maps (may be empty).
	Text string
}

// Report is the output of one experiment.
type Report struct {
	// ID is the experiment identifier, e.g. "E01".
	ID string
	// Title is a one-line description.
	Title string
	// PaperRef names the paper artifact being reproduced.
	PaperRef string
	// Sections holds the results in presentation order.
	Sections []Section
	// Notes holds free-form observations (paper-vs-measured commentary).
	Notes []string
}

// AddTable appends a table section.
func (r *Report) AddTable(name string, t *tablefmt.Table) {
	r.Sections = append(r.Sections, Section{Name: name, Table: t})
}

// AddText appends a text section.
func (r *Report) AddText(name, text string) {
	r.Sections = append(r.Sections, Section{Name: name, Text: text})
}

// AddNote appends a formatted note.
func (r *Report) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Experiment is one reproduction experiment.
type Experiment struct {
	// ID is the stable identifier ("E01" … "E23").
	ID string
	// Title is a one-line description.
	Title string
	// PaperRef names the reproduced artifact ("Theorem 1", "Figure 1a",…).
	PaperRef string
	// Run executes the experiment.
	Run func(cfg Config) (*Report, error)
}

// All returns this package's experiments sorted by ID. E01, E13 and
// E23 run through the public Sweep layer, so the module root lists them
// and merges the two tables. All is a function, not a variable, because
// each Run starts its report from its own entry here (NewReport).
func All() []Experiment {
	return []Experiment{
		{ID: "E02", Title: "Domain partition map of the grid G", PaperRef: "Figure 1a", Run: runE02},
		{ID: "E03", Title: "Empirical domain-transition diagram", PaperRef: "Figure 1b", Run: runE03},
		{ID: "E04", Title: "Yellow′ partition map and per-area escape behavior", PaperRef: "Figure 2", Run: runE04},
		{ID: "E05", Title: "Green area: one-round consensus", PaperRef: "Lemma 1", Run: runE05},
		{ID: "E06", Title: "Purple area: one round to Green", PaperRef: "Lemma 2", Run: runE06},
		{ID: "E07", Title: "Red area: geometric contraction and exit", PaperRef: "Lemma 3", Run: runE07},
		{ID: "E08", Title: "Cyan area: logarithmic bounce-back", PaperRef: "Lemma 4", Run: runE08},
		{ID: "E09", Title: "Yellow area: escape time and speed build-up", PaperRef: "Lemmas 5–11", Run: runE09},
		{ID: "E10", Title: "Coin-competition probabilities vs the paper's bounds", PaperRef: "Lemmas 12–15, Observation 1", Run: runE10},
		{ID: "E11", Title: "Majority bit-dissemination impossibility construction", PaperRef: "Section 1.2 (impossibility argument)", Run: runE11},
		{ID: "E12", Title: "Clocked phase-protocol baseline", PaperRef: "Section 1.4", Run: runE12},
		{ID: "E14", Title: "FET vs unpartitioned SimpleTrend", PaperRef: "Section 1.3 (design choice)", Run: runE14},
		{ID: "E15", Title: "Multiple agreeing sources", PaperRef: "Section 5 (extension)", Run: runE15},
		{ID: "E16", Title: "Engine cross-validation (exact, fast, sharded fast, occupancy, chain)", PaperRef: "DESIGN.md engine ablation", Run: runE16},
		{ID: "E17", Title: "Per-agent resource accounting", PaperRef: "Theorem 1 (memory and sample complexity)", Run: runE17},
		{ID: "E18", Title: "Consensus dynamics do not solve source-driven dissemination", PaperRef: "Section 1.4 related work (Voter, 3-Majority, Undecided-State)", Run: runE18},
		{ID: "E19", Title: "FET under noisy observations", PaperRef: "extension (noisy-communication models of the related work)", Run: runE19},
		{ID: "E20", Title: "Re-stabilization after the correct bit flips mid-run", PaperRef: "extension (§1.2: the correct value may change)", Run: runE20},
		{ID: "E21", Title: "Mean-field skeleton vs stochastic dynamics", PaperRef: "extension (the noise-driven escape behind Lemmas 7–10)", Run: runE21},
		{ID: "E22", Title: "Sequential (population-protocol) scheduling breaks the trend signal", PaperRef: "extension (negative result; cf. Angluin et al. 2006)", Run: runE22},
	}
}

// NewReport starts the Report of experiment id from its entry in table.
// An id missing from table is a programming error.
func NewReport(table []Experiment, id string) *Report {
	for _, e := range table {
		if e.ID == id {
			return &Report{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef}
		}
	}
	panic(fmt.Sprintf("experiment: no experiment %q in the table", id))
}

// parallelTimes runs trial ∈ [0, trials) across workers and collects
// f(trial) in trial order. f must be safe for concurrent use across
// distinct trial indices (each trial derives its own RNG stream).
func parallelTimes(cfg Config, trials int, f func(trial int) float64) []float64 {
	out := make([]float64, trials)
	sched.Run(context.Background(), cfg.workers(), trials, func(i int) { out[i] = f(i) })
	return out
}
