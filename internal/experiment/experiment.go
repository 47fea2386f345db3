// Package experiment implements the reproduction harness: one registered
// experiment per figure, theorem, lemma, or design claim of the paper
// (see DESIGN.md §4 for the index). Each experiment produces a Report of
// named sections containing tables and/or text (ASCII maps), which the
// cmd/fetlab tool renders and EXPERIMENTS.md records.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

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

// pick returns quick when Quick (or Smoke) is set, else full.
func pick[T any](c Config, full, quick T) T {
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

// Experiment is a registered reproduction experiment.
type Experiment struct {
	// ID is the stable identifier ("E01" … "E18").
	ID string
	// Title is a one-line description.
	Title string
	// PaperRef names the reproduced artifact ("Theorem 1", "Figure 1a",…).
	PaperRef string
	// Run executes the experiment.
	Run func(cfg Config) (*Report, error)
}

var (
	registryMu sync.Mutex
	registry   = map[string]Experiment{}
)

// Register adds an experiment to the global registry; it panics on a
// duplicate ID (a programming error). Most experiments self-register
// from this package's init functions; the sweep-based experiments (E01,
// E13) are registered by the module root, which owns the Sweep layer
// they build on.
func Register(e Experiment) { register(e) }

// register adds an experiment to the global registry; it panics on
// duplicate IDs (a programming error).
func register(e Experiment) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiment: duplicate ID %q", e.ID))
	}
	registry[e.ID] = e
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]Experiment, 0, len(registry))
	//fet:allow detrand: entries are collected then sorted by ID below
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	registryMu.Lock()
	defer registryMu.Unlock()
	e, ok := registry[id]
	return e, ok
}

// newReport seeds a Report from the experiment metadata.
func newReport(e Experiment) *Report {
	return &Report{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef}
}

// parallelTimes runs trial ∈ [0, trials) across workers and collects
// f(trial) in trial order. f must be safe for concurrent use across
// distinct trial indices (each trial derives its own RNG stream).
func parallelTimes(cfg Config, trials int, f func(trial int) float64) []float64 {
	out := make([]float64, trials)
	sched.Run(context.Background(), cfg.workers(), trials, func(i int) { out[i] = f(i) })
	return out
}
