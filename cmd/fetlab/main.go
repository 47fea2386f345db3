// Command fetlab runs the reproduction experiments (E01–E23), one per
// figure, theorem, lemma, design claim, or extension of the paper. See
// DESIGN.md §4 for the experiment index and EXPERIMENTS.md for recorded
// full-size results.
//
// Usage:
//
//	fetlab -list
//	fetlab -scenarios
//	fetlab -topologies
//	fetlab -run E01,E02 [-quick] [-seed 42] [-format text|markdown]
//	fetlab -all [-quick]
//	fetlab -run E16 -quick -cpuprofile cpu.pprof
//
// The grid-shaped experiments (E01, E13, E23) run through the root
// Sweep layer; -scenarios lists the scenario presets that Sweep (and
// the fetsweep tool) draw from.
//
// -cpuprofile, -memprofile and -trace write runtime/pprof CPU and heap
// profiles and a runtime/trace execution trace of the run; their
// messages go to stderr, so stdout is unchanged.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"passivespread"
	"passivespread/cmd/internal/prof"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list the experiments and exit")
		scenarios  = flag.Bool("scenarios", false, "list the sweep scenario presets and exit")
		topologies = flag.Bool("topologies", false, "list the observation-topology specs and exit")
		runIDs     = flag.String("run", "", "comma-separated experiment IDs to run (e.g. E01,E03)")
		all        = flag.Bool("all", false, "run every experiment")
		quick      = flag.Bool("quick", false, "reduced sweep sizes (CI scale)")
		seed       = flag.Uint64("seed", 42, "root random seed")
		format     = flag.String("format", "text", "output format: text or markdown")
		workers    = flag.Int("workers", 0, "concurrent trials (0 = all CPUs)")
	)
	profiles := prof.Register()
	flag.Parse()

	stop, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopProfiles = stop
	defer stop()

	if *list {
		for _, e := range passivespread.Experiments() {
			fmt.Printf("%s  %-55s  [%s]\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}
	if *scenarios {
		for _, sc := range passivespread.Scenarios() {
			fmt.Printf("%-18s %s\n", sc.Name, sc.Description)
		}
		return
	}
	if *topologies {
		for _, tp := range passivespread.TopologySpecs() {
			fmt.Printf("%-24s %s\n", tp.Spec, tp.Description)
		}
		fmt.Println("\nuse with `fetsim -topology <spec>` or `fetsweep -topologies <spec,...>`;")
		fmt.Println("agent engines, plus aggregate-sparse for the degree-annealed entries")
		fmt.Println("(random-regular, dynamic); aggregate and chain need uniform mixing")
		return
	}

	var ids []string
	switch {
	case *all:
		for _, e := range passivespread.Experiments() {
			ids = append(ids, e.ID)
		}
	case *runIDs != "":
		for _, id := range strings.Split(*runIDs, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -list, -all, or -run IDs")
		flag.Usage()
		exit(2)
	}

	cfg := passivespread.ExperimentConfig{Seed: *seed, Quick: *quick, Workers: *workers}
	failed := 0
	for _, id := range ids {
		e, ok := passivespread.LookupExperiment(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			failed++
			continue
		}
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			failed++
			continue
		}
		if *format == "markdown" {
			fmt.Println(passivespread.RenderExperimentMarkdown(rep))
		} else {
			fmt.Println(passivespread.RenderExperimentText(rep))
		}
	}
	if failed > 0 {
		exit(1)
	}
}

// stopProfiles ends the -cpuprofile/-memprofile/-trace capture; exit
// runs it before the process ends, since os.Exit skips deferred calls.
var stopProfiles = func() {}

func exit(code int) {
	stopProfiles()
	os.Exit(code)
}
