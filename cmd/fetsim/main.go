// Command fetsim runs population simulations and prints the convergence
// outcome, optionally with the full x_t trajectory or, with -replicates,
// an aggregate study over many seeded runs.
//
// Usage:
//
//	fetsim -n 1024 [-protocol fet] [-init all-wrong] [-seed 1] [-trajectory]
//	fetsim -n 100000000 -engine aggregate
//	fetsim -n 1000000 [-parallelism 8]
//	fetsim -n 4096 -replicates 100 [-workers 8]
//	fetsim -n 1000000000 -engine chain -replicates 50
//	fetsim -n 4096 -topology small-world:4:0.1 [-replicates 20]
//	fetsim -n 100000000 -engine aggregate-sparse -topology random-regular:8
//	fetsim -n 1024 -topology ring:2 -trajectory
//	fetsim -n 4096 -replicates 640 -cpuprofile cpu.pprof
//
// -topology selects the observation topology (default complete, the
// paper's uniform mixing): ring[:k], torus, random-regular[:k],
// small-world[:k[:beta]] or dynamic[:k[:p]]. Non-complete topologies
// run on the agent engines (fast, exact), plus
// aggregate-sparse for the degree-annealed ones (random-regular,
// dynamic), which reaches n = 10⁸ the way aggregate does under
// uniform mixing.
//
// -engine also takes the display names that the output's engine line
// reports (agent-fast, agent-exact, markov-chain).
//
// -workers bounds the replicate pool, as in fetsweep, fetserve and
// fetlab; -parallelism shards each replicate's rounds (fast and exact),
// bit-identical at any value. The removed -jobs flag and -engine
// parallel exit 2 naming their replacements (-workers; -engine fast
// with -parallelism).
//
// -cpuprofile, -memprofile and -trace write runtime/pprof CPU and heap
// profiles and a runtime/trace execution trace of the run; their
// messages go to stderr, so stdout is unchanged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"passivespread"
	"passivespread/cmd/internal/prof"
)

func main() {
	var (
		n          = flag.Int("n", 1024, "population size (including sources)")
		ell        = flag.Int("ell", 0, "per-half sample size ℓ (0 = ⌈3·log₂ n⌉)")
		protocol   = flag.String("protocol", "fet", "protocol: fet, simple, voter, 3maj, undecided")
		initName   = flag.String("init", "all-wrong", "initial config: all-wrong, uniform, half, fraction=<x>")
		correct    = flag.Int("correct", 1, "the source's opinion (0 or 1)")
		sources    = flag.Int("sources", 1, "number of agreeing sources")
		seed       = flag.Uint64("seed", 1, "random seed")
		rounds     = flag.Int("rounds", 0, "round cap (0 = 400·log₂ n)")
		engine     = flag.String("engine", "fast", "engine: fast, exact, aggregate, aggregate-sparse or chain (or a display name such as agent-fast)")
		topology   = flag.String("topology", "complete", "observation topology: complete, ring[:k], torus, random-regular[:k], small-world[:k[:beta]], dynamic[:k[:p]]")
		shards     = flag.Int("parallelism", 0, "shards per round of an agent engine (0 or 1 = one)")
		replicates = flag.Int("replicates", 1, "number of replicate runs (a study when > 1)")
		workers    = flag.Int("workers", 0, "concurrent replicates (0 = GOMAXPROCS)")
		traj       = flag.Bool("trajectory", false, "print x_t per round")
	)
	flag.Func("jobs", "removed: use -workers", func(string) error {
		return errors.New("-jobs is removed: use -workers for the replicate pool")
	})
	profiles := prof.Register()
	flag.Parse()

	stop, err := profiles.Start()
	if err != nil {
		fatalf("%v", err)
	}
	stopProfiles = stop
	defer stop()

	if *correct != 0 && *correct != 1 {
		fatalf("-correct must be 0 or 1")
	}
	if *replicates > 1 && *traj {
		fatalf("-trajectory requires -replicates 1")
	}
	correctBit := byte(*correct)

	engineKind, err := passivespread.ParseEngine(*engine)
	if err != nil {
		fatalf("%v", err)
	}

	topoKind, err := passivespread.ParseTopology(*topology)
	if err != nil {
		fatalf("%v", err)
	}
	if passivespread.TopologyName(topoKind) == "complete" {
		topoKind = nil // the default: no topology layer in the config
	}

	init, err := parseInit(*initName, correctBit)
	if err != nil {
		fatalf("%v", err)
	}

	proto, err := parseProtocol(*protocol, *ell, *n)
	if err != nil {
		fatalf("%v", err)
	}
	var (
		study     *passivespread.Study
		protoName = proto.Name()
		initLabel = init.Name()
	)
	if engineKind == passivespread.EngineMarkovChain {
		// The chain engine runs through the Options form of a study: FET
		// only, opinion-symmetric, deterministic-fraction starts.
		if *protocol != "fet" {
			fatalf("-engine chain supports only -protocol fet")
		}
		study, err = passivespread.NewStudy(passivespread.StudySpec{
			Replicates: *replicates,
			Workers:    *workers,
			Options: passivespread.Options{
				N:                *n,
				Ell:              *ell,
				Seed:             *seed,
				CorrectZero:      correctBit == passivespread.OpinionZero,
				Sources:          *sources,
				Init:             init,
				MaxRounds:        *rounds,
				Engine:           engineKind,
				Topology:         topoKind,
				RecordTrajectory: *traj,
			},
		})
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		cfg := passivespread.Config{
			N:                *n,
			Sources:          *sources,
			Correct:          correctBit,
			Protocol:         proto,
			Init:             init,
			Seed:             *seed,
			MaxRounds:        *rounds,
			Engine:           engineKind,
			Parallelism:      *shards,
			Topology:         topoKind,
			Memory:           passivespread.Memory{Law: passivespread.MemoryUniform},
			RecordTrajectory: *traj,
		}
		if cfg.MaxRounds == 0 {
			cfg.MaxRounds = passivespread.DefaultMaxRounds(*n)
		}
		study, err = passivespread.NewStudy(passivespread.StudySpec{
			Replicates: *replicates,
			Workers:    *workers,
			Config:     &cfg,
		})
		if err != nil {
			fatalf("%v", err)
		}
	}

	fmt.Printf("protocol   %s\n", protoName)
	fmt.Printf("population %d (%d source(s), correct opinion %d)\n", *n, *sources, correctBit)
	fmt.Printf("init       %s\n", initLabel)
	fmt.Printf("engine     %s, seed %d\n", passivespread.EngineName(engineKind), *seed)
	if topoKind != nil {
		// Printed only off the uniform-mixing default, so existing
		// complete-topology invocations stay byte-identical.
		fmt.Printf("topology   %s\n", passivespread.TopologyName(topoKind))
	}

	report, err := study.Run(context.Background())
	if err != nil {
		fatalf("%v", err)
	}

	if *replicates > 1 {
		conv := report.Convergence
		fmt.Printf("replicates %d across %d workers\n", study.Replicates(), study.Workers())
		fmt.Printf("converged  %d/%d (%.1f%%)\n", conv.Converged, conv.Replicates, 100*conv.SuccessRate)
		fmt.Printf("t_con      mean %.1f, median %.1f, p95 %.1f, max %.0f\n",
			conv.Rounds.Mean, conv.Rounds.Median, conv.Rounds.P95, conv.Rounds.Max)
		if conv.Converged < conv.Replicates {
			exit(1)
		}
		return
	}

	res := report.Results[0].Result
	if res.Converged {
		fmt.Printf("converged  yes: t_con = %d (of %d executed rounds)\n", res.Round, res.Rounds)
	} else {
		fmt.Printf("converged  no within %d rounds (final x = %.4f)\n", res.Rounds, res.FinalX)
	}
	if *traj {
		for t, x := range res.Trajectory {
			fmt.Printf("x[%4d] = %.5f %s\n", t, x, bar(x, 50))
		}
	}
	if !res.Converged {
		exit(1)
	}
}

func parseProtocol(name string, ell, n int) (passivespread.Protocol, error) {
	sampleEll := ell
	if sampleEll == 0 {
		sampleEll = passivespread.SampleSize(n)
	}
	switch name {
	case "fet":
		return passivespread.NewFET(sampleEll), nil
	case "simple":
		return passivespread.NewSimpleTrend(sampleEll), nil
	case "voter":
		return passivespread.Voter(), nil
	case "3maj":
		return passivespread.ThreeMajority(), nil
	case "undecided":
		return passivespread.UndecidedState(), nil
	default:
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
}

func parseInit(name string, correct byte) (passivespread.Initializer, error) {
	switch {
	case name == "all-wrong":
		return passivespread.AllWrong(correct), nil
	case name == "uniform":
		return passivespread.UniformInit(), nil
	case name == "half":
		return passivespread.HalfInit(), nil
	case strings.HasPrefix(name, "fraction="):
		x, err := strconv.ParseFloat(strings.TrimPrefix(name, "fraction="), 64)
		if err != nil || x < 0 || x > 1 {
			return nil, fmt.Errorf("bad fraction in %q", name)
		}
		return passivespread.FractionInit(x), nil
	default:
		return nil, fmt.Errorf("unknown init %q", name)
	}
}

func bar(x float64, width int) string {
	filled := int(x * float64(width))
	return "[" + strings.Repeat("#", filled) + strings.Repeat(".", width-filled) + "]"
}

// stopProfiles ends the -cpuprofile/-memprofile/-trace capture; exit runs it
// before the process ends, since os.Exit skips deferred calls.
var stopProfiles = func() {}

func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	exit(2)
}
