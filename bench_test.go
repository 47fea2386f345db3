package passivespread

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"passivespread/internal/checkpoint"
	"passivespread/internal/core"
	"passivespread/internal/dist"
)

// benchExperiment runs one experiment per iteration in Quick
// mode. Each experiment reproduces one table/figure/lemma of the paper
// (see DESIGN.md §4); the full-size outputs recorded in EXPERIMENTS.md
// come from `fetlab -full`.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := LookupExperiment(id)
	if !ok {
		b.Fatalf("no experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(ExperimentConfig{Seed: uint64(i) + 1, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Sections) == 0 && len(rep.Notes) == 0 {
			b.Fatalf("%s produced an empty report", id)
		}
	}
}

func BenchmarkE01ConvergenceScaling(b *testing.B) { benchExperiment(b, "E01") }
func BenchmarkE02DomainMap(b *testing.B)          { benchExperiment(b, "E02") }
func BenchmarkE03TransitionDiagram(b *testing.B)  { benchExperiment(b, "E03") }
func BenchmarkE04YellowPartition(b *testing.B)    { benchExperiment(b, "E04") }
func BenchmarkE05Green(b *testing.B)              { benchExperiment(b, "E05") }
func BenchmarkE06Purple(b *testing.B)             { benchExperiment(b, "E06") }
func BenchmarkE07Red(b *testing.B)                { benchExperiment(b, "E07") }
func BenchmarkE08Cyan(b *testing.B)               { benchExperiment(b, "E08") }
func BenchmarkE09YellowEscape(b *testing.B)       { benchExperiment(b, "E09") }
func BenchmarkE10CoinBounds(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11Impossibility(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12ClockedBaseline(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13SampleAblation(b *testing.B)     { benchExperiment(b, "E13") }
func BenchmarkE14FETvsSimple(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15MultiSource(b *testing.B)        { benchExperiment(b, "E15") }
func BenchmarkE16Engines(b *testing.B)            { benchExperiment(b, "E16") }
func BenchmarkE17Resources(b *testing.B)          { benchExperiment(b, "E17") }
func BenchmarkE18Baselines(b *testing.B)          { benchExperiment(b, "E18") }

// Extensions beyond the paper (E19–E22; see DESIGN.md §4).

func BenchmarkE19NoiseRobustness(b *testing.B) { benchExperiment(b, "E19") }
func BenchmarkE20Restabilization(b *testing.B) { benchExperiment(b, "E20") }
func BenchmarkE21MeanField(b *testing.B)       { benchExperiment(b, "E21") }
func BenchmarkE22AsyncScheduling(b *testing.B) { benchExperiment(b, "E22") }

// Micro-benchmarks of the performance-critical primitives.

// BenchmarkFETFullRun measures a complete dissemination at n = 4096 from
// the all-wrong start (the headline operation of the library).
func BenchmarkFETFullRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Disseminate(Options{N: 4096, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkFETRoundByN measures the per-round cost of the agent engine.
func BenchmarkFETRoundByN(b *testing.B) {
	for _, n := range []int{1024, 16384, 131072} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ell := SampleSize(n)
			rounds := 0
			res, err := Run(Config{
				N:         n,
				Protocol:  NewFET(ell),
				Init:      FractionInit(0.5),
				Correct:   OpinionOne,
				Seed:      1,
				MaxRounds: b.N,
				RunToEnd:  true,
				Observers: []Observer{ObserverFunc(func(RoundEvent) error {
					rounds++
					return nil
				})},
			})
			if err != nil {
				b.Fatal(err)
			}
			_ = res
			b.ReportMetric(float64(n), "agents/round")
		})
	}
}

// BenchmarkEngineRound compares the per-round cost of the sequential
// fast engine, the fast engine sharded across GOMAXPROCS workers (the
// historical "parallel" row), and the aggregate occupancy engine at
// n ∈ {10⁴, 10⁶}. The fast rows observe through 1% noise: a noiseless
// run absorbs within a few dozen rounds, after which the trend executor
// skips every round in tens of nanoseconds, while a noisy one stays
// live. Recorded results live in BENCH_engines.json.
func BenchmarkEngineRound(b *testing.B) {
	engines := []struct {
		name  string
		kind  EngineKind
		par   int
		noise float64
	}{
		{"fast", EngineAgentFast, 0, 0.01},
		{"parallel", EngineAgentFast, runtime.GOMAXPROCS(0), 0.01},
		{"aggregate", EngineAggregate, 0, 0},
	}
	for _, n := range []int{10_000, 1_000_000} {
		for _, eng := range engines {
			b.Run(fmt.Sprintf("n=%d/%s", n, eng.name), func(b *testing.B) {
				ell := SampleSize(n)
				res, err := Run(Config{
					N:           n,
					Protocol:    NewFET(ell),
					Init:        FractionInit(0.5),
					Correct:     OpinionOne,
					Engine:      eng.kind,
					Parallelism: eng.par,
					NoiseEps:    eng.noise,
					Seed:        1,
					MaxRounds:   b.N,
					RunToEnd:    true,
					Observers: []Observer{ObserverFunc(func(ev RoundEvent) error {
						if ev.Round == 0 {
							// Exclude the O(n) population construction from
							// the per-round measurement (the aggregate
							// engine's setup is O(ℓ), which would otherwise
							// skew the comparison in its favor even further).
							b.ResetTimer()
						}
						return nil
					})},
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = res
				b.ReportMetric(float64(n), "agents/round")
			})
		}
	}
}

// BenchmarkTopologyStep measures the per-round cost of the agent engine
// across observation topologies at n = 10⁴: complete keeps the
// tabulated-binomial fast path (the pre-topology cost), the graph
// topologies pay literal neighbor reads, and dynamic rewiring adds the
// per-agent row-resampling stream. The complete row observes through 1%
// noise, as BenchmarkEngineRound's fast rows do, so every timed round is
// live rather than a skipped absorbed one; noise would move the graph
// rows off the graph round, so they stay noiseless. Recorded results
// live in BENCH_topology.json and are gated by the benchgate CI job.
func BenchmarkTopologyStep(b *testing.B) {
	topologies := []struct {
		name   string
		tp     Topology
		engine EngineKind
		noise  float64
	}{
		{"complete", nil, EngineAgentFast, 0.01},
		{"random-regular", RandomRegular(8), EngineAgentFast, 0},
		{"small-world", SmallWorld(4, 0.1), EngineAgentFast, 0},
		{"dynamic", DynamicRewire(8, 0.2), EngineAgentFast, 0},
		// The occupancy-level sparse engine on the same random k-out
		// graph: per-round cost is O(k·ℓ²), independent of n.
		{"aggregate-sparse", RandomRegular(8), EngineAggregateSparse, 0},
	}
	n := 10_000 // 100²: admissible for every built-in topology
	for _, tc := range topologies {
		b.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(b *testing.B) {
			ell := SampleSize(n)
			res, err := Run(Config{
				N:         n,
				Protocol:  NewFET(ell),
				Init:      FractionInit(0.5),
				Correct:   OpinionOne,
				Engine:    tc.engine,
				Topology:  tc.tp,
				NoiseEps:  tc.noise,
				Seed:      1,
				MaxRounds: b.N,
				RunToEnd:  true,
				Observers: []Observer{ObserverFunc(func(ev RoundEvent) error {
					if ev.Round == 0 {
						// Exclude population and graph construction from the
						// per-round measurement.
						b.ResetTimer()
					}
					return nil
				})},
			})
			if err != nil {
				b.Fatal(err)
			}
			_ = res
			b.ReportMetric(float64(n), "agents/round")
		})
	}
}

// BenchmarkReplicateAlloc measures the steady-state round loop of the
// agent engines with allocation reporting: after the bitset/pooling
// overhaul the loop runs at 0 allocs/round (packed opinions, in-place
// binomial retabulation, executor-owned parallel scratch, persistent
// shard workers), which the CI allocation gate enforces on this
// benchmark's allocs/op. The complete-graph rows observe through 1%
// noise so every timed round is live, not a skipped absorbed one.
// Timing baselines live in BENCH_hotpath.json.
func BenchmarkReplicateAlloc(b *testing.B) {
	engines := []struct {
		name  string
		kind  EngineKind
		par   int
		tp    Topology
		noise float64
	}{
		{"fast", EngineAgentFast, 0, nil, 0.01},
		{"parallel", EngineAgentFast, 4, nil, 0.01},
		// The graph round: rows packed per opinion word and counted in
		// place must stay allocation-free in the steady state.
		{"fast-random-regular", EngineAgentFast, 0, RandomRegular(8), 0},
	}
	n := 16384
	for _, eng := range engines {
		b.Run(fmt.Sprintf("n=%d/%s", n, eng.name), func(b *testing.B) {
			b.ReportAllocs()
			ell := SampleSize(n)
			res, err := Run(Config{
				N:           n,
				Protocol:    NewFET(ell),
				Init:        FractionInit(0.5),
				Correct:     OpinionOne,
				Engine:      eng.kind,
				Parallelism: eng.par,
				Topology:    eng.tp,
				NoiseEps:    eng.noise,
				Seed:        1,
				MaxRounds:   b.N,
				RunToEnd:    true,
				Observers: []Observer{ObserverFunc(func(ev RoundEvent) error {
					if ev.Round == 0 {
						// Exclude replicate setup (population build, worker
						// spawn, table growth) so allocs/op and ns/op report
						// the steady-state per-round cost.
						b.ResetTimer()
					}
					return nil
				})},
			})
			if err != nil {
				b.Fatal(err)
			}
			_ = res
			b.ReportMetric(float64(n), "agents/round")
		})
	}

	// The pooled-replicate shape: repeated same-shape leases from one
	// Study-style pool, measuring whole replicates with executor reuse.
	b.Run("pooled-study", func(b *testing.B) {
		study, err := NewStudy(StudySpec{
			Replicates: b.N,
			Workers:    1,
			Options:    Options{N: 4096, Seed: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		report, err := study.Run(context.Background())
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if report.Convergence.Converged == 0 {
			b.Fatal("no replicate converged")
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "replicates/sec")
	})

	// The trend executor's shape (the row keeps its historical name and
	// its Batch 32, which has no effect): one pooled executor reused per
	// replicate. Steady state must average 0 allocs per replicate, which
	// the CI allocation gate enforces via the n= row-name convention.
	b.Run("n=4096/lockstep", func(b *testing.B) {
		study, err := NewStudy(StudySpec{
			Replicates: b.N,
			Workers:    1,
			Batch:      32,
			Options:    Options{N: 4096, Seed: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		report, err := study.Run(context.Background())
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if report.Convergence.Converged == 0 {
			b.Fatal("no replicate converged")
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "replicates/sec")
	})
}

// BenchmarkAggregateWorstCase measures a complete worst-case
// dissemination (all-wrong start, corrupted memories) at n = 10⁸ on the
// occupancy engine — the run that is out of reach for the agent engines.
func BenchmarkAggregateWorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Disseminate(Options{
			N:      100_000_000,
			Seed:   uint64(i) + 1,
			Engine: EngineAggregate,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkChainStep measures one aggregate-chain step at n = 10^9: the
// O(ℓ) exact-probability path plus two BTRS binomial draws.
func BenchmarkChainStep(b *testing.B) {
	n := 1_000_000_000
	c := NewChain(n, core.SampleSize(n, core.DefaultC), 1)
	s := c.StateAt(0.4, 0.5)
	for i := 0; i < b.N; i++ {
		s = c.Step(s)
		if c.Absorbed(s) {
			s = c.StateAt(0.4, 0.5)
		}
	}
}

// BenchmarkCompete measures the exact competition-probability kernel that
// dominates chain stepping.
func BenchmarkCompete(b *testing.B) {
	ell := core.SampleSize(1<<20, core.DefaultC)
	var sink dist.Competition
	for i := 0; i < b.N; i++ {
		sink = dist.Compete(ell, 0.45, 0.55)
	}
	_ = sink
}

// BenchmarkStudyReplicates measures the batch throughput of the Study
// API — replicates per second per engine at fixed n = 4096, worst-case
// start, default worker pool — plus fast-w1: the fast study on a single
// worker, isolating the per-replicate cost from worker-pool parallelism.
// The "parallel" row keeps its historical name: the fast engine sharded
// across GOMAXPROCS workers. Recorded results live in BENCH_study.json.
func BenchmarkStudyReplicates(b *testing.B) {
	rows := []struct {
		name    string
		kind    EngineKind
		par     int
		workers int
	}{
		{"fast", EngineAgentFast, 0, 0},
		{"parallel", EngineAgentFast, runtime.GOMAXPROCS(0), 0},
		{"aggregate", EngineAggregate, 0, 0},
		{"chain", EngineMarkovChain, 0, 0},
		{"fast-w1", EngineAgentFast, 0, 1},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			study, err := NewStudy(StudySpec{
				Replicates: b.N,
				Workers:    row.workers,
				Options:    Options{N: 4096, Seed: 1, Engine: row.kind, Parallelism: row.par},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			report, err := study.Run(context.Background())
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if report.Convergence.Converged == 0 {
				b.Fatal("no replicate converged")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "replicates/sec")
		})
	}
}

// BenchmarkSweepCheckpoint measures the per-cell cost the sweep fabric
// adds: "save" is the durable envelope write on the completion path
// (canonical JSON body, SHA-256 content address, temp file + rename);
// "resume-hit" is the verified load a resumed runner pays to skip a
// completed cell (filename hash, key, and body digest all re-checked).
// Both use a real cell's canonical key and row body so sizes are
// representative. Recorded baselines live in BENCH_sweep.json.
func BenchmarkSweepCheckpoint(b *testing.B) {
	spec := SweepSpec{
		Ns:         []int{4096},
		Engines:    []EngineKind{EngineMarkovChain},
		Scenarios:  mustScenarios("worst-case"),
		Replicates: 4,
		Seed:       17,
	}
	sw, err := NewSweep(spec)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := sw.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	art, err := sw.ShardArtifact(rep)
	if err != nil {
		b.Fatal(err)
	}
	key := art.Rows[0].Key
	body, err := sweepRowBody(art.Rows[0].Row)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("save", func(b *testing.B) {
		st, err := checkpoint.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Save(key, body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resume-hit", func(b *testing.B) {
		st, err := checkpoint.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Save(key, body); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := st.Load(key); !ok {
				b.Fatal("checkpoint miss")
			}
		}
	})
}
