package passivespread_test

import (
	"context"
	"fmt"

	"passivespread"
)

// The primary entry point: a Study fans replicates out across a worker
// pool and aggregates convergence statistics. Replicate seeds derive
// from (root seed, replicate index) alone, so the report is identical
// at any worker count.
func ExampleNewStudy() {
	study, err := passivespread.NewStudy(passivespread.StudySpec{
		Replicates: 50,
		Options:    passivespread.Options{N: 512, Seed: 1},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	report, err := study.Run(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("replicates:", report.Convergence.Replicates)
	fmt.Println("all converged:", report.Convergence.SuccessRate == 1)
	fmt.Println("median t_con within cap:", report.Convergence.Rounds.Median < 3600)
	// Output:
	// replicates: 50
	// all converged: true
	// median t_con within cap: true
}

// Stream delivers each replicate's result as soon as it finishes —
// arrival order varies, per-replicate content never does.
func ExampleStudy_Stream() {
	study, err := passivespread.NewStudy(passivespread.StudySpec{
		Replicates: 8,
		Options:    passivespread.Options{N: 256, Seed: 2},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	converged := 0
	for r := range study.Stream(context.Background()) {
		if r.Err == nil && r.Result.Converged {
			converged++
		}
	}
	fmt.Println("converged:", converged)
	// Output:
	// converged: 8
}

// The one-call entry point: FET from the worst-case start.
func ExampleDisseminate() {
	res, err := passivespread.Disseminate(passivespread.Options{
		N:    512,
		Seed: 1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("converged:", res.Converged)
	fmt.Println("all correct:", res.FinalX == 1)
	// Output:
	// converged: true
	// all correct: true
}

// Full control via the simulation Config: protocol, initializer, engine.
func ExampleRun() {
	res, err := passivespread.Run(passivespread.Config{
		N:         256,
		Protocol:  passivespread.NewFET(passivespread.SampleSize(256)),
		Init:      passivespread.FractionInit(0.5),
		Correct:   passivespread.OpinionOne,
		Seed:      7,
		MaxRounds: 10000,
		Engine:    passivespread.EngineAgentExact,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("converged:", res.Converged)
	// Output:
	// converged: true
}

// The aggregate Markov chain scales to populations no agent-level
// simulator can touch.
func ExampleNewChain() {
	n := 10_000_000
	c := passivespread.NewChain(n, passivespread.SampleSize(n), 3)
	_, ok := c.HittingTime(c.StateAt(0, 0), 100000)
	fmt.Println("absorbed:", ok)
	// Output:
	// absorbed: true
}

// Each experiment reproduces one artifact of the paper.
func ExampleExperiments() {
	for _, e := range passivespread.Experiments()[:3] {
		fmt.Printf("%s: %s\n", e.ID, e.PaperRef)
	}
	// Output:
	// E01: Theorem 1
	// E02: Figure 1a
	// E03: Figure 1b
}
