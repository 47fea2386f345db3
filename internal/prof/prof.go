// Package prof writes the runtime/pprof profiles behind the CLIs'
// -cpuprofile and -memprofile flags. Everything it reports goes to
// stderr, so a profiled run's stdout is byte-identical to an unprofiled
// one.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath when cpuPath is
// non-empty, and returns the function that ends the run's profiling:
// it stops the CPU profile and, when memPath is non-empty, writes a
// heap profile taken after a garbage collection. The stop function
// reports each file it wrote, or the error that kept it from writing
// one, on stderr; calls after the first do nothing.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		cpu, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpu != nil {
			pprof.StopCPUProfile()
			report("CPU", cpuPath, cpu.Close())
		}
		if memPath != "" {
			report("heap", memPath, writeHeap(memPath))
		}
	}, nil
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // up-to-date statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func report(kind, path string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s profile %s: %v\n", kind, path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote %s profile to %s\n", kind, path)
}
