// Package prof writes the runtime/pprof profiles and runtime/trace
// execution traces behind the CLIs' -cpuprofile, -memprofile and
// -trace flags. Everything it reports goes to stderr, so a profiled
// run's stdout is byte-identical to an unprofiled one.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags are the profiling flags, registered on the default flag set.
type Flags struct {
	cpu, mem, trace *string
}

// Register defines -cpuprofile, -memprofile and -trace on the default
// flag set; call it before flag.Parse.
func Register() *Flags {
	return &Flags{
		cpu:   flag.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		mem:   flag.String("memprofile", "", "write a heap profile at the end of the run to this file"),
		trace: flag.String("trace", "", "write a runtime execution trace of the run to this file (go tool trace)"),
	}
}

// Start begins a CPU profile and an execution trace, each when its
// flag names a file, and returns the function that ends the run's
// profiling: it stops the CPU profile and the trace and, when
// -memprofile names a file, writes a heap profile taken after a
// garbage collection. The stop function reports each file it wrote,
// or the error that kept it from writing one, on stderr; calls after
// the first do nothing.
func (f *Flags) Start() (stop func(), err error) {
	cpuPath, memPath, tracePath := *f.cpu, *f.mem, *f.trace
	var cpu, tr *os.File
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
	if tracePath != "" {
		if tr, err = os.Create(tracePath); err == nil {
			if err = trace.Start(tr); err != nil {
				tr.Close()
			}
		}
		if err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, fmt.Errorf("-trace: %w", err)
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
			report("CPU profile", cpuPath, cpu.Close())
		}
		if tr != nil {
			trace.Stop()
			report("execution trace", tracePath, tr.Close())
		}
		if memPath != "" {
			report("heap profile", memPath, writeHeap(memPath))
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
		fmt.Fprintf(os.Stderr, "%s %s: %v\n", kind, path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote %s to %s\n", kind, path)
}
