// Package prof writes the CPU and heap profiles that the commands'
// -cpuprofile and -memprofile flags ask for, in the format `go tool pprof`
// reads. Profiling only observes: it changes no arithmetic.
package prof

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath, none if it is empty, and
// returns stop, which ends it and then writes a heap profile to memPath,
// none if that is empty. The heap profile follows a garbage collection, so
// its in-use figures are the live heap at the end of the run.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			_ = cpu.Close() // the start error is the one to report
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if memPath != "" {
			if err := writeHeap(memPath); err != nil {
				errs = append(errs, fmt.Errorf("heap profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeap(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
