// Package prof is the -cpuprofile/-memprofile plumbing shared by the
// commands that have those flags.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath and returns the
// function that ends it and then writes a heap profile to memPath; an
// empty path skips that profile. The caller runs stop before it exits
// (os.Exit skips defers). What was written, and any error past the
// start, goes to stderr under the command's name.
func Start(name, cpuPath, memPath string) (stop func(), err error) {
	var cf *os.File
	if cpuPath != "" {
		if cf, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return nil, err
		}
	}
	return func() {
		if cf != nil {
			pprof.StopCPUProfile()
			cf.Close()
			fmt.Fprintf(os.Stderr, "%s: wrote CPU profile to %s\n", name, cpuPath)
		}
		if memPath == "" {
			return
		}
		mf, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return
		}
		defer mf.Close()
		runtime.GC() // materialize final live-heap statistics
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return
		}
		fmt.Fprintf(os.Stderr, "%s: wrote heap profile to %s\n", name, memPath)
	}, nil
}
