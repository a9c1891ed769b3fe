// Command vaxvet is the repository's Go-invariant multichecker. It
// loads and type-checks every production package of the module with the
// stdlib source importer (no x/tools dependency) and runs the
// internal/golint analyzer suite:
//
//	hotpath      no allocations, defers, goroutines, or unguarded
//	             interface calls in the per-cycle tick functions
//	probeguard   telemetry hook calls (Probe/tel fields) must be
//	             dominated by a nil check
//	determinism  no wall-clock reads or global rand draws; runs are
//	             pure functions of seed and config
//	atomicwrite  result and checkpoint commits go through staging
//	             write → fsync → atomic rename, never a bare write
//
// Exit status is nonzero when any diagnostic is emitted, so `make lint`
// and CI can gate on it.
package main

import (
	"flag"
	"fmt"
	"os"

	"vax780/internal/golint"
)

func main() {
	dir := flag.String("dir", "", "module directory (default: walk up from cwd)")
	flag.Parse()

	root, modPath, err := golint.ModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxvet:", err)
		os.Exit(2)
	}
	paths, err := golint.ListPackages(root, modPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxvet:", err)
		os.Exit(2)
	}
	pkgs, err := golint.LoadPackages(root, modPath, paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxvet:", err)
		os.Exit(2)
	}

	diags := golint.Run(pkgs, golint.All())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
	fmt.Printf("vaxvet: %d packages, 4 analyzers, 0 diagnostics\n", len(pkgs))
}
