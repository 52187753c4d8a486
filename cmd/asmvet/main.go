// Command asmvet is the multichecker front end for the project's
// static-analysis suite (internal/analysis). It loads the named
// packages (default ./...), runs every registered analyzer where it
// applies, and prints surviving diagnostics one per line in the
// familiar file:line:col format.
//
// Usage:
//
//	asmvet [-list] [-v] [packages]
//
// Exit codes: 0 clean, 1 diagnostics reported, 2 load or internal
// failure. CI runs `asmvet ./...` as a required step; see
// docs/ANALYSIS.md for the analyzer catalog and the //asm:
// suppression grammar.
package main

import (
	"flag"
	"fmt"
	"os"

	"asti/internal/analysis"
	"asti/internal/analysis/load"
	"asti/internal/analysis/passes/detrand"
	"asti/internal/analysis/passes/errclass"
	"asti/internal/analysis/passes/hotpath"
	"asti/internal/analysis/passes/lockcheck"
)

// analyzers is the registered suite, in catalog order.
var analyzers = []*analysis.Analyzer{
	detrand.Analyzer,
	errclass.Analyzer,
	hotpath.Analyzer,
	lockcheck.Analyzer,
}

func main() {
	os.Exit(run())
}

func run() int {
	listOnly := flag.Bool("list", false, "list registered analyzers and exit")
	verbose := flag.Bool("v", false, "print per-package progress to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: asmvet [-list] [-v] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listOnly {
		for _, a := range analyzers {
			verb := "(not suppressible)"
			if a.Verb != "" {
				verb = "//asm:" + a.Verb + "-ok"
			}
			fmt.Printf("%-12s %-22s %s\n", a.Name, verb, a.Doc)
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "asmvet:", err)
		return 2
	}
	pkgs, err := load.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asmvet:", err)
		return 2
	}
	if *verbose {
		n := 0
		for _, p := range pkgs {
			if !p.Standard {
				n++
			}
		}
		fmt.Fprintf(os.Stderr, "asmvet: %d module packages loaded\n", n)
	}

	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asmvet:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "asmvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
