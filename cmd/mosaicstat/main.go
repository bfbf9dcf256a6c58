// Command mosaicstat inspects the machine-readable experiment outputs the
// cmd/* drivers write with -json (see internal/results).
//
// Usage:
//
//	mosaicstat show results/fig6.json           pretty-print one result
//	mosaicstat diff old.json new.json           per-metric percent deltas
//	mosaicstat diff -changed old.json new.json  only metrics that moved
//	mosaicstat watch http://127.0.0.1:7077      live windowed rates (vmstat-style)
package main

import (
	"flag"
	"fmt"
	"os"

	"mosaic/internal/results"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "show":
		err = show(args[1:])
	case "diff":
		err = diff(args[1:])
	case "watch":
		err = watch(args[1:])
	default:
		// Bare file argument: treat as show for convenience.
		if _, statErr := os.Stat(args[0]); statErr == nil {
			err = show(args)
		} else {
			usage()
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mosaicstat: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  mosaicstat show <result.json>
  mosaicstat diff [-changed] <a.json> <b.json>
  mosaicstat watch [-interval 1s] [-count N] <mosaicd URL | results.json>
`)
}

func show(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("show needs exactly one result file")
	}
	f, err := results.Read(args[0])
	if err != nil {
		return err
	}
	fmt.Print(f.Format())
	return nil
}

func diff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	changed := fs.Bool("changed", false, "only print metrics whose values differ")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs exactly two result files")
	}
	a, err := results.Read(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := results.Read(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := results.Diff(a, b)
	if *changed {
		kept := rows[:0]
		for _, r := range rows {
			if !r.InA || !r.InB || r.DeltaPct != 0 {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	fmt.Print(results.FormatDiff(fs.Arg(0), fs.Arg(1), rows))
	return nil
}
