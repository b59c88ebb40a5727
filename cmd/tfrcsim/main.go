// Command tfrcsim runs the paper's evaluation figures and the
// beyond-the-paper experiments from the public experiment registry.
// Each run executes one experiment and writes either the gnuplot-ready
// text table or a JSON record to stdout.
//
// Usage:
//
//	tfrcsim run fig6                  # Figure 6 at default (laptop) scale
//	tfrcsim run fig6 -preset paper    # the paper's full-scale parameters
//	tfrcsim run fig6 -format json     # {experiment, params, result} JSON
//	tfrcsim run fig9 -seed 7          # change the random seed
//	tfrcsim run fig6 -params p.json   # overlay a JSON parameter file
//	tfrcsim run parkinglot -seeds 3   # 3 seeds per cell, mean ± 90% CI
//	tfrcsim list                      # enumerate the registry
//
// Every experiment is a grid of independent cells, so every experiment
// also runs distributed: "shard run" computes a slice of the cell grid
// into a shard envelope (with crash-safe checkpoint/resume), "shard
// exec" supervises a local fan-out with automatic restart of crashed or
// hung shards, and "merge" reassembles envelopes into the exact
// single-machine result:
//
//	tfrcsim shard run fig6 -shard 0/3 -checkpoint s0.ckpt -resume -o s0.json
//	tfrcsim shard exec fig6 -n 3 -format json
//	tfrcsim merge s0.json s1.json s2.json -format json
//
// Merged output is byte-identical to "run -format json" at any shard
// count and any crash/retry history. A sweep that permanently lost
// shards still produces a well-formed partial envelope (complete:
// false, missing ranges enumerated) and exits with code 3.
//
// run, list, shard and merge are the only commands. Experiment names
// resolve through registry aliases, so run 10 and run fig10 both reach
// fig9 (which includes Figure 10).
//
// Experiments execute their independent cells on a worker pool;
// -parallel defaults to the number of CPUs and results are
// bit-identical at any worker count. -seeds applies to experiments
// whose parameters support multi-seed replication (figures 6, 8, 14,
// 15 and the parkinglot/bwstep scenarios); each cell then repeats at
// that many seeds and reports mean ± 90% CI.
//
// A -params file is JSON overlaid on the selected preset's defaults, so
// it may name only the fields it changes; unknown fields are rejected.
// Parameters are validated before running: impossible durations, empty
// grids, or zero flow counts fail loudly instead of producing empty
// tables.
//
//	tfrcsim run fig6 -cpuprofile cpu.out -memprofile mem.out  # pprof a run
//	tfrcsim -bench -bench-name PR3             # write BENCH_PR3.json
//	tfrcsim -bench -bench-compare bench/BENCH_7.json  # CI regression gate
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"

	"tfrc/experiment"
	"tfrc/internal/bench"
)

func main() { os.Exit(run()) }

// run holds the real main body and reports the process exit code, so
// deferred profile writers always flush before the process exits.
func run() int {
	preset := flag.String("preset", "", "named parameter preset (\"default\", \"paper\")")
	paramsFile := flag.String("params", "", "JSON parameter file overlaid on the preset's defaults")
	format := flag.String("format", "table", "output format: table | json")
	seed := flag.Int64("seed", 1, "random seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker count for sweep cells (1 = sequential; results are identical either way)")
	seeds := flag.Int("seeds", 1,
		"seeds per cell for experiments supporting multi-seed replication: >1 reports mean ± 90% CI")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	runBench := flag.Bool("bench", false,
		"run the perf measurement suite and write a BENCH_<name>.json snapshot instead of an experiment")
	benchName := flag.String("bench-name", "local", "label stored in the bench snapshot")
	benchOut := flag.String("bench-out", "", "bench snapshot path (default BENCH_<name>.json)")
	benchCompare := flag.String("bench-compare", "",
		"compare the fresh bench snapshot against this committed baseline and exit non-zero on regression")
	benchTolerance := flag.Float64("bench-tolerance", 0.15,
		"allowed fractional regression for -bench-compare (0.15 = 15%)")

	// Commands: "tfrcsim run <name> [flags]", "tfrcsim list", "tfrcsim
	// shard ..." and "tfrcsim merge ..."; bare flags select -bench.
	args := os.Args[1:]
	name := ""
	listCmd := false
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "run":
			if len(args) < 2 || strings.HasPrefix(args[1], "-") {
				fmt.Fprintln(os.Stderr, "tfrcsim: run needs an experiment name (try: tfrcsim list)")
				return exitUsage
			}
			name, args = args[1], args[2:]
		case "list":
			listCmd, args = true, args[1:]
		case "shard":
			return shardCmd(args[1:])
		case "merge":
			return mergeCmd(args[1:])
		default:
			fmt.Fprintf(os.Stderr, "tfrcsim: unknown command %q (want run, list, shard or merge)\n", args[0])
			return exitUsage
		}
	}
	flag.CommandLine.Parse(args)
	if rest := flag.CommandLine.Args(); len(rest) > 0 {
		fmt.Fprintf(os.Stderr, "tfrcsim: unexpected arguments %q (one experiment per run)\n", rest)
		return 2
	}
	if *format != "table" && *format != "json" {
		fmt.Fprintf(os.Stderr, "tfrcsim: unknown -format %q (want table or json)\n", *format)
		return 2
	}

	experiment.SetParallelism(*parallel)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
			}
		}()
	}

	if *runBench {
		rep := bench.Run(*benchName)
		out := *benchOut
		if out == "" {
			out = "BENCH_" + *benchName + ".json"
		}
		if err := rep.Write(out); err != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: writing bench snapshot: %v\n", err)
			return 1
		}
		fmt.Printf("bench: %.0f pkts/sec, %.0f allocs/op, %.2fM scheduler events/sec, %.1f setup allocs/cell, %.1f cells/sec (%d workers) -> %s\n",
			rep.Scenario.PktsPerSec, rep.Scenario.AllocsPerOp,
			rep.Scheduler.EventsPerSec/1e6, rep.Sweep.CellSetupAllocs,
			rep.Sweep.CellsPerSec, rep.Sweep.Workers, out)
		if *benchCompare != "" {
			base, err := bench.Load(*benchCompare)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
				return 1
			}
			if err := bench.Compare(rep, base, *benchTolerance); err != nil {
				fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
				return 1
			}
			fmt.Printf("bench: within %.0f%% of baseline %s (%s)\n",
				*benchTolerance*100, base.Name, *benchCompare)
		}
		return 0
	}

	if listCmd {
		printList(os.Stdout)
		return exitOK
	}
	if name == "" {
		fmt.Fprintln(os.Stderr, "tfrcsim: pass run <name> (try: tfrcsim list)")
		return exitUsage
	}
	d, p, code := resolveExperiment(flag.CommandLine, name, *preset, *paramsFile, seed, seeds)
	if code != exitOK {
		return code
	}

	// Run under a cancellable context: the first SIGINT/SIGTERM skips
	// the remaining sweep cells and the run winds down with whatever
	// partial result the finished cells assembled; a second signal kills
	// the process the default way.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	caught := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		s := <-sigc
		signal.Stop(sigc)
		caught <- s
		cancel()
	}()
	experiment.SetContext(ctx)
	defer experiment.SetContext(nil)

	res, err := experiment.Run(d, p)
	if errors.Is(err, experiment.ErrInterrupted) {
		// Emit the partial record as JSON regardless of -format: a
		// truncated table is useless, but the envelope says exactly
		// which cells ran. Exit 128+signal, the shell convention.
		fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
		if werr := experiment.WritePartialJSON(os.Stdout, d.Name, p, res); werr != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: encoding partial result: %v\n", werr)
		}
		code := 130
		select {
		case s := <-caught:
			if sn, ok := s.(syscall.Signal); ok {
				code = 128 + int(sn)
			}
		default: // cancelled some other way; keep the SIGINT convention
		}
		return code
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
		return 1
	}
	if *format == "json" {
		if err := experiment.WriteJSON(os.Stdout, d.Name, p, res); err != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: encoding result: %v\n", err)
			return 1
		}
		return 0
	}
	res.Table(os.Stdout)
	return 0
}

// printList enumerates the registry: one row per experiment, generated
// from the descriptors rather than hand-maintained.
func printList(w *os.File) {
	descs := experiment.List()
	width := 0
	for _, d := range descs {
		if len(d.Name) > width {
			width = len(d.Name)
		}
	}
	for _, d := range descs {
		line := fmt.Sprintf("%-*s  %s", width, d.Name, d.Description)
		if len(d.Presets) > 0 {
			names := make([]string, 0, len(d.Presets))
			for n := range d.Presets {
				names = append(names, n)
			}
			sort.Strings(names)
			if len(names) == 1 {
				line += fmt.Sprintf("  [preset: %s]", names[0])
			} else {
				line += fmt.Sprintf("  [presets: %s]", strings.Join(names, ", "))
			}
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, "\nrun one with: tfrcsim run <name> [-preset paper] [-format json] [-params file.json]")
}
