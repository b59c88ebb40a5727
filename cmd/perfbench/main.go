// Command perfbench is the repository benchmark: three workloads timed
// end to end through the public scenario and experiment packages, with
// a separate traced mode that splits each workload's CPU by layer.
//
//	go build -o perfbench ./cmd/perfbench
//	perfbench -workload dumbbell8 -seed 1 -seconds 20 -trace 0
//
// cmd/perfbench/run.sh builds the binary inside the checkout and runs
// it with the same flags. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones; with -trace 1 they are the
// per-layer ones. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"tfrc/experiment"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: dumbbell8, manyflows10k or onoff-grid")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long the measured loop runs, in wall seconds")
	trace := fs.Int("trace", 0, "1 runs the traced mode and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(w.procs)
	experiment.SetParallelism(w.workers)
	budget := time.Duration(*seconds * float64(time.Second))

	var rep report
	var err error
	if *trace == 1 {
		rep, err = traced(w, *seed, budget)
	} else {
		rep, err = timed(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	info, err := json.Marshal(rep.info)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", info, res)
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one invocation measured: the metrics, the cell tally,
// and an informational line (pins, sample counts, outcome digest)
// printed before the result.
type report struct {
	metrics           map[string]metric
	attempted, failed int
	info              map[string]any
}

func (r *report) put(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a failed check, keeping the first few for the info
// line and echoing each to standard error.
func (r *report) problem(where string, problems []string) {
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", where, p)
	}
	kept, _ := r.info["problems"].([]string)
	if len(kept) < 5 {
		r.info["problems"] = append(kept, where+": "+problems[0])
	}
}

func newReport(w *workload, seed int64) report {
	return report{
		metrics: map[string]metric{},
		info: map[string]any{
			"workload":   w.name,
			"seed":       seed,
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"workers":    w.workers,
			"go":         runtime.Version(),
		},
	}
}

// timed measures the end-to-end metrics: set-up probes, then whole
// units of the workload until the budget is spent.
func timed(w *workload, seed int64, budget time.Duration) (report, error) {
	rep := newReport(w, seed)
	ps := runProbes(w, seed, &rep)
	lr, err := runUnits(w, seed, budget, 0, newMeter(false), &rep)
	if err != nil {
		return rep, err
	}

	setups := append(ps.setups, lr.setups...)
	rep.put("pkts_per_s", lr.pkts/lr.run.Seconds(), "1/s")
	rep.put("cells_per_s", float64(lr.cells)/lr.run.Seconds(), "1/s")
	rep.put("cell_ms_p50", quantile(lr.cellMs, 0.50), "ms")
	rep.put("cell_ms_p95", quantile(lr.cellMs, 0.95), "ms")
	rep.put("setup_s", quantile(setups, 0.50), "s")
	rep.put("wall_s", quantile(lr.unitS, 0.50), "s")
	rep.put("peak_rss_mb", peakRSSMB(), "MB")
	rep.put("pass_frac", float64(rep.attempted-rep.failed)/float64(rep.attempted), "frac")

	rep.info["units"] = lr.units
	if lr.notes != nil {
		rep.info["unit0"] = lr.notes
	}
	rep.info["cells"] = lr.cells
	rep.info["cell_ms_samples"] = len(lr.cellMs)
	rep.info["setup_samples"] = len(setups)
	rep.info["digest"] = fmt.Sprintf("%x", lr.digest.Sum(nil))
	rep.info["digest_units"] = w.minUnits
	return rep, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
