// Package experiment is the public, registry-driven face of the
// reproduction harness. Every figure of the paper's evaluation and
// every beyond-the-paper scenario registers a Descriptor here; callers
// look experiments up by name, obtain a JSON-(de)serializable parameter
// set (defaults or a named preset such as "paper"), and run them to a
// Result that renders both the gnuplot-ready text table and
// stable-keyed JSON.
//
//	d, err := experiment.Get("fig6")
//	p, _ := d.PresetParams("paper")        // or d.Params() for defaults
//	res, err := experiment.Run(d, p)       // validates, then runs
//	res.Table(os.Stdout)                   // byte-identical to the CLI table
//	experiment.WriteJSON(os.Stdout, d.Name, p, res)
//
// Parameters are pointers to plain structs (aliased in this package:
// Fig06Params, ParkingLotParams, ...), so callers can type-assert and
// tweak fields, or overlay a JSON document on the defaults with
// json.Unmarshal. Register adds user-defined experiments to the same
// registry the CLI enumerates.
//
// Every experiment runs as a Grid of independent cells, which is what
// lets the CLI shard, merge and resume any of them. A user experiment
// that is one simulation is a 1-cell grid:
//
//	experiment.Register(experiment.Descriptor{
//		Name:   "my-dumbbell",
//		Params: func() experiment.Params { return &MyParams{Flows: 2} },
//		Grid: experiment.GridAs(
//			func(*MyParams) int { return 1 },
//			func(p *MyParams, r experiment.CellRange) []MyResult {
//				out := make([]MyResult, 0, r.Len())
//				for range r.Len() {
//					out = append(out, runMyDumbbell(p))
//				}
//				return out
//			},
//			func(_ *MyParams, cells []MyResult) *MyResult { return &cells[0] }),
//	})
//
// The serialized record has a stable, versioned shape:
//
//	{"schema": "tfrc.experiment.record/v1", "experiment": "fig6",
//	 "params": {...}, "result": {...}}
//
// with an optional "interrupted": true inserted by WritePartialJSON
// when a run was cancelled mid-sweep (see SetContext) — the result is
// then partial, with unreached sweep cells zero-valued, never
// fabricated. The schema string names the envelope layout, not the
// result payload: it changes only if the record's own keys change
// meaning, so downstream tooling can gate on it before parsing.
//
// Fault-injection experiments (blackout, flap, chaos) embed
// FaultSchedule values in their params/results; the schedule itself is
// JSON all the way down:
//
//	{"seed": 7, "reroute": true, "faults": [
//	  {"at": 25, "link": "rr->rl", "kind": "blackhole"},
//	  {"at": 40, "link": "rr->rl", "kind": "blackhole-off"}]}
//
// Kinds are "down", "up" (field "drain" selects queue-park vs flush),
// "blackhole", "blackhole-off", "delay" (field "delay", seconds),
// "bandwidth" (field "bandwidth", bits/sec), and "impair" (fields
// "reorder", "reorderDelay", "duplicate", "corrupt").
package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"tfrc/internal/exp"
)

// Core registry types, aliased from the implementation so descriptors
// registered by the figure files and by user code are interchangeable.
type (
	// Descriptor declares one experiment: name, aliases, description,
	// default/preset parameter constructors, and the cell grid it runs
	// as.
	Descriptor = exp.Descriptor
	// Params is an experiment's parameter set: a pointer to a plain
	// JSON-round-trippable struct with self-validation.
	Params = exp.Params
	// Result is what a run produces: Table writes the gnuplot-ready
	// text table; the concrete structs also marshal to JSON.
	Result = exp.Result
	// SeedSetter is implemented by params whose base seed can be set.
	SeedSetter = exp.SeedSetter
	// SeedsSetter is implemented by params supporting multi-seed
	// replication with mean ± 90% CI aggregation.
	SeedsSetter = exp.SeedsSetter
	// Grid is an experiment's pure-cell decomposition and the one way
	// it runs: cell count, range runner, and reduce step over raw JSON
	// cells. Run reduces the full range; cmd/tfrcsim's shard and merge
	// commands split the same range across processes and machines with
	// byte-identical results.
	Grid = exp.Grid
	// CellRange is a half-open range [Lo, Hi) of grid cell indices.
	CellRange = exp.CellRange
)

// GridAs builds a Grid from typed cell functions: cells sizes the grid
// for a parameter set, runRange computes the cells of a sub-range
// (each cell a pure function of the absolute index), and reduce folds
// a full cell slice into the experiment's Result. The JSON marshaling
// at the Grid boundary is handled here, so registered experiments only
// write typed code.
func GridAs[P Params, C any, R Result](
	cells func(P) int,
	runRange func(P, CellRange) []C,
	reduce func(P, []C) R,
) *Grid {
	return exp.GridAs(cells, runRange, reduce)
}

// Register adds an experiment to the registry. The paper's figures
// self-register at init time; user code may add its own. Duplicate
// names panic.
func Register(d Descriptor) { exp.Register(d) }

// Get finds an experiment by canonical name or alias ("fig6", "6",
// "parkinglot"). Unknown names produce an error that includes the
// closest registered name, when one is plausibly close.
func Get(name string) (Descriptor, error) {
	if d, ok := exp.Lookup(name); ok {
		return d, nil
	}
	if s := exp.Suggest(name); s != "" {
		return Descriptor{}, fmt.Errorf("unknown experiment %q (did you mean %q?)", name, s)
	}
	return Descriptor{}, fmt.Errorf("unknown experiment %q", name)
}

// List returns every registered descriptor: figures first in numeric
// order, then named experiments alphabetically.
func List() []Descriptor { return exp.Experiments() }

// Run validates the parameters and executes the experiment. All
// callers (the CLI included) run through here, so no experiment ever
// runs on unvalidated parameters.
func Run(d Descriptor, p Params) (Result, error) { return exp.RunExperiment(d, p) }

// SetParallelism sets the worker count experiments use to execute
// their independent sweep cells, returning the previous
// value. Results are bit-identical at any setting.
func SetParallelism(n int) int { return exp.SetParallelism(n) }

// Parallelism returns the current sweep worker count.
func Parallelism() int { return exp.Parallelism() }

// ErrInterrupted reports that the run context installed via SetContext
// was cancelled mid-experiment. Run's error wraps it; the accompanying
// Result, when non-nil, is partial (skipped sweep cells hold zero
// values).
var ErrInterrupted = exp.ErrInterrupted

// SetContext installs a cancellation context for experiment runs: once
// ctx is done, remaining sweep cells are skipped, in-flight cells
// finish, and Run reports ErrInterrupted alongside the partial result.
// Process-wide, like SetParallelism; nil restores the default
// never-cancelled behavior.
func SetContext(ctx context.Context) { exp.SetContext(ctx) }

// Interrupted reports whether the installed run context is cancelled.
func Interrupted() bool { return exp.Interrupted() }

// RecordSchema identifies the Record envelope layout. It versions the
// envelope keys themselves, not the experiment-specific result shapes;
// it will only change if the meaning of the record keys does.
const RecordSchema = "tfrc.experiment.record/v1"

// Record is the JSON envelope WriteJSON emits: the envelope schema,
// the experiment's name, the exact parameters that ran, and the full
// result. Interrupted marks a partial record from a cancelled run.
type Record struct {
	Schema      string `json:"schema"`
	Experiment  string `json:"experiment"`
	Params      Params `json:"params"`
	Interrupted bool   `json:"interrupted,omitempty"`
	Result      Result `json:"result"`
}

// WriteJSON writes the {schema, experiment, params, result} envelope
// as indented JSON. Keys are stable: encoding/json emits struct fields
// in declaration order, and the result structs are plain data.
func WriteJSON(w io.Writer, name string, p Params, r Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Record{Schema: RecordSchema, Experiment: name, Params: p, Result: r})
}

// WritePartialJSON writes the envelope of an interrupted run: the same
// shape as WriteJSON plus "interrupted": true. A nil result (the run
// died before assembling anything) encodes as result: null.
func WritePartialJSON(w io.Writer, name string, p Params, r Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Record{Schema: RecordSchema, Experiment: name, Params: p, Interrupted: true, Result: r})
}
