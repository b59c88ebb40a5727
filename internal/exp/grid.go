package exp

import (
	"encoding/json"
	"fmt"
)

// CellRange addresses the half-open slice [Lo, Hi) of an experiment's
// flattened cell index space. A grid experiment's cells are pure
// functions of (params, index), so any range of them can be computed on
// any machine and the results reassembled by index.
type CellRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len is the number of cells the range addresses.
func (r CellRange) Len() int { return r.Hi - r.Lo }

// String renders the range in half-open interval notation.
func (r CellRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Grid is an experiment's pure-cell contract: the one way an
// experiment runs. RunExperiment computes
//
//	Reduce(p, RunRange(p, [0, Cells(p))))
//
// and the distributed sweep coordinator (internal/shard, tfrcsim
// shard/merge) computes the same from slices of the range. Every cell
// is a pure function of (params, index): computing any sub-range on any
// machine, in any order, at any worker count, yields the same per-cell
// payloads, and Reduce over the reassembled full set reproduces the
// single-machine Result byte-for-byte. An experiment that is one
// simulation is a 1-cell grid.
//
// Cell payloads are compact JSON (one object per cell) so they can ride
// in checkpoint files and partial-result envelopes; payload values must
// round-trip exactly through encoding/json (float64, int, string, bool,
// and slices/structs of those do — Go prints floats shortest-exact).
type Grid struct {
	// Cells returns the total flattened cell count for the (validated)
	// parameter set.
	Cells func(Params) (int, error)
	// RunRange computes cells [r.Lo, r.Hi) on the sweep worker pool and
	// returns one compact JSON payload per cell, index-aligned with the
	// range.
	RunRange func(Params, CellRange) ([]json.RawMessage, error)
	// Reduce reassembles the experiment's Result from the full cell set
	// in index order (payloads as produced by RunRange).
	Reduce func(Params, []json.RawMessage) (Result, error)
}

// GridAs adapts an experiment's typed cell functions to the registry's
// JSON-framed Grid contract: foreign parameter types are rejected with
// an error instead of a panic, and per-cell values are
// marshaled/unmarshaled at the boundary so the typed functions stay
// JSON-free.
func GridAs[P Params, C any, R Result](
	cells func(P) int,
	runRange func(P, CellRange) []C,
	reduce func(P, []C) R,
) *Grid {
	cast := func(p Params) (P, error) {
		tp, ok := p.(P)
		if !ok {
			var want P
			return tp, fmt.Errorf("wrong parameter type %T (want %T)", p, want)
		}
		return tp, nil
	}
	return &Grid{
		Cells: func(p Params) (int, error) {
			tp, err := cast(p)
			if err != nil {
				return 0, err
			}
			return cells(tp), nil
		},
		RunRange: func(p Params, r CellRange) ([]json.RawMessage, error) {
			tp, err := cast(p)
			if err != nil {
				return nil, err
			}
			if n := cells(tp); r.Lo < 0 || r.Hi > n || r.Lo > r.Hi {
				return nil, fmt.Errorf("cell range %s out of bounds for %d cells", r, n)
			}
			out := make([]json.RawMessage, 0, r.Len())
			for i, c := range runRange(tp, r) {
				j, err := json.Marshal(c)
				if err != nil {
					return nil, fmt.Errorf("marshaling cell %d: %w", r.Lo+i, err)
				}
				out = append(out, j)
			}
			if len(out) != r.Len() {
				return nil, fmt.Errorf("range %s produced %d cells", r, len(out))
			}
			return out, nil
		},
		Reduce: func(p Params, raw []json.RawMessage) (Result, error) {
			tp, err := cast(p)
			if err != nil {
				return nil, err
			}
			if n := cells(tp); len(raw) != n {
				return nil, fmt.Errorf("reduce needs all %d cells, got %d", n, len(raw))
			}
			typed := make([]C, len(raw))
			for i, r := range raw {
				if err := json.Unmarshal(r, &typed[i]); err != nil {
					return nil, fmt.Errorf("decoding cell %d: %w", i, err)
				}
			}
			return reduce(tp, typed), nil
		},
	}
}

// cellAs adapts a 1-cell experiment to the registry's Grid: run is the
// whole simulation on a worker-pinned Cell, and its Result is the one
// cell's payload.
func cellAs[P Params, R Result](run func(*Cell, P) R) *Grid {
	return GridAs(func(P) int { return 1 }, oneCell(run), func(_ P, cells []R) R { return cells[0] })
}

// oneCell is the range runner of a 1-cell grid.
func oneCell[P, R any](run func(*Cell, P) R) func(P, CellRange) []R {
	return func(p P, r CellRange) []R {
		return runCells(r.Len(), func(c *Cell, _ int) R { return run(c, p) })
	}
}

// runOne runs a 1-cell experiment whole, as its grid does.
func runOne[P, R any](p P, run func(*Cell, P) R) R {
	return oneCell(run)(p, CellRange{0, 1})[0]
}
