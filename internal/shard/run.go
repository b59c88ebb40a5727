package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"tfrc/internal/exp"
)

// isNotExist reports a missing checkpoint file, which Resume treats as
// a fresh start.
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// RunSpec is one shard-run request: which experiment, the exact
// resolved parameters, and the shard addressing.
type RunSpec struct {
	// Desc is the experiment.
	Desc exp.Descriptor
	// Params is the fully resolved, validated parameter set.
	Params exp.Params
	// Shard addresses this process's slice and configures
	// checkpointing.
	Shard ShardParams
	// Range, when non-nil, overrides the Index/Count split with an
	// explicit cell range (the CLI's -cells lo:hi).
	Range *exp.CellRange
}

// Run computes the spec's cell range, checkpointing as configured, and
// returns the shard's complete envelope. With Resume set, finished
// cells are loaded from the checkpoint and only the missing tail is
// recomputed; because cells are pure functions of (params, index), the
// returned envelope is byte-identical to an uninterrupted run's no
// matter how many crash/resume cycles preceded it.
func Run(spec RunSpec) (*Envelope, error) {
	if err := spec.Params.Validate(); err != nil {
		return nil, fmt.Errorf("%s: invalid parameters: %w", spec.Desc.Name, err)
	}
	if err := spec.Shard.Validate(); err != nil {
		return nil, fmt.Errorf("%s: invalid shard: %w", spec.Desc.Name, err)
	}
	grid := spec.Desc.Grid
	total, err := grid.Cells(spec.Params)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Desc.Name, err)
	}
	paramsJSON, err := json.Marshal(spec.Params)
	if err != nil {
		return nil, fmt.Errorf("%s: marshaling params: %w", spec.Desc.Name, err)
	}
	hash, err := ParamsHash(spec.Desc.Name, paramsJSON)
	if err != nil {
		return nil, err
	}

	rng := SplitRange(total, spec.Shard.Index, spec.Shard.Count)
	if spec.Range != nil {
		rng = *spec.Range
	}
	if rng.Lo < 0 || rng.Hi > total || rng.Lo > rng.Hi {
		return nil, fmt.Errorf("%s: cell range %s out of bounds for %d cells", spec.Desc.Name, rng, total)
	}

	cells := make([]json.RawMessage, 0, rng.Len())
	var ckpt *checkpointWriter
	if spec.Shard.Checkpoint != "" {
		ckpt = &checkpointWriter{
			path: spec.Shard.Checkpoint,
			hdr: checkpointHeader{
				Schema:     CheckpointSchema,
				Experiment: spec.Desc.Name,
				ParamsHash: hash,
				CellRange:  rng,
			},
			crash: newCrasher(spec.Shard.Index),
		}
		if spec.Shard.Resume {
			loaded, err := loadCheckpoint(ckpt.path, ckpt.hdr)
			if err != nil && !isNotExist(err) {
				return nil, err
			}
			cells = append(cells, loaded...)
		}
	}

	// Compute the missing tail in flush-sized batches. Batch boundaries
	// never change cell payloads — cells are pure functions of
	// (params, absolute index) — they only bound recomputation cost.
	flush := spec.Shard.flushEvery()
	for len(cells) < rng.Len() {
		lo := rng.Lo + len(cells)
		hi := min(lo+flush, rng.Hi)
		batch, err := grid.RunRange(spec.Params, exp.CellRange{Lo: lo, Hi: hi})
		if err != nil {
			return nil, fmt.Errorf("%s: cells [%d,%d): %w", spec.Desc.Name, lo, hi, err)
		}
		if exp.Interrupted() {
			// Cancelled mid-range: the batch holds zero-valued skipped
			// cells. Never checkpoint those as real results.
			return nil, fmt.Errorf("%s: %w", spec.Desc.Name, exp.ErrInterrupted)
		}
		cells = append(cells, batch...)
		if ckpt != nil {
			if err := ckpt.flush(cells, len(cells)); err != nil {
				return nil, err
			}
		}
	}

	return &Envelope{
		Schema:     EnvelopeSchema,
		Experiment: spec.Desc.Name,
		ParamsHash: hash,
		Params:     paramsJSON,
		CellRange:  rng,
		Cells:      cells,
		Complete:   rng.Lo == 0 && rng.Hi == total,
	}, nil
}

// salvageEnvelope builds a partial envelope from whatever a dead
// shard's checkpoint durably recorded: finished cells in place, nil for
// the rest, Missing enumerating the holes. Used by the supervisor when
// a shard exhausts its attempt budget.
func salvageEnvelope(desc exp.Descriptor, paramsJSON []byte, hash string,
	rng exp.CellRange, checkpoint string) *Envelope {
	cells := make([]json.RawMessage, rng.Len())
	if checkpoint != "" {
		hdr := checkpointHeader{
			Schema:     CheckpointSchema,
			Experiment: desc.Name,
			ParamsHash: hash,
			CellRange:  rng,
		}
		if loaded, err := loadCheckpoint(checkpoint, hdr); err == nil {
			copy(cells, loaded)
		}
	}
	return &Envelope{
		Schema:     EnvelopeSchema,
		Experiment: desc.Name,
		ParamsHash: hash,
		Params:     paramsJSON,
		CellRange:  rng,
		Cells:      cells,
		Complete:   false,
		Missing:    missingRanges(cells, rng.Lo),
	}
}
