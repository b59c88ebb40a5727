package exp

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Params is one experiment's parameter set: a pointer to a plain struct
// whose exported fields round-trip through encoding/json, with
// self-validation so malformed parameter files fail loudly instead of
// silently producing empty tables.
type Params interface {
	Validate() error
}

// Result is what an experiment run produces. Table writes the
// gnuplot-ready text table; the concrete result structs additionally
// marshal to JSON via encoding/json with stable keys.
type Result interface {
	Table(w io.Writer)
}

// SeedSetter is implemented by params whose base random seed can be
// overridden (the CLI's -seed flag).
type SeedSetter interface {
	SetSeed(seed int64)
}

// SeedsSetter is implemented by params supporting multi-seed
// replication with mean ± 90% CI aggregation (the CLI's -seeds flag).
type SeedsSetter interface {
	SetSeeds(n int)
}

// Descriptor registers one experiment: the paper's figures and the
// beyond-the-paper scenarios all self-register one of these, and user
// code can register its own. Every experiment runs through its Grid, so
// every experiment can be sharded, merged and resumed; a trace or a
// transient that is one simulation is a 1-cell grid.
type Descriptor struct {
	// Name is the canonical registry key ("fig6", "parkinglot").
	Name string
	// Aliases are alternate lookup keys — panels the experiment
	// includes ("fig10" for fig9) and bare figure numbers ("6").
	Aliases []string
	// Description is the one-line text shown by tfrcsim list.
	Description string
	// Params returns a fresh default parameter set. It must return a
	// pointer so JSON decoding and seed overrides mutate it in place.
	Params func() Params
	// Presets are named alternate parameter sets; "paper" selects the
	// paper's full-scale setup where one exists.
	Presets map[string]func() Params
	// Grid is the experiment's pure-cell structure (cell count, range
	// execution, reduce): RunExperiment runs the whole range, and the
	// shard/merge coordinator runs slices of it. Callers should go
	// through RunExperiment, which validates first.
	Grid *Grid
}

// PresetParams returns a fresh parameter set for the named preset; ""
// or "default" mean the defaults. Unknown presets report an error
// listing what exists.
func (d Descriptor) PresetParams(preset string) (Params, error) {
	if preset == "" || preset == "default" {
		return d.Params(), nil
	}
	if f, ok := d.Presets[preset]; ok {
		return f(), nil
	}
	names := make([]string, 0, len(d.Presets)+1)
	names = append(names, "default")
	for n := range d.Presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("experiment %q has no preset %q (have %s)",
		d.Name, preset, strings.Join(names, ", "))
}

// registry maps canonical names and aliases to descriptors. Figures
// register from their files' init functions; Register is also the
// public extension point (re-exported by package experiment).
var (
	registry   = map[string]Descriptor{}
	registered []string // canonical names in registration order
)

// Register adds an experiment to the registry. Registering a name or
// alias twice panics: the registry is program-wide configuration, and a
// collision is a programming error.
func Register(d Descriptor) {
	if d.Name == "" || d.Params == nil || d.Grid == nil {
		panic("exp: Register needs Name, Params, and Grid")
	}
	keys := append([]string{d.Name}, d.Aliases...)
	for _, k := range keys {
		if _, dup := registry[k]; dup {
			panic(fmt.Sprintf("exp: experiment %q already registered", k))
		}
	}
	for _, k := range keys {
		registry[k] = d
	}
	registered = append(registered, d.Name)
}

// Lookup finds an experiment by canonical name or alias.
func Lookup(name string) (Descriptor, bool) {
	d, ok := registry[name]
	return d, ok
}

// Experiments returns every registered descriptor, figures first in
// numeric order, then the named experiments alphabetically.
func Experiments() []Descriptor {
	out := make([]Descriptor, 0, len(registered))
	for _, name := range registered {
		out = append(out, registry[name])
	}
	sort.SliceStable(out, func(i, j int) bool {
		fi, oki := figNumber(out[i].Name)
		fj, okj := figNumber(out[j].Name)
		switch {
		case oki && okj:
			return fi < fj
		case oki:
			return true
		case okj:
			return false
		default:
			return out[i].Name < out[j].Name
		}
	})
	return out
}

func figNumber(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "fig")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil
}

// Suggest returns the registered name closest to the misspelled one, or
// "" when nothing is plausibly close. Distance ties break toward the
// shorter, lexicographically first key, so the result is deterministic.
func Suggest(name string) string {
	keys := make([]string, 0, len(registry))
	for key := range registry {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i] < keys[j]
	})
	best, bestDist := "", len(name)/2+2 // beyond this it's not a typo
	for _, key := range keys {
		if d := editDistance(name, key); d < bestDist {
			best, bestDist = key, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// ErrInterrupted reports that the run context installed via SetContext
// was cancelled mid-experiment. The accompanying Result, when non-nil,
// is a partial one: skipped cells hold zero values.
var ErrInterrupted = errors.New("interrupted")

// RunExperiment validates the parameters and executes the experiment:
// Grid.Reduce over Grid.RunRange of every cell, the same JSON-framed
// path a merge of shard envelopes takes, so a run and a merge agree
// byte for byte. This is the one entry point the CLI and the public
// experiment package use, so no experiment can run on unvalidated
// parameters. The process-global run configuration (SetParallelism,
// SetContext) is snapshotted at entry, so mid-run mutation configures
// the next run rather than splitting this one across two settings. When
// the installed run context is cancelled mid-run, the error wraps
// ErrInterrupted and the result carries whatever the experiment could
// assemble from the cells that finished; a panic while interrupted
// (aggregation tripping over zero-valued skipped cells) is converted to
// the same error with a nil result.
func RunExperiment(d Descriptor, p Params) (res Result, err error) {
	if verr := p.Validate(); verr != nil {
		return nil, fmt.Errorf("%s: invalid parameters: %w", d.Name, verr)
	}
	// Freeze the process-global run configuration for this run; the
	// restore defer is registered first so the recover handler below
	// still sees the active snapshot (defers run last-in-first-out).
	defer endRun(beginRun())
	defer func() {
		if r := recover(); r != nil {
			if Interrupted() {
				res, err = nil, fmt.Errorf("%s: %w", d.Name, ErrInterrupted)
				return
			}
			panic(r)
		}
	}()
	res, err = runGrid(d.Grid, p)
	if err == nil && Interrupted() {
		err = fmt.Errorf("%s: %w", d.Name, ErrInterrupted)
	}
	return res, err
}

// runGrid reduces the grid's full cell range.
func runGrid(g *Grid, p Params) (Result, error) {
	n, err := g.Cells(p)
	if err != nil {
		return nil, err
	}
	cells, err := g.RunRange(p, CellRange{0, n})
	if err != nil {
		return nil, err
	}
	return g.Reduce(p, cells)
}

// maxReplicates bounds seed, run and soak-cell counts: far beyond any
// real study, and small enough that replicates times a grid's axis
// lengths stays far from int overflow (fuzzing found 2^62 seeds giving
// zero or negative cell counts).
const maxReplicates = 1 << 20

// checkReplicates reports a replicate count outside [lo, maxReplicates].
func checkReplicates(field string, n, lo int) error {
	if n < lo || n > maxReplicates {
		return fmt.Errorf("%s must be in [%d, %d], got %d", field, lo, maxReplicates, n)
	}
	return nil
}

// paramsFn adapts a by-value default-params constructor to the
// registry's pointer-returning Params signature.
func paramsFn[P any, PP interface {
	*P
	Params
}](def func() P) func() Params {
	return func() Params {
		p := def()
		return PP(&p)
	}
}
