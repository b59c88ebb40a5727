package exp

import (
	"context"
	"sync"
	"sync/atomic"

	"tfrc/internal/sim"
	"tfrc/internal/sweep"
)

// runCtx is the process-wide cancellation context consulted between
// sweep cells. nil (the default) means never cancelled.
var runCtx atomic.Pointer[context.Context]

// SetContext installs a cancellation context for experiment runs: once
// ctx is done, remaining sweep cells are skipped (their results stay
// zero values), in-flight cells finish, and RunExperiment reports
// ErrInterrupted alongside whatever partial result the experiment
// assembled. Process-wide, like SetParallelism; passing nil restores the
// default never-cancelled behavior.
//
// Because the setting is process-global, RunExperiment snapshots it (and
// the parallelism) at run start: a SetContext call made while an
// experiment is running configures the next run, never the one in
// flight. Concurrent RunExperiment calls still share one configuration —
// callers needing different settings per run must serialize.
func SetContext(ctx context.Context) {
	if ctx == nil {
		runCtx.Store(nil)
		return
	}
	runCtx.Store(&ctx)
}

// Interrupted reports whether the governing run context is cancelled:
// the one snapshotted by the active RunExperiment when inside a run, the
// currently installed one otherwise.
func Interrupted() bool {
	p := runCtx.Load()
	if s := activeSnap.Load(); s != nil {
		p = s.ctx
	}
	return p != nil && (*p).Err() != nil
}

// runSnap freezes the process-global run configuration — worker count
// and cancellation context — for the duration of one RunExperiment
// call, so a mid-sweep SetParallelism or SetContext cannot split a
// single sweep across two configurations (which would break the
// bit-identical-at-any-parallelism contract mid-merge and let a late
// SetContext silently truncate a running sweep).
type runSnap struct {
	workers int
	ctx     *context.Context
}

// activeSnap is the configuration snapshot of the innermost running
// RunExperiment, nil outside of one.
var activeSnap atomic.Pointer[runSnap]

// beginRun installs a snapshot of the current configuration and returns
// the previous snapshot for endRun to restore (runs can nest: a user
// experiment's cells may call RunExperiment).
func beginRun() *runSnap {
	s := &runSnap{workers: int(parallelism.Load()), ctx: runCtx.Load()}
	return activeSnap.Swap(s)
}

// endRun restores the snapshot that beginRun displaced and trims the
// idle cells the finished run left beyond the restored worker count.
func endRun(prev *runSnap) {
	activeSnap.Store(prev)
	trimIdleCells()
}

// parallelism is the worker count every experiment's cell runner uses
// (atomic so runs may be launched from any goroutine).
// The default of 1 keeps library callers fully sequential; cmd/tfrcsim
// raises it via SetParallelism from its -parallel flag.
var parallelism atomic.Int64

func init() { parallelism.Store(1) }

// SetParallelism sets the number of worker goroutines used to execute
// independent sweep cells (clamped to ≥ 1 and to the cell count) and
// returns the previous value. Each worker holds one live simulation, so
// memory grows with the setting, and as many warm arenas stay cached
// between runs (lowering the setting releases the surplus); the Go
// scheduler bounds effective CPU parallelism to GOMAXPROCS. Results are
// bit-identical at any setting: cells are pure and merged in
// deterministic cell order.
//
// Like SetContext, this is process-global and snapshotted by
// RunExperiment at run start: a mid-sweep call configures the next run,
// not the one in flight.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	prev := int(parallelism.Swap(int64(n)))
	trimIdleCells()
	return prev
}

// Parallelism returns the governing sweep worker count: the one
// snapshotted by the active RunExperiment when inside a run, the
// currently installed one otherwise.
func Parallelism() int {
	if s := activeSnap.Load(); s != nil {
		return s.workers
	}
	return int(parallelism.Load())
}

// Cell is a worker-pinned simulation arena: a pinned scheduler plus the
// package arenas riding on it (network, topology, monitors, TCP/TFRC/
// traffic agents, scenario builders). A sweep worker passes the same
// Cell to every cell it executes, so cell i+workers rebuilds its entire
// working set out of cell i's memory — after each worker's first cell, a
// scenario run touches the allocator only to harvest its result.
type Cell struct {
	sched   *sim.Scheduler
	scratch []float64 // per-cell float scratch (access-delay draws)
}

func newCell() *Cell {
	s := sim.NewScheduler()
	s.Pin()
	return &Cell{sched: s}
}

// idleCells recycles warm Cells across sweeps and RunScenario calls, so
// even non-sweep callers reuse a warm arena (a cold cell pays every
// setup allocation again). It is a plain free list rather than a
// sync.Pool: a pool drops its contents across two GCs, and a get never
// sees the cell another P holds in its private slot, so the next run
// would rebuild its working set cold. The list keeps at most
// Parallelism() idle cells — putCell, SetParallelism and the end of a
// RunExperiment drop the rest to the GC — so after a wide sweep only as
// many arenas stay pinned as the configured worker count (one for
// sequential library callers); begin() rewinds a kept cell on its next
// use.
var idleCells struct {
	sync.Mutex
	cells []*Cell
}

func getCell() *Cell {
	idleCells.Lock()
	n := len(idleCells.cells)
	if n == 0 {
		idleCells.Unlock()
		return newCell()
	}
	c := idleCells.cells[n-1]
	idleCells.cells[n-1] = nil
	idleCells.cells = idleCells.cells[:n-1]
	idleCells.Unlock()
	return c
}

func putCell(c *Cell) {
	idleCells.Lock()
	if len(idleCells.cells) < Parallelism() {
		idleCells.cells = append(idleCells.cells, c)
	}
	idleCells.Unlock()
}

// trimIdleCells drops idle cells beyond the governing worker count.
func trimIdleCells() {
	idleCells.Lock()
	if keep := Parallelism(); len(idleCells.cells) > keep {
		clear(idleCells.cells[keep:])
		idleCells.cells = idleCells.cells[:keep]
	}
	idleCells.Unlock()
}

// begin rewinds the cell's arena for a fresh scenario and returns its
// scheduler. Everything drawn from the previous scenario on this cell is
// reclaimed — results harvested earlier stay valid because harvests copy
// into private storage.
func (c *Cell) begin() *sim.Scheduler {
	c.sched.Reset()
	return c.sched
}

// floats returns an n-element scratch slice owned by the cell, valid
// until the next call.
func (c *Cell) floats(n int) []float64 {
	if cap(c.scratch) < n {
		c.scratch = make([]float64, n)
	}
	return c.scratch[:n]
}

// runCells executes n independent experiment cells on the configured
// worker pool with worker-pinned Cells, returning results in cell order:
// every cell runs exactly once, consecutive cells on one worker share an
// arena, and results are identical at any worker count. Cells reached
// after the installed run context is cancelled are skipped and yield
// zero values, so an interrupted sweep still returns a well-formed
// partial slice.
func runCells[T any](n int, fn func(c *Cell, i int) T) []T {
	return sweep.MapCtx(Parallelism(), n, getCell, putCell, func(c *Cell, i int) T {
		if Interrupted() {
			var zero T
			return zero
		}
		return fn(c, i)
	})
}
