package exp

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"tfrc/internal/netsim"
)

// The arena discipline's core promise: a cell computed on a recycled
// worker context is indistinguishable from one computed on freshly
// constructed state. These tests drive a randomized mixed sequence of
// dumbbell (fig-6 style) and parking-lot cells through ONE pooled Cell —
// maximizing cross-contamination opportunities between consecutive,
// differently-shaped scenarios — and require every result to match a
// fresh-cell run field for field.

// reuseCellSpec describes one randomized cell of the differential test.
type reuseCellSpec struct {
	parking bool
	queue   netsim.QueueKind
	link    float64
	flows   int
	lots    int
	seed    int64
}

func randomReuseSequence(n int, seed int64) []reuseCellSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]reuseCellSpec, n)
	for i := range specs {
		q := netsim.QueueDropTail
		if rng.Intn(2) == 1 {
			q = netsim.QueueRED
		}
		specs[i] = reuseCellSpec{
			parking: rng.Intn(3) == 0, // every third cell, on average
			queue:   q,
			link:    []float64{2, 4, 8}[rng.Intn(3)],
			flows:   []int{2, 4, 8}[rng.Intn(3)],
			lots:    1 + rng.Intn(2),
			seed:    rng.Int63n(1 << 30),
		}
	}
	return specs
}

// run executes the spec on the given worker cell.
func (s reuseCellSpec) run(c *Cell) any {
	if s.parking {
		return runParkingLotCell(c, ParkingLotParams{
			CrossPairs: 1,
			LinkMbps:   s.link,
			Queue:      s.queue,
			Duration:   16,
			Warmup:     6,
		}, s.lots, s.seed)
	}
	return runFig06Cell(c, s.queue, s.link, s.flows, 16, 8, s.seed)
}

// TestReusedCellMatchesFreshCell is the randomized reuse-vs-fresh
// differential: the same mixed cell sequence, once through a single
// recycled Cell (worker-pinned reuse) and once with a brand-new Cell per
// cell (fresh construction), must produce identical results.
func TestReusedCellMatchesFreshCell(t *testing.T) {
	specs := randomReuseSequence(14, 71)

	pooled := newCell() // one worker context reused for every cell
	for i, spec := range specs {
		reused := spec.run(pooled)
		fresh := spec.run(newCell())
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("cell %d (%+v): pooled-context result differs from fresh construction:\npooled: %+v\nfresh:  %+v",
				i, spec, reused, fresh)
		}
	}
}

// TestReusedCellPrintedOutputByteIdentical renders a reused-cell grid
// and a fresh-cell grid to text and compares bytes, catching any
// divergence DeepEqual's field comparison could mask (NaN, -0, shared
// aliasing) on the exact surface the figure files are built from.
func TestReusedCellPrintedOutputByteIdentical(t *testing.T) {
	specs := randomReuseSequence(10, 1234)
	render := func(results []any) string {
		out := ""
		for _, r := range results {
			out += fmt.Sprintf("%#v\n", r)
		}
		return out
	}
	pooled := newCell()
	var reused, fresh []any
	for _, spec := range specs {
		reused = append(reused, spec.run(pooled))
	}
	for _, spec := range specs {
		fresh = append(fresh, spec.run(newCell()))
	}
	if a, b := render(reused), render(fresh); a != b {
		t.Fatalf("pooled-context output differs from fresh construction:\n--- pooled\n%s--- fresh\n%s", a, b)
	}
}

// TestRunScenarioResultsOutliveCellReuse pins result privacy: a harvested
// ScenarioResult must not change when its worker cell is recycled and
// overwritten by a different scenario.
func TestRunScenarioResultsOutliveCellReuse(t *testing.T) {
	c := newCell()
	sc := Scenario{
		NTCP: 2, NTFRC: 2,
		BottleneckBW: 4e6,
		Queue:        netsim.QueueRED,
		Duration:     12,
		Warmup:       4,
		Seed:         9,
	}
	first := runScenarioCell(c, sc)
	snapshot := fmt.Sprintf("%#v %v %v %v", *first, first.TCPSeries, first.TFRCSeries, first.Queue)

	// Overwrite the arena with a differently shaped, longer scenario.
	sc2 := sc
	sc2.NTCP, sc2.NTFRC, sc2.Seed, sc2.Duration = 4, 4, 10, 14
	_ = runScenarioCell(c, sc2)

	if got := fmt.Sprintf("%#v %v %v %v", *first, first.TCPSeries, first.TFRCSeries, first.Queue); got != snapshot {
		t.Fatalf("harvested result mutated by cell reuse:\nbefore: %s\nafter:  %s", snapshot, got)
	}
}

// TestRunScenarioStaysWarmAcrossGC pins the idle-cell list: a warm Cell
// survives garbage collection, so a RunScenario after two GCs reuses its
// arena and allocates only its harvest instead of rebuilding the whole
// working set cold (several hundred objects).
func TestRunScenarioStaysWarmAcrossGC(t *testing.T) {
	sc := Scenario{
		NTCP: 2, NTFRC: 2,
		BottleneckBW: 4e6,
		Queue:        netsim.QueueRED,
		Duration:     3,
		Warmup:       1,
	}
	RunScenario(sc) // warm a cell
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RunScenario(sc)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs >= 50 {
		t.Fatalf("RunScenario after two GCs allocated %d objects, want < 50: the warm cell was lost", allocs)
	}
}

// TestIdleCellsReleasedAfterWideSweep pins the idle list's bound: a
// sweep at a high worker count leaves at most that many cells cached,
// and lowering the worker count afterwards lets the GC collect the
// surplus, so one wide sweep does not pin its arenas for good.
func TestIdleCellsReleasedAfterWideSweep(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)
	sc := Scenario{
		NTCP: 1, NTFRC: 1,
		BottleneckBW: 2e6,
		Queue:        netsim.QueueRED,
		Duration:     2,
		Warmup:       1,
	}
	var mu sync.Mutex
	used := map[weak.Pointer[Cell]]bool{}
	runCells(8, func(c *Cell, i int) int {
		sc := sc
		sc.Seed = int64(i)
		runScenarioCell(c, sc)
		mu.Lock()
		used[weak.Make(c)] = true
		mu.Unlock()
		return i
	})
	if len(used) > 4 {
		t.Fatalf("sweep at 4 workers used %d cells", len(used))
	}
	idleCells.Lock()
	idle := len(idleCells.cells)
	idleCells.Unlock()
	if idle > 4 {
		t.Fatalf("%d idle cells after a 4-worker sweep, want <= 4", idle)
	}

	SetParallelism(1)
	runtime.GC()
	runtime.GC()
	live := 0
	for w := range used {
		if w.Value() != nil {
			live++
		}
	}
	if live > 1 {
		t.Fatalf("%d of the sweep's %d cells still live after lowering the worker count to 1 and two GCs, want <= 1", live, len(used))
	}
}
