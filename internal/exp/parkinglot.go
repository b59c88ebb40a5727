package exp

import (
	"fmt"
	"io"

	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
)

// ParkingLotParams is the multi-bottleneck fairness grid the single
// dumbbell cannot express: one TFRC and one TCP through flow cross k
// bottlenecks in a row while per-segment TCP cross traffic loads each
// bottleneck independently. The question is whether equation-based
// control keeps its TCP-fairness when congestion is spread over several
// points along the path — the parking-lot setting of the delay-based
// congestion-control literature.
type ParkingLotParams struct {
	Bottlenecks []int // grid axis: number of bottlenecks per cell
	CrossPairs  int   // TCP cross pairs per segment
	LinkMbps    float64
	Queue       netsim.QueueKind
	Duration    float64
	Warmup      float64
	Seed        int64

	// Seeds > 1 repeats every cell at that many seeds, reporting means
	// with 90% confidence half-widths.
	Seeds int
}

// DefaultParkingLot is the laptop-scale grid.
func DefaultParkingLot() ParkingLotParams {
	return ParkingLotParams{
		Bottlenecks: []int{1, 2, 3},
		CrossPairs:  2,
		LinkMbps:    4,
		Queue:       netsim.QueueRED,
		Duration:    60,
		Warmup:      20,
		Seed:        1,
	}
}

// PaperParkingLot is the full-scale grid of the "paper" preset.
func PaperParkingLot() ParkingLotParams {
	p := DefaultParkingLot()
	p.Duration, p.Warmup = 300, 60
	p.LinkMbps = 15
	return p
}

// Validate implements Params.
func (p *ParkingLotParams) Validate() error {
	if len(p.Bottlenecks) == 0 {
		return fmt.Errorf("Bottlenecks must be non-empty")
	}
	for _, k := range p.Bottlenecks {
		if k < 1 {
			return fmt.Errorf("bottleneck counts must be at least 1, got %d", k)
		}
	}
	if p.CrossPairs < 0 {
		return fmt.Errorf("CrossPairs must be non-negative, got %d", p.CrossPairs)
	}
	if p.LinkMbps <= 0 {
		return fmt.Errorf("LinkMbps must be positive, got %v", p.LinkMbps)
	}
	if p.Duration <= 0 || p.Warmup < 0 || p.Warmup >= p.Duration {
		return fmt.Errorf("need 0 <= Warmup < Duration, got Warmup=%v Duration=%v", p.Warmup, p.Duration)
	}
	if err := checkReplicates("Seeds", p.Seeds, 0); err != nil {
		return err
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *ParkingLotParams) SetSeed(seed int64) { p.Seed = seed }

// SetSeeds implements SeedsSetter.
func (p *ParkingLotParams) SetSeeds(n int) { p.Seeds = n }

func init() {
	Register(Descriptor{
		Name:        "parkinglot",
		Description: "through TFRC vs TCP across 1-3 bottlenecks",
		Params:      paramsFn[ParkingLotParams](DefaultParkingLot),
		Presets:     map[string]func() Params{"paper": paramsFn[ParkingLotParams](PaperParkingLot)},
		Grid:        GridAs(parkingLotCells, parkingLotRunRange, parkingLotReduce),
	})
}

// ParkingLotCell is one grid cell: the through flows' throughputs
// normalized by the single-bottleneck fair share, and the aggregate
// behavior of the most loaded bottleneck.
type ParkingLotCell struct {
	Bottlenecks int
	ThroughTFRC float64 // normalized mean throughput of the TFRC through flow
	ThroughTCP  float64 // … of the TCP through flow
	CrossMean   float64 // mean normalized throughput of segment-0 cross flows
	DropRates   []float64
	Utilization float64 // bottleneck 0

	Seeds         int
	ThroughTFRCCI float64
	ThroughTCPCI  float64
}

// ParkingLotResult is the grid.
type ParkingLotResult struct {
	Params ParkingLotParams
	Cells  []ParkingLotCell
}

// runParkingLotCell runs one (bottlenecks, seed) cell on the declarative
// topology + scenario layer, over the worker's pinned arena. The random
// sources come from the scheduler's recycled generators, which re-seed
// to exactly the stream a fresh source would produce.
func runParkingLotCell(c *Cell, pr ParkingLotParams, k int, seed int64) ParkingLotCell {
	sched := c.begin()
	rng := sched.NewRand(seed)
	bw := pr.LinkMbps * 1e6
	queueLimit := int(max(10, bw*0.1/(8*1000)))
	red := netsim.DefaultRED(queueLimit)
	red.MinThresh = max(5, float64(queueLimit)/10)
	red.MaxThresh = float64(queueLimit) / 2
	pl := netsim.NewParkingLot(sched, netsim.ParkingLotConfig{
		Bottlenecks:   k,
		ThroughPairs:  2, // pair 0 carries TFRC, pair 1 TCP
		CrossPairs:    pr.CrossPairs,
		BottleneckBW:  bw,
		BottleneckDly: 0.010,
		Queue:         pr.Queue,
		QueueLimit:    queueLimit,
		RED:           red,
	}, sched.NewRand(seed+1))

	b := NewScenarioBuilder(pl.Topo)
	segMons := make([]*netsim.FlowMonitor, k)
	segMons[0] = b.MonitorLink(pl.BottleneckName(0), 0.5, pr.Warmup) // primary
	b.MonitorUtilization(pl.BottleneckName(0), pr.Warmup)
	for s := 1; s < k; s++ {
		segMons[s] = b.MonitorLink(pl.BottleneckName(s), 0.5, pr.Warmup)
	}

	start := func() float64 { return rng.Uniform(0, 5) }
	tf := tfrcsim.DefaultConfig()
	tf.PacingJitter = 0.05
	tf.JitterSeed = seed
	tcpCfg := tcp.Config{Variant: tcp.Sack, SendJitter: 0.001, JitterSeed: seed}
	throughTFRC := b.AddTFRC("ts0", "td0", tf, start())
	throughTCP := b.AddTCP("ts1", "td1", tcpCfg, start())
	crossFlows := make([][]int, k)
	for s := 0; s < k; s++ {
		for i := 0; i < pr.CrossPairs; i++ {
			f := b.AddTCP(fmt.Sprintf("cs%d.%d", s, i), fmt.Sprintf("cd%d.%d", s, i),
				tcpCfg, start())
			crossFlows[s] = append(crossFlows[s], f)
		}
	}

	res := b.Run(pr.Duration)

	// Normalize by the per-bottleneck fair share: 2 through flows plus
	// CrossPairs cross flows share each bottleneck.
	fair := bw / 8 / float64(2+pr.CrossPairs)
	norm := func(series []float64) float64 {
		return stats.Mean(series) / res.BinWidth / fair
	}
	primary := segMons[0]
	cell := ParkingLotCell{
		Bottlenecks: k,
		ThroughTFRC: norm(primary.Series(throughTFRC, res.Bins)),
		ThroughTCP:  norm(primary.Series(throughTCP, res.Bins)),
		Utilization: res.Utilization,
	}
	var crossSum float64
	for _, f := range crossFlows[0] {
		crossSum += norm(primary.Series(f, res.Bins))
	}
	if len(crossFlows[0]) > 0 {
		cell.CrossMean = crossSum / float64(len(crossFlows[0]))
	}
	for s := 0; s < k; s++ {
		cell.DropRates = append(cell.DropRates, segMons[s].DropRate())
	}
	b.Release()
	return cell
}

// parkingLotSeeds clamps the replication count to at least one.
func parkingLotSeeds(pr *ParkingLotParams) int {
	if pr.Seeds < 1 {
		return 1
	}
	return pr.Seeds
}

// parkingLotCells flattens the grid bottleneck-major, seed-minor.
func parkingLotCells(pr *ParkingLotParams) int {
	return len(pr.Bottlenecks) * parkingLotSeeds(pr)
}

// parkingLotRunRange computes grid cells [r.Lo, r.Hi); each cell's
// coordinates derive from its absolute index.
func parkingLotRunRange(pr *ParkingLotParams, r CellRange) []ParkingLotCell {
	seeds := parkingLotSeeds(pr)
	return runCells(r.Len(), func(c *Cell, i int) ParkingLotCell {
		idx := r.Lo + i
		k, rep := pr.Bottlenecks[idx/seeds], idx%seeds
		return runParkingLotCell(c, *pr, k, pr.Seed+int64(rep)*6151)
	})
}

// parkingLotReduce aggregates each bottleneck count's seeds in order.
func parkingLotReduce(pr *ParkingLotParams, raw []ParkingLotCell) *ParkingLotResult {
	seeds := parkingLotSeeds(pr)
	res := &ParkingLotResult{Params: *pr}
	for c := range pr.Bottlenecks {
		group := raw[c*seeds : (c+1)*seeds]
		cell := group[0]
		if seeds > 1 {
			tf := make([]float64, seeds)
			tc := make([]float64, seeds)
			for i, g := range group {
				tf[i], tc[i] = g.ThroughTFRC, g.ThroughTCP
			}
			cell.Seeds = seeds
			cell.ThroughTFRC, cell.ThroughTFRCCI = stats.MeanCI90(tf)
			cell.ThroughTCP, cell.ThroughTCPCI = stats.MeanCI90(tc)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res
}

// Table emits one row per bottleneck count.
func (r *ParkingLotResult) Table(w io.Writer) {
	fmt.Fprintln(w, "# Parking lot: through TFRC vs through TCP across k bottlenecks")
	fmt.Fprintf(w, "# %d cross TCP pairs per segment, %.0f Mb/s links, %s queues; throughput normalized by the per-bottleneck fair share\n",
		r.Params.CrossPairs, r.Params.LinkMbps, r.Params.Queue)
	if r.Params.Seeds > 1 {
		fmt.Fprintln(w, "# bottlenecks\tthroughTFRC\tci\tthroughTCP\tci\tcrossMean\tutil0\tdropRates")
	} else {
		fmt.Fprintln(w, "# bottlenecks\tthroughTFRC\tthroughTCP\tcrossMean\tutil0\tdropRates")
	}
	for _, c := range r.Cells {
		if c.Seeds > 1 {
			fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t",
				c.Bottlenecks, c.ThroughTFRC, c.ThroughTFRCCI,
				c.ThroughTCP, c.ThroughTCPCI, c.CrossMean, c.Utilization)
		} else {
			fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\t%.3f\t",
				c.Bottlenecks, c.ThroughTFRC, c.ThroughTCP, c.CrossMean, c.Utilization)
		}
		for i, d := range c.DropRates {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, "%.4f", d)
		}
		fmt.Fprintln(w)
	}
}
