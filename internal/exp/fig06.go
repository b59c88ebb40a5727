package exp

import (
	"fmt"
	"io"

	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
)

// Fig06Params reproduces Figure 6: n TCP and n TFRC flows share a
// bottleneck across a grid of link rates and flow counts, for both
// DropTail and RED queues; the metric is the mean TCP throughput
// normalized by the fair share.
type Fig06Params struct {
	LinkMbps    []float64 // paper: 1..64
	TotalFlows  []int     // paper: 2..128 (half TCP, half TFRC)
	Queues      []netsim.QueueKind
	Duration    float64 // paper: 150 s
	MeasureTail float64 // paper: last 60 s
	Seed        int64

	// Seeds > 1 runs every grid cell that many times at distinct seeds
	// and reports per-cell means with 90% confidence half-widths — the
	// multi-seed mode the parallel runner makes affordable.
	Seeds int
}

// DefaultFig06 is a laptop-scale grid preserving the paper's span; the
// CLI can pass the full one.
func DefaultFig06() Fig06Params {
	return Fig06Params{
		LinkMbps:    []float64{1, 4, 16, 64},
		TotalFlows:  []int{2, 8, 32},
		Queues:      []netsim.QueueKind{netsim.QueueDropTail, netsim.QueueRED},
		Duration:    90,
		MeasureTail: 45,
		Seed:        1,
	}
}

// PaperFig06 is the full grid from the paper.
func PaperFig06() Fig06Params {
	return Fig06Params{
		LinkMbps:    []float64{1, 2, 4, 8, 16, 32, 64},
		TotalFlows:  []int{2, 8, 32, 128},
		Queues:      []netsim.QueueKind{netsim.QueueDropTail, netsim.QueueRED},
		Duration:    150,
		MeasureTail: 60,
		Seed:        1,
	}
}

// Validate implements Params.
func (p *Fig06Params) Validate() error {
	if len(p.LinkMbps) == 0 || len(p.TotalFlows) == 0 || len(p.Queues) == 0 {
		return fmt.Errorf("LinkMbps, TotalFlows, and Queues must all be non-empty")
	}
	for _, bw := range p.LinkMbps {
		if bw <= 0 {
			return fmt.Errorf("link rates must be positive, got %v", bw)
		}
	}
	for _, fl := range p.TotalFlows {
		if fl < 2 {
			return fmt.Errorf("total flows must be at least 2 (half TCP, half TFRC), got %d", fl)
		}
	}
	if p.Duration <= 0 || p.MeasureTail <= 0 || p.MeasureTail > p.Duration {
		return fmt.Errorf("need 0 < MeasureTail <= Duration, got MeasureTail=%v Duration=%v",
			p.MeasureTail, p.Duration)
	}
	if err := checkReplicates("Seeds", p.Seeds, 0); err != nil {
		return err
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *Fig06Params) SetSeed(seed int64) { p.Seed = seed }

// SetSeeds implements SeedsSetter.
func (p *Fig06Params) SetSeeds(n int) { p.Seeds = n }

func init() {
	Register(Descriptor{
		Name:        "fig6",
		Aliases:     []string{"6"},
		Description: "normalized TCP throughput vs link rate × flows × queue",
		Params:      paramsFn[Fig06Params](DefaultFig06),
		Presets:     map[string]func() Params{"paper": paramsFn[Fig06Params](PaperFig06)},
		Grid:        GridAs(fig06Cells, fig06RunRange, fig06Reduce),
	})
	Register(Descriptor{
		Name:        "fig7",
		Aliases:     []string{"7"},
		Description: "per-flow normalized throughput at 15 Mb/s RED",
		Params:      paramsFn[Fig07Params](DefaultFig07),
		Presets:     map[string]func() Params{"paper": paramsFn[Fig07Params](PaperFig07)},
		Grid:        GridAs(fig07Cells, fig07RunRange, fig07Reduce),
	})
}

// Fig06Cell is one grid cell.
type Fig06Cell struct {
	Queue       netsim.QueueKind
	LinkMbps    float64
	Flows       int // total (TCP + TFRC)
	NormTCP     float64
	NormTFRC    float64
	Utilization float64
	DropRate    float64
	PerFlowTCP  []float64 // normalized per-flow throughputs (Figure 7)
	PerFlowTFRC []float64

	// Multi-seed statistics: with Seeds > 1 the scalar metrics above are
	// means across seeds and the CI fields carry their 90% confidence
	// half-widths; PerFlowTCP/PerFlowTFRC remain the first seed's sample
	// (per-flow vectors are Figure 7 scatter input, not aggregated).
	// Seeds ≤ 1 leaves the CIs zero.
	Seeds      int
	NormTCPCI  float64
	NormTFRCCI float64
}

// Fig06Result is the full surface.
type Fig06Result struct{ Cells []Fig06Cell }

// runFig06Cell runs one (queue, link rate, flow count) point of the
// grid at one seed on a worker cell.
func runFig06Cell(c *Cell, queue netsim.QueueKind, linkMbps float64, flows int, duration, tail float64, seed int64) Fig06Cell {
	n := flows / 2
	sc := Scenario{
		NTCP:         n,
		NTFRC:        n,
		BottleneckBW: linkMbps * 1e6,
		Queue:        queue,
		TCPVariant:   tcp.Sack,
		Duration:     duration,
		Warmup:       duration - tail,
		BinWidth:     0.5,
		Seed:         seed,
	}
	res := runScenarioCell(c, sc)
	return Fig06Cell{
		Queue:       queue,
		LinkMbps:    linkMbps,
		Flows:       flows,
		NormTCP:     res.NormalizedMeanTCP(),
		NormTFRC:    res.NormalizedMeanTFRC(),
		Utilization: res.Utilization,
		DropRate:    res.DropRate,
		PerFlowTCP:  res.NormalizedPerFlow(res.TCPSeries),
		PerFlowTFRC: res.NormalizedPerFlow(res.TFRCSeries),
	}
}

// fig06Key is one (queue, link rate, flow count) grid point.
type fig06Key struct {
	q  netsim.QueueKind
	bw float64
	fl int
}

// fig06Keys flattens the grid axes in deterministic (queue, link,
// flows) order.
func fig06Keys(pr *Fig06Params) []fig06Key {
	keys := make([]fig06Key, 0, len(pr.Queues)*len(pr.LinkMbps)*len(pr.TotalFlows))
	for _, q := range pr.Queues {
		for _, bw := range pr.LinkMbps {
			for _, fl := range pr.TotalFlows {
				keys = append(keys, fig06Key{q, bw, fl})
			}
		}
	}
	return keys
}

// fig06Seeds is the per-grid-point replicate count (Seeds clamped ≥ 1).
func fig06Seeds(pr *Fig06Params) int {
	if pr.Seeds < 1 {
		return 1
	}
	return pr.Seeds
}

// fig06Cells is the flattened cell count: grid-major, seed-minor.
func fig06Cells(pr *Fig06Params) int {
	return len(pr.Queues) * len(pr.LinkMbps) * len(pr.TotalFlows) * fig06Seeds(pr)
}

// fig06RunRange computes cells [r.Lo, r.Hi) on the worker pool. Every
// cell is a pure function of its absolute index (replicate 0 uses
// pr.Seed itself so single-seed results are unchanged by sharding), so
// any sub-range on any machine computes the same values.
func fig06RunRange(pr *Fig06Params, r CellRange) []Fig06Cell {
	seeds := fig06Seeds(pr)
	keys := fig06Keys(pr)
	return runCells(r.Len(), func(c *Cell, i int) Fig06Cell {
		idx := r.Lo + i
		k, rep := keys[idx/seeds], idx%seeds
		return runFig06Cell(c, k.q, k.bw, k.fl, pr.Duration, pr.MeasureTail,
			pr.Seed+int64(rep)*6151)
	})
}

// fig06Reduce aggregates the full cell set in index order: each grid
// point's seed replicates collapse to means with 90% CI half-widths.
func fig06Reduce(pr *Fig06Params, raw []Fig06Cell) *Fig06Result {
	seeds := fig06Seeds(pr)
	res := &Fig06Result{}
	for c := 0; c < len(raw)/seeds; c++ {
		group := raw[c*seeds : (c+1)*seeds]
		cell := group[0]
		if seeds > 1 {
			normTCP := make([]float64, seeds)
			normTFRC := make([]float64, seeds)
			util := make([]float64, seeds)
			drop := make([]float64, seeds)
			for i, g := range group {
				normTCP[i], normTFRC[i] = g.NormTCP, g.NormTFRC
				util[i], drop[i] = g.Utilization, g.DropRate
			}
			cell.Seeds = seeds
			cell.NormTCP, cell.NormTCPCI = stats.MeanCI90(normTCP)
			cell.NormTFRC, cell.NormTFRCCI = stats.MeanCI90(normTFRC)
			cell.Utilization = stats.Mean(util)
			cell.DropRate = stats.Mean(drop)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res
}

// Table emits the surface as rows; multi-seed runs gain CI columns.
func (r *Fig06Result) Table(w io.Writer) {
	multiSeed := false
	for _, c := range r.Cells {
		if c.Seeds > 1 {
			multiSeed = true
			break
		}
	}
	fmt.Fprintln(w, "# Figure 6: normalized mean TCP throughput when competing with TFRC")
	if multiSeed {
		fmt.Fprintln(w, "# queue\tlink(Mbps)\tflows\tnormTCP\tci\tnormTFRC\tci\tutil\tdropRate")
		for _, c := range r.Cells {
			fmt.Fprintf(w, "%s\t%.0f\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.4f\n",
				c.Queue, c.LinkMbps, c.Flows, c.NormTCP, c.NormTCPCI,
				c.NormTFRC, c.NormTFRCCI, c.Utilization, c.DropRate)
		}
		return
	}
	fmt.Fprintln(w, "# queue\tlink(Mbps)\tflows\tnormTCP\tnormTFRC\tutil\tdropRate")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%s\t%.0f\t%d\t%.3f\t%.3f\t%.3f\t%.4f\n",
			c.Queue, c.LinkMbps, c.Flows, c.NormTCP, c.NormTFRC, c.Utilization, c.DropRate)
	}
}

// fig07Cells is one cell per flow count.
func fig07Cells(pr *Fig07Params) int { return len(pr.TotalFlows) }

// fig07RunRange computes the column cells [r.Lo, r.Hi).
func fig07RunRange(pr *Fig07Params, r CellRange) []Fig06Cell {
	return runCells(r.Len(), func(c *Cell, i int) Fig06Cell {
		return runFig06Cell(c, netsim.QueueRED, 15, pr.TotalFlows[r.Lo+i],
			pr.Duration, pr.MeasureTail, pr.Seed)
	})
}

// fig07Reduce wraps the full column.
func fig07Reduce(_ *Fig07Params, cells []Fig06Cell) *Fig07Result {
	return &Fig07Result{Cells: cells}
}

// Fig07Params is the Figure 7 column: flow counts at 15 Mb/s RED.
type Fig07Params struct {
	TotalFlows  []int
	Duration    float64
	MeasureTail float64
	Seed        int64
}

// DefaultFig07 is the laptop-scale column.
func DefaultFig07() Fig07Params {
	return Fig07Params{TotalFlows: []int{16, 32, 64}, Duration: 60, MeasureTail: 30, Seed: 1}
}

// PaperFig07 is the paper's full flow ladder.
func PaperFig07() Fig07Params {
	return Fig07Params{
		TotalFlows:  []int{16, 32, 48, 64, 80, 96, 112, 128},
		Duration:    150,
		MeasureTail: 60,
		Seed:        1,
	}
}

// Validate implements Params.
func (p *Fig07Params) Validate() error {
	if len(p.TotalFlows) == 0 {
		return fmt.Errorf("TotalFlows must be non-empty")
	}
	for _, fl := range p.TotalFlows {
		if fl < 2 {
			return fmt.Errorf("total flows must be at least 2 (half TCP, half TFRC), got %d", fl)
		}
	}
	if p.Duration <= 0 || p.MeasureTail <= 0 || p.MeasureTail > p.Duration {
		return fmt.Errorf("need 0 < MeasureTail <= Duration, got MeasureTail=%v Duration=%v",
			p.MeasureTail, p.Duration)
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *Fig07Params) SetSeed(seed int64) { p.Seed = seed }

// Fig07Result wraps the per-flow scatter cells.
type Fig07Result struct{ Cells []Fig06Cell }

// Table emits the per-flow scatter for the 15 Mb/s RED column
// (Figure 7): one row per flow.
func (r *Fig07Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 7: per-flow normalized throughput, RED")
	fmt.Fprintln(w, "# flows\tprotocol\tnormThroughput")
	for _, c := range r.Cells {
		for _, v := range c.PerFlowTCP {
			fmt.Fprintf(w, "%d\tTCP\t%.3f\n", c.Flows, v)
		}
		for _, v := range c.PerFlowTFRC {
			fmt.Fprintf(w, "%d\tTFRC\t%.3f\n", c.Flows, v)
		}
	}
}
