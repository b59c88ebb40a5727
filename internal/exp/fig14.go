package exp

import (
	"fmt"
	"io"

	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
)

// Fig14Params reproduces Figure 14: queue dynamics at a 15 Mb/s DropTail
// bottleneck carrying 40 long-lived flows (start times spread over 20 s)
// plus ~20% short-lived background TCP and a little reverse traffic —
// once with all-TCP long-lived flows, once with all-TFRC.
type Fig14Params struct {
	Flows    int     // paper: 40
	Stagger  float64 // paper: 20 s
	Duration float64 // paper: ~25 s shown
	LinkMbps float64
	Queue    int // bottleneck buffer in packets
	MiceLoad float64
	Seed     int64

	// Seeds > 1 repeats both sides at that many seeds on the sweep
	// runner; scalar summaries become means with 90% confidence
	// half-widths and queue traces stay the first seed's sample.
	Seeds int
}

// DefaultFig14 matches the paper's setup.
func DefaultFig14() Fig14Params {
	return Fig14Params{
		Flows:    40,
		Stagger:  20,
		Duration: 25,
		LinkMbps: 15,
		Queue:    250,
		MiceLoad: 0.2,
		Seed:     1,
	}
}

// Validate implements Params.
func (p *Fig14Params) Validate() error {
	if p.Flows < 1 {
		return fmt.Errorf("Flows must be at least 1, got %d", p.Flows)
	}
	if p.Stagger < 0 {
		return fmt.Errorf("Stagger must be non-negative, got %v", p.Stagger)
	}
	if p.Duration <= 0 {
		return fmt.Errorf("Duration must be positive, got %v", p.Duration)
	}
	if p.LinkMbps <= 0 {
		return fmt.Errorf("LinkMbps must be positive, got %v", p.LinkMbps)
	}
	if p.Queue < 1 {
		return fmt.Errorf("Queue must be at least 1 packet, got %d", p.Queue)
	}
	if p.MiceLoad < 0 {
		return fmt.Errorf("MiceLoad must be non-negative, got %v", p.MiceLoad)
	}
	if err := checkReplicates("Seeds", p.Seeds, 0); err != nil {
		return err
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *Fig14Params) SetSeed(seed int64) { p.Seed = seed }

// SetSeeds implements SeedsSetter.
func (p *Fig14Params) SetSeeds(n int) { p.Seeds = n }

func init() {
	Register(Descriptor{
		Name:        "fig14",
		Aliases:     []string{"14"},
		Description: "queue dynamics: 40 TCP vs 40 TFRC flows",
		Params:      paramsFn[Fig14Params](DefaultFig14),
		Grid:        GridAs(fig14Cells, fig14RunRange, fig14Reduce),
	})
}

// Fig14Side is one of the two runs. With Seeds > 1 the scalar fields
// are means across seeds and the CI fields carry 90% half-widths.
type Fig14Side struct {
	Protocol    string
	Queue       []netsim.QueueSample
	QueueMean   float64
	Utilization float64
	DropRate    float64

	Seeds         int
	QueueMeanCI   float64
	UtilizationCI float64
	DropRateCI    float64
}

// Fig14Result pairs the TCP and TFRC runs.
type Fig14Result struct{ TCP, TFRC Fig14Side }

func runFig14Side(c *Cell, pr *Fig14Params, useTFRC bool, seed int64) Fig14Side {
	sc := Scenario{
		BottleneckBW:  pr.LinkMbps * 1e6,
		BottleneckDly: 0.010, // paper: RTTs roughly 45 ms
		Queue:         netsim.QueueDropTail,
		QueueLimit:    pr.Queue,
		TCPVariant:    tcp.Sack,
		MiceLoad:      pr.MiceLoad,
		Duration:      pr.Duration,
		Warmup:        0,
		BinWidth:      0.15,
		StaggerStarts: pr.Stagger,
		Seed:          seed,
	}
	name := "TCP"
	if useTFRC {
		sc.NTFRC = pr.Flows
		name = "TFRC"
	} else {
		sc.NTCP = pr.Flows
	}
	r := runScenarioCell(c, sc)
	return Fig14Side{
		Protocol:    name,
		Queue:       r.Queue,
		QueueMean:   r.QueueMean,
		Utilization: r.Utilization,
		DropRate:    r.DropRate,
	}
}

// fig14Cells flattens the (side × seed) grid side-major: TCP first.
func fig14Cells(pr *Fig14Params) int { return 2 * max(pr.Seeds, 1) }

// fig14RunRange computes cells [r.Lo, r.Hi), one side at one seed each.
func fig14RunRange(pr *Fig14Params, r CellRange) []Fig14Side {
	seeds := max(pr.Seeds, 1)
	return runCells(r.Len(), func(c *Cell, i int) Fig14Side {
		idx := r.Lo + i
		useTFRC, rep := idx/seeds == 1, idx%seeds
		return runFig14Side(c, pr, useTFRC, pr.Seed+int64(rep)*6151)
	})
}

// fig14Reduce keeps each side's first-seed queue trace; multi-seed runs
// aggregate the scalar summaries to mean ± 90% CI.
func fig14Reduce(pr *Fig14Params, cells []Fig14Side) *Fig14Result {
	seeds := max(pr.Seeds, 1)
	aggregate := func(group []Fig14Side) Fig14Side {
		side := group[0]
		if seeds > 1 {
			qm := make([]float64, seeds)
			ut := make([]float64, seeds)
			dr := make([]float64, seeds)
			for i, g := range group {
				qm[i], ut[i], dr[i] = g.QueueMean, g.Utilization, g.DropRate
			}
			side.Seeds = seeds
			side.QueueMean, side.QueueMeanCI = stats.MeanCI90(qm)
			side.Utilization, side.UtilizationCI = stats.MeanCI90(ut)
			side.DropRate, side.DropRateCI = stats.MeanCI90(dr)
		}
		return side
	}
	return &Fig14Result{
		TCP:  aggregate(cells[:seeds]),
		TFRC: aggregate(cells[seeds:]),
	}
}

// Table emits the queue traces and the summary comparison.
func (r *Fig14Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 14: queue dynamics, 40 long-lived TCP vs TFRC flows, DropTail")
	for _, side := range []Fig14Side{r.TCP, r.TFRC} {
		if side.Seeds > 1 {
			fmt.Fprintf(w, "## %s (%d seeds): util %.3f±%.3f, drop rate %.4f±%.4f, mean queue %.1f±%.1f pkts\n",
				side.Protocol, side.Seeds, side.Utilization, side.UtilizationCI,
				side.DropRate, side.DropRateCI, side.QueueMean, side.QueueMeanCI)
		} else {
			fmt.Fprintf(w, "## %s: util %.3f, drop rate %.4f, mean queue %.1f pkts\n",
				side.Protocol, side.Utilization, side.DropRate, side.QueueMean)
		}
		for _, s := range side.Queue {
			fmt.Fprintf(w, "%.2f\t%d\n", s.Time, s.Len)
		}
	}
}
