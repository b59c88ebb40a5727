package exp

import (
	"fmt"
	"io"

	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
)

// Fig08Params reproduces Figure 8: throughput traces of individual TCP
// and TFRC flows sharing a 15 Mb/s bottleneck with 32 flows total,
// averaged over 0.15 s bins, once per queue discipline. The paper's RED
// parameters (footnote 1) are min 25, max 125, max_p 0.1, gentle.
type Fig08Params struct {
	Queues    []netsim.QueueKind // paper: DropTail and RED
	Flows     int                // total; half TCP half TFRC (paper: 32)
	Seed      int64
	Duration  float64 // paper: 30 s
	TraceFrom float64 // paper: second half, 16 s
	BinWidth  float64 // paper: 0.15 s
	NTrace    int     // flows of each type to trace (paper: 4)

	// Seeds > 1 repeats each queue's simulation at that many seeds on the
	// sweep runner and reports the smoothness summaries as means with 90%
	// confidence half-widths; traces stay the first seed's sample.
	Seeds int
}

// fig08LinkMbps is the paper's bottleneck rate.
const fig08LinkMbps = 15

// DefaultFig08 traces both queue disciplines at the paper's setup, at
// reduced duration.
func DefaultFig08() Fig08Params {
	return Fig08Params{
		Queues:    []netsim.QueueKind{netsim.QueueDropTail, netsim.QueueRED},
		Flows:     32,
		Seed:      1,
		Duration:  30,
		TraceFrom: 16,
		BinWidth:  0.15,
		NTrace:    4,
	}
}

// Validate implements Params.
func (p *Fig08Params) Validate() error {
	if len(p.Queues) == 0 {
		return fmt.Errorf("Queues must be non-empty")
	}
	if p.Flows < 2 {
		return fmt.Errorf("Flows must be at least 2 (half TCP, half TFRC), got %d", p.Flows)
	}
	if p.Duration <= 0 || p.TraceFrom < 0 || p.TraceFrom >= p.Duration {
		return fmt.Errorf("need 0 <= TraceFrom < Duration, got TraceFrom=%v Duration=%v",
			p.TraceFrom, p.Duration)
	}
	if p.BinWidth <= 0 {
		return fmt.Errorf("BinWidth must be positive, got %v", p.BinWidth)
	}
	if p.NTrace < 1 {
		return fmt.Errorf("NTrace must be at least 1, got %d", p.NTrace)
	}
	if err := checkReplicates("Seeds", p.Seeds, 0); err != nil {
		return err
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *Fig08Params) SetSeed(seed int64) { p.Seed = seed }

// SetSeeds implements SeedsSetter.
func (p *Fig08Params) SetSeeds(n int) { p.Seeds = n }

// Fig08GridResult is one Fig08Result per requested queue discipline.
type Fig08GridResult struct{ Results []*Fig08Result }

// fig08Cells flattens the (queue × seed) grid queue-major.
func fig08Cells(pr *Fig08Params) int { return len(pr.Queues) * max(pr.Seeds, 1) }

// fig08RunRange computes cells [r.Lo, r.Hi), one trace simulation per
// cell.
func fig08RunRange(pr *Fig08Params, r CellRange) []*Fig08Result {
	seeds := max(pr.Seeds, 1)
	return runCells(r.Len(), func(c *Cell, i int) *Fig08Result {
		idx := r.Lo + i
		return runFig08Seed(c, pr, pr.Queues[idx/seeds], idx%seeds)
	})
}

// fig08Reduce aggregates each queue's seeds in queue order: every queue
// keeps its first seed's traces, and with Seeds > 1 the CoV summaries
// aggregate to mean ± 90% CI.
func fig08Reduce(pr *Fig08Params, cells []*Fig08Result) *Fig08GridResult {
	seeds := max(pr.Seeds, 1)
	out := &Fig08GridResult{}
	for qi := range pr.Queues {
		group := cells[qi*seeds : (qi+1)*seeds]
		res := group[0]
		if seeds > 1 {
			covT := make([]float64, seeds)
			covF := make([]float64, seeds)
			for i, c := range group {
				covT[i], covF[i] = c.CoVTCP, c.CoVTFRC
			}
			res.Seeds = seeds
			res.CoVTCP, res.CoVTCPCI = stats.MeanCI90(covT)
			res.CoVTFRC, res.CoVTFRCCI = stats.MeanCI90(covF)
		}
		out.Results = append(out.Results, res)
	}
	return out
}

// Table emits each queue's block in order.
func (r *Fig08GridResult) Table(w io.Writer) {
	for _, res := range r.Results {
		res.Table(w)
	}
}

func init() {
	Register(Descriptor{
		Name:        "fig8",
		Aliases:     []string{"8"},
		Description: "per-flow throughput traces (DropTail and RED)",
		Params:      paramsFn[Fig08Params](DefaultFig08),
		Grid:        GridAs(fig08Cells, fig08RunRange, fig08Reduce),
	})
}

// Fig08Result carries the traced series plus smoothness summaries.
type Fig08Result struct {
	Queue      netsim.QueueKind
	BinWidth   float64
	TCPTraces  [][]float64 // bytes per bin
	TFRCTraces [][]float64
	CoVTCP     float64 // mean CoV across traced TCP flows
	CoVTFRC    float64

	// Multi-seed statistics (Seeds > 1): the CoV fields above become
	// means across seeds and the CI fields carry 90% half-widths.
	Seeds     int
	CoVTCPCI  float64
	CoVTFRCCI float64
}

// runFig08Seed runs one trace simulation of queue discipline q at seed
// replicate rep.
func runFig08Seed(c *Cell, pr *Fig08Params, q netsim.QueueKind, rep int) *Fig08Result {
	n := pr.Flows / 2
	sc := Scenario{
		NTCP:         n,
		NTFRC:        n,
		BottleneckBW: fig08LinkMbps * 1e6,
		Queue:        q,
		QueueLimit:   250,
		REDMin:       25,
		REDMax:       125,
		TCPVariant:   tcp.Sack,
		Duration:     pr.Duration,
		Warmup:       pr.TraceFrom,
		BinWidth:     pr.BinWidth,
		Seed:         pr.Seed + int64(rep)*6151,
	}
	res := runScenarioCell(c, sc)
	out := &Fig08Result{Queue: q, BinWidth: pr.BinWidth}
	for i := 0; i < pr.NTrace && i < len(res.TCPSeries); i++ {
		out.TCPTraces = append(out.TCPTraces, res.TCPSeries[i])
	}
	for i := 0; i < pr.NTrace && i < len(res.TFRCSeries); i++ {
		out.TFRCTraces = append(out.TFRCTraces, res.TFRCSeries[i])
	}
	var ct, cf float64
	for _, s := range out.TCPTraces {
		ct += stats.CoV(s)
	}
	for _, s := range out.TFRCTraces {
		cf += stats.CoV(s)
	}
	if len(out.TCPTraces) > 0 {
		out.CoVTCP = ct / float64(len(out.TCPTraces))
	}
	if len(out.TFRCTraces) > 0 {
		out.CoVTFRC = cf / float64(len(out.TFRCTraces))
	}
	return out
}

// Table emits the traces: "bin TF1..TFn TCP1..TCPn" in KB per bin.
func (r *Fig08Result) Table(w io.Writer) {
	fmt.Fprintf(w, "# Figure 8: per-flow throughput traces, %s queue (KB per %.2fs bin)\n",
		r.Queue, r.BinWidth)
	fmt.Fprint(w, "# time")
	for i := range r.TFRCTraces {
		fmt.Fprintf(w, "\tTF%d", i+1)
	}
	for i := range r.TCPTraces {
		fmt.Fprintf(w, "\tTCP%d", i+1)
	}
	fmt.Fprintln(w)
	bins := 0
	if len(r.TFRCTraces) > 0 {
		bins = len(r.TFRCTraces[0])
	}
	for b := 0; b < bins; b++ {
		fmt.Fprintf(w, "%.2f", float64(b)*r.BinWidth)
		for _, s := range r.TFRCTraces {
			fmt.Fprintf(w, "\t%.1f", s[b]/1000)
		}
		for _, s := range r.TCPTraces {
			if b < len(s) {
				fmt.Fprintf(w, "\t%.1f", s[b]/1000)
			}
		}
		fmt.Fprintln(w)
	}
	if r.Seeds > 1 {
		fmt.Fprintf(w, "# mean CoV over %d seeds: TFRC %.3f±%.3f, TCP %.3f±%.3f\n",
			r.Seeds, r.CoVTFRC, r.CoVTFRCCI, r.CoVTCP, r.CoVTCPCI)
		return
	}
	fmt.Fprintf(w, "# mean CoV: TFRC %.3f, TCP %.3f\n", r.CoVTFRC, r.CoVTCP)
}
