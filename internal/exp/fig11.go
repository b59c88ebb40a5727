package exp

import (
	"fmt"
	"io"
	"math"

	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
)

// Fig11Params reproduces Figures 11-13: one long-lived TCP and one
// long-lived TFRC flow monitored over self-similar ON/OFF background
// traffic (mean ON 1 s, mean OFF 2 s, 500 kb/s while ON, Pareto shape
// 1.5) on the 15 Mb/s RED bottleneck, sweeping the number of sources.
type Fig11Params struct {
	Sources    []int // paper: 50..150
	Duration   float64
	Warmup     float64
	Timescales []float64
	Runs       int
	Seed       int64
}

// DefaultFig11 reduces the paper's 5000 s × 10 runs to test scale.
func DefaultFig11() Fig11Params {
	return Fig11Params{
		Sources:    []int{60, 100, 130, 150},
		Duration:   200,
		Warmup:     50,
		Timescales: []float64{0.5, 1, 2, 5, 10, 20, 50},
		Runs:       2,
		Seed:       1,
	}
}

// PaperFig11 matches the paper's scale (long!).
func PaperFig11() Fig11Params {
	p := DefaultFig11()
	p.Sources = []int{50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150}
	p.Duration = 5000
	p.Warmup = 100
	p.Runs = 10
	return p
}

// Validate implements Params.
func (p *Fig11Params) Validate() error {
	if len(p.Sources) == 0 {
		return fmt.Errorf("Sources must be non-empty")
	}
	for _, n := range p.Sources {
		if n < 1 {
			return fmt.Errorf("source counts must be at least 1, got %d", n)
		}
	}
	if p.Duration <= 0 || p.Warmup < 0 || p.Warmup >= p.Duration {
		return fmt.Errorf("need 0 <= Warmup < Duration, got Warmup=%v Duration=%v", p.Warmup, p.Duration)
	}
	if err := validateTimescales(p.Timescales); err != nil {
		return err
	}
	if p.Runs < 1 {
		return fmt.Errorf("Runs must be at least 1, got %d", p.Runs)
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *Fig11Params) SetSeed(seed int64) { p.Seed = seed }

func init() {
	Register(Descriptor{
		Name:        "fig11",
		Aliases:     []string{"11", "fig12", "12", "fig13", "13"},
		Description: "ON/OFF background sweep (incl. figs 12, 13)",
		Params:      paramsFn[Fig11Params](DefaultFig11),
		Presets:     map[string]func() Params{"paper": paramsFn[Fig11Params](PaperFig11)},
		Grid:        GridAs(fig11Cells, fig11RunRange, fig11Reduce),
	})
}

// baseBin is the bin width (seconds) the timescale studies (figures
// 9-13, 16 and 17) record their series at; every coarser timescale is a
// whole number of base bins merged by stats.Rebin.
const baseBin = 0.1

// validateTimescales accepts only timescales that are whole multiples
// (at least 1) of baseBin: a rebin cannot measure anything finer or in
// between.
func validateTimescales(timescales []float64) error {
	if len(timescales) == 0 {
		return fmt.Errorf("Timescales must be non-empty")
	}
	for _, ts := range timescales {
		if k := math.Round(ts / baseBin); !(k >= 1 && math.Abs(ts/baseBin-k) <= 1e-9*k) {
			return fmt.Errorf("timescales must be whole multiples of the %v s base bin, got %v", baseBin, ts)
		}
	}
	return nil
}

// rebinFactor is the number of base bins in a validated timescale.
func rebinFactor(ts float64) int { return int(ts/baseBin + 0.5) }

// timescaleMetrics rebins a TCP and a TFRC series recorded at baseBin to
// each timescale, returning per timescale their equivalence ratio and
// the TFRC and TCP coefficients of variation.
func timescaleMetrics(tcpS, tfS, timescales []float64) (eq, covTFRC, covTCP []float64) {
	for _, ts := range timescales {
		k := rebinFactor(ts)
		a, f := stats.Rebin(tcpS, k), stats.Rebin(tfS, k)
		eq = append(eq, stats.EquivalenceRatio(a, f))
		covTFRC = append(covTFRC, stats.CoV(f))
		covTCP = append(covTCP, stats.CoV(a))
	}
	return eq, covTFRC, covTCP
}

// Fig11Row summarizes one source count.
type Fig11Row struct {
	Sources  int
	LossRate MeanCI // bottleneck drop fraction (Figure 11)
	// Per-timescale metrics (Figures 12 and 13), aligned with
	// Params.Timescales.
	EqTCPvTFRC []MeanCI
	CoVTFRC    []MeanCI
	CoVTCP     []MeanCI
}

// Fig11Result is the sweep.
type Fig11Result struct {
	Timescales []float64
	Rows       []Fig11Row
}

// Fig11Cell is one (source count, run) cell's harvest. Exported (with
// JSON-round-trippable fields) so the sweep is shard-able.
type Fig11Cell struct {
	Loss    float64
	Eq      []float64 // aligned with Params.Timescales
	CoVTFRC []float64
	CoVTCP  []float64
}

// fig11Cells flattens the sweep source-major, run-minor.
func fig11Cells(pr *Fig11Params) int { return len(pr.Sources) * pr.Runs }

// fig11RunRange computes cells [r.Lo, r.Hi); each cell's seed derives
// from its absolute (source count, run) coordinates.
func fig11RunRange(pr *Fig11Params, r CellRange) []Fig11Cell {
	return runCells(r.Len(), func(c *Cell, i int) Fig11Cell {
		idx := r.Lo + i
		n, run := pr.Sources[idx/pr.Runs], idx%pr.Runs
		sc := Scenario{
			NTCP:          1,
			NTFRC:         1,
			BottleneckBW:  15e6,
			BottleneckDly: 0.025,
			Queue:         netsim.QueueRED,
			QueueLimit:    100,
			REDMin:        10,
			REDMax:        50,
			TCPVariant:    tcp.Sack,
			OnOffSources:  n,
			Duration:      pr.Duration,
			Warmup:        pr.Warmup,
			BinWidth:      baseBin,
			Seed:          pr.Seed + int64(run)*977 + int64(n),
		}
		sr := runScenarioCell(c, sc)
		out := Fig11Cell{Loss: sr.DropRate}
		out.Eq, out.CoVTFRC, out.CoVTCP = timescaleMetrics(sr.TCPSeries[0], sr.TFRCSeries[0], pr.Timescales)
		return out
	})
}

// fig11Reduce aggregates each source count's runs in run order.
func fig11Reduce(pr *Fig11Params, cells []Fig11Cell) *Fig11Result {
	nscale := len(pr.Timescales)
	res := &Fig11Result{Timescales: pr.Timescales}
	for si, n := range pr.Sources {
		group := cells[si*pr.Runs : (si+1)*pr.Runs]
		loss := make([]float64, 0, pr.Runs)
		eq := make([][]float64, nscale)
		cvF := make([][]float64, nscale)
		cvT := make([][]float64, nscale)
		for _, c := range group {
			loss = append(loss, c.Loss)
			for i := 0; i < nscale; i++ {
				eq[i] = append(eq[i], c.Eq[i])
				cvF[i] = append(cvF[i], c.CoVTFRC[i])
				cvT[i] = append(cvT[i], c.CoVTCP[i])
			}
		}
		row := Fig11Row{Sources: n}
		m, ci := stats.MeanCI90(loss)
		row.LossRate = MeanCI{m, ci}
		for i := range pr.Timescales {
			m, ci := stats.MeanCI90(eq[i])
			row.EqTCPvTFRC = append(row.EqTCPvTFRC, MeanCI{m, ci})
			m, ci = stats.MeanCI90(cvF[i])
			row.CoVTFRC = append(row.CoVTFRC, MeanCI{m, ci})
			m, ci = stats.MeanCI90(cvT[i])
			row.CoVTCP = append(row.CoVTCP, MeanCI{m, ci})
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// RunFig11 runs the sweep: the (sources × runs) grid flattens onto the
// worker pool, then each source count aggregates its runs in run order.
func RunFig11(pr Fig11Params) *Fig11Result {
	return fig11Reduce(&pr, fig11RunRange(&pr, CellRange{0, fig11Cells(&pr)}))
}

// Table implements Result.
func (r *Fig11Result) Table(w io.Writer) { r.Print(w) }

// Print emits all three figures' rows.
func (r *Fig11Result) Print(w io.Writer) {
	fmt.Fprintln(w, "# Figure 11: bottleneck loss rate vs number of ON/OFF sources")
	fmt.Fprintln(w, "# sources\tlossRate\tci")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\n", row.Sources, row.LossRate.Mean, row.LossRate.CI)
	}
	fmt.Fprintln(w, "# Figure 12: TCP/TFRC equivalence ratio vs timescale, by source count")
	fmt.Fprint(w, "# timescale")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "\tN=%d", row.Sources)
	}
	fmt.Fprintln(w)
	for i, ts := range r.Timescales {
		fmt.Fprintf(w, "%.1f", ts)
		for _, row := range r.Rows {
			fmt.Fprintf(w, "\t%.3f", row.EqTCPvTFRC[i].Mean)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "# Figure 13: CoV vs timescale (TFRC, then TCP), by source count")
	for i, ts := range r.Timescales {
		fmt.Fprintf(w, "%.1f", ts)
		for _, row := range r.Rows {
			fmt.Fprintf(w, "\t%.3f", row.CoVTFRC[i].Mean)
		}
		for _, row := range r.Rows {
			fmt.Fprintf(w, "\t%.3f", row.CoVTCP[i].Mean)
		}
		fmt.Fprintln(w)
	}
}
