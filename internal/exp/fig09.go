package exp

import (
	"fmt"
	"io"

	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
)

// Fig09Params reproduces Figures 9 and 10: equivalence ratio and
// coefficient of variation as functions of the measurement timescale, for
// 16 SACK TCP and 16 TFRC flows on a 15 Mb/s RED bottleneck with
// per-flow base RTTs uniform in [80, 120] ms, averaged over several runs
// with 90% confidence intervals (the paper uses 14 runs of 150 s,
// measuring the last 100 s).
type Fig09Params struct {
	Runs       int
	FlowsEach  int // TCP count = TFRC count (paper: 16)
	Duration   float64
	Warmup     float64
	Timescales []float64
	Seed       int64
}

// DefaultFig09 is a reduced-cost version of the paper's setup.
func DefaultFig09() Fig09Params {
	return Fig09Params{
		Runs:       4,
		FlowsEach:  16,
		Duration:   60,
		Warmup:     20,
		Timescales: []float64{0.2, 0.5, 1, 2, 5, 10},
		Seed:       1,
	}
}

// PaperFig09 matches the paper's methodology.
func PaperFig09() Fig09Params {
	p := DefaultFig09()
	p.Runs = 14
	p.Duration = 150
	p.Warmup = 50
	return p
}

// Validate implements Params.
func (p *Fig09Params) Validate() error {
	if p.Runs < 1 {
		return fmt.Errorf("Runs must be at least 1, got %d", p.Runs)
	}
	if p.FlowsEach < 2 {
		return fmt.Errorf("FlowsEach must be at least 2 (the equivalence ratio pairs flows), got %d", p.FlowsEach)
	}
	if p.Duration <= 0 || p.Warmup < 0 || p.Warmup >= p.Duration {
		return fmt.Errorf("need 0 <= Warmup < Duration, got Warmup=%v Duration=%v", p.Warmup, p.Duration)
	}
	return validateTimescales(p.Timescales)
}

// SetSeed implements SeedSetter.
func (p *Fig09Params) SetSeed(seed int64) { p.Seed = seed }

func init() {
	Register(Descriptor{
		Name:        "fig9",
		Aliases:     []string{"9", "fig10", "10"},
		Description: "equivalence ratio and CoV vs timescale (incl. fig 10)",
		Params:      paramsFn[Fig09Params](DefaultFig09),
		Presets:     map[string]func() Params{"paper": paramsFn[Fig09Params](PaperFig09)},
		Grid:        GridAs(fig09Cells, fig09RunRange, fig09Reduce),
	})
}

// MeanCI is a mean with its 90% confidence half-width.
type MeanCI struct{ Mean, CI float64 }

// Fig09Result carries one curve per pairing (Figure 9) and the CoV
// curves (Figure 10).
type Fig09Result struct {
	Timescales []float64
	TCPvTCP    []MeanCI
	TFRCvTFRC  []MeanCI
	TCPvTFRC   []MeanCI
	CoVTCP     []MeanCI
	CoVTFRC    []MeanCI
}

// Fig09Run carries one run's per-timescale metrics, aligned with
// Params.Timescales. Exported (with JSON-round-trippable fields) so a
// run is a shard-able grid cell.
type Fig09Run struct {
	EqTT, EqFF, EqTF, CoVT, CoVF []float64
}

// fig09Cells is one cell per independent run.
func fig09Cells(pr *Fig09Params) int { return pr.Runs }

// fig09RunRange computes runs [r.Lo, r.Hi), each an independent
// simulation whose seed derives from its absolute run index.
func fig09RunRange(pr *Fig09Params, r CellRange) []Fig09Run {
	nscale := len(pr.Timescales)
	return runCells(r.Len(), func(c *Cell, i int) Fig09Run {
		run := r.Lo + i
		sc := Scenario{
			NTCP:          pr.FlowsEach,
			NTFRC:         pr.FlowsEach,
			BottleneckBW:  15e6,
			BottleneckDly: 0.025,
			Queue:         netsim.QueueRED,
			QueueLimit:    100,
			REDMin:        10,
			REDMax:        50,
			AccessDlyMin:  0.0075,
			AccessDlyMax:  0.0175,
			TCPVariant:    tcp.Sack,
			Duration:      pr.Duration,
			Warmup:        pr.Warmup,
			BinWidth:      baseBin,
			Seed:          pr.Seed + int64(run)*1000,
		}
		res := runScenarioCell(c, sc)
		tcp0, tcp1 := res.TCPSeries[0], res.TCPSeries[1]
		tf0, tf1 := res.TFRCSeries[0], res.TFRCSeries[1]
		out := Fig09Run{
			EqTT: make([]float64, nscale), EqFF: make([]float64, nscale),
			EqTF: make([]float64, nscale),
			CoVT: make([]float64, nscale), CoVF: make([]float64, nscale),
		}
		for i, ts := range pr.Timescales {
			k := rebinFactor(ts)
			a, b := stats.Rebin(tcp0, k), stats.Rebin(tcp1, k)
			f, g := stats.Rebin(tf0, k), stats.Rebin(tf1, k)
			out.EqTT[i] = stats.EquivalenceRatio(a, b)
			out.EqFF[i] = stats.EquivalenceRatio(f, g)
			out.EqTF[i] = stats.EquivalenceRatio(a, f)
			out.CoVT[i] = stats.CoV(a)
			out.CoVF[i] = stats.CoV(f)
		}
		return out
	})
}

// fig09Reduce aggregates all runs into per-timescale means with 90% CI.
func fig09Reduce(pr *Fig09Params, runs []Fig09Run) *Fig09Result {
	nscale := len(pr.Timescales)

	// per-timescale collections across runs, in run order
	eqTT := make([][]float64, nscale)
	eqFF := make([][]float64, nscale)
	eqTF := make([][]float64, nscale)
	covT := make([][]float64, nscale)
	covF := make([][]float64, nscale)
	for _, r := range runs {
		for i := 0; i < nscale; i++ {
			eqTT[i] = append(eqTT[i], r.EqTT[i])
			eqFF[i] = append(eqFF[i], r.EqFF[i])
			eqTF[i] = append(eqTF[i], r.EqTF[i])
			covT[i] = append(covT[i], r.CoVT[i])
			covF[i] = append(covF[i], r.CoVF[i])
		}
	}

	res := &Fig09Result{Timescales: pr.Timescales}
	collect := func(samples [][]float64) []MeanCI {
		out := make([]MeanCI, nscale)
		for i, xs := range samples {
			m, ci := stats.MeanCI90(xs)
			out[i] = MeanCI{m, ci}
		}
		return out
	}
	res.TCPvTCP = collect(eqTT)
	res.TFRCvTFRC = collect(eqFF)
	res.TCPvTFRC = collect(eqTF)
	res.CoVTCP = collect(covT)
	res.CoVTFRC = collect(covF)
	return res
}

// RunFig09 runs the multi-run study, one independent simulation per run
// on the sweep runner; runs merge back in run order so results are
// identical at any parallelism.
func RunFig09(pr Fig09Params) *Fig09Result {
	return fig09Reduce(&pr, fig09RunRange(&pr, CellRange{0, fig09Cells(&pr)}))
}

// Table implements Result.
func (r *Fig09Result) Table(w io.Writer) { r.Print(w) }

// Print emits both figures' rows.
func (r *Fig09Result) Print(w io.Writer) {
	fmt.Fprintln(w, "# Figure 9: equivalence ratio vs measurement timescale (mean ± 90% CI)")
	fmt.Fprintln(w, "# timescale\tTFRCvTFRC\tci\tTCPvTCP\tci\tTFRCvTCP\tci")
	for i, ts := range r.Timescales {
		fmt.Fprintf(w, "%.1f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n", ts,
			r.TFRCvTFRC[i].Mean, r.TFRCvTFRC[i].CI,
			r.TCPvTCP[i].Mean, r.TCPvTCP[i].CI,
			r.TCPvTFRC[i].Mean, r.TCPvTFRC[i].CI)
	}
	fmt.Fprintln(w, "# Figure 10: coefficient of variation vs timescale")
	fmt.Fprintln(w, "# timescale\tTFRC\tci\tTCP\tci")
	for i, ts := range r.Timescales {
		fmt.Fprintf(w, "%.1f\t%.3f\t%.3f\t%.3f\t%.3f\n", ts,
			r.CoVTFRC[i].Mean, r.CoVTFRC[i].CI,
			r.CoVTCP[i].Mean, r.CoVTCP[i].CI)
	}
}
