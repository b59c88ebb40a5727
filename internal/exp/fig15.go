package exp

import (
	"fmt"
	"io"

	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
)

// Path is an emulated Internet path profile — the substitution for the
// paper's real-world measurement sites (§4.3, Figures 15-17). Each
// profile captures what actually drove the paper's per-site differences:
// bandwidth, base RTT, buffer, the peer TCP's flavor and timer behavior,
// and background load.
type Path struct {
	Name           string
	BW             float64 // bits/sec
	RTT            float64 // base round-trip, seconds
	QueueLimit     int     // DropTail buffer, packets
	TCPVariant     tcp.Variant
	TCPGranularity float64
	TCPAggressive  bool
	OnOffSources   int // light cross traffic
}

// Paths returns the catalogue standing in for the paper's measurement
// sites. "UMASS (Solaris)" carries the aggressive-RTO sender that the
// paper diagnosed as retransmitting spuriously; "Nokia, Boston" is the
// heavily buffered T1.
func Paths() []Path {
	return []Path{
		{Name: "UCL", BW: 2e6, RTT: 0.150, QueueLimit: 40,
			TCPVariant: tcp.Sack, TCPGranularity: 0.1, OnOffSources: 4},
		{Name: "Mannheim", BW: 5e6, RTT: 0.035, QueueLimit: 60,
			TCPVariant: tcp.NewReno, TCPGranularity: 0.1, OnOffSources: 2},
		{Name: "UMASS (Linux)", BW: 10e6, RTT: 0.070, QueueLimit: 100,
			TCPVariant: tcp.Sack, TCPGranularity: 0.01, OnOffSources: 2},
		{Name: "UMASS (Solaris)", BW: 10e6, RTT: 0.070, QueueLimit: 100,
			TCPVariant: tcp.Reno, TCPGranularity: 0.01, TCPAggressive: true, OnOffSources: 2},
		{Name: "Nokia, Boston", BW: 1.544e6, RTT: 0.060, QueueLimit: 30,
			TCPVariant: tcp.Reno, TCPGranularity: 0.5, OnOffSources: 2},
	}
}

func pathScenario(p Path, nTCP, nTFRC int, duration, warmup float64, seed int64) Scenario {
	return Scenario{
		NTCP:           nTCP,
		NTFRC:          nTFRC,
		BottleneckBW:   p.BW,
		BottleneckDly:  p.RTT/2 - 0.002,
		Queue:          netsim.QueueDropTail,
		QueueLimit:     p.QueueLimit,
		TCPVariant:     p.TCPVariant,
		TCPGranularity: p.TCPGranularity,
		TCPAggressive:  p.TCPAggressive,
		OnOffSources:   p.OnOffSources,
		Duration:       duration,
		Warmup:         warmup,
		BinWidth:       baseBin,
		Seed:           seed,
	}
}

// Fig15Params is the registry's parameter struct for the Figure 15
// trace experiment on the transcontinental (UCL) path profile.
type Fig15Params struct {
	Duration float64
	Seed     int64
	Seeds    int
}

// DefaultFig15 is the laptop-scale run.
func DefaultFig15() Fig15Params { return Fig15Params{Duration: 120, Seed: 1} }

// PaperFig15 matches the paper's 300 s traces.
func PaperFig15() Fig15Params { return Fig15Params{Duration: 300, Seed: 1} }

// Validate implements Params.
func (p *Fig15Params) Validate() error {
	if p.Duration <= 0 {
		return fmt.Errorf("Duration must be positive, got %v", p.Duration)
	}
	if err := checkReplicates("Seeds", p.Seeds, 0); err != nil {
		return err
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *Fig15Params) SetSeed(seed int64) { p.Seed = seed }

// SetSeeds implements SeedsSetter.
func (p *Fig15Params) SetSeeds(n int) { p.Seeds = n }

// Fig16Params is the registry's parameter struct for the per-path
// equivalence study (Figures 16 and 17).
type Fig16Params struct {
	Timescales []float64
	Duration   float64
	Seed       int64
}

// DefaultFig16 is the laptop-scale study.
func DefaultFig16() Fig16Params {
	return Fig16Params{Timescales: []float64{0.5, 1, 2, 5, 10, 20, 50}, Duration: 120, Seed: 1}
}

// PaperFig16 matches the paper's 600 s per-path runs.
func PaperFig16() Fig16Params {
	p := DefaultFig16()
	p.Duration = 600
	return p
}

// Validate implements Params.
func (p *Fig16Params) Validate() error {
	if err := validateTimescales(p.Timescales); err != nil {
		return err
	}
	if p.Duration <= 0 {
		return fmt.Errorf("Duration must be positive, got %v", p.Duration)
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *Fig16Params) SetSeed(seed int64) { p.Seed = seed }

func init() {
	Register(Descriptor{
		Name:        "fig15",
		Aliases:     []string{"15"},
		Description: "3 TCP + 1 TFRC on the transcontinental path profile",
		Params:      paramsFn[Fig15Params](DefaultFig15),
		Presets:     map[string]func() Params{"paper": paramsFn[Fig15Params](PaperFig15)},
		Grid:        GridAs(fig15Cells, fig15RunRange, fig15Reduce),
	})
	Register(Descriptor{
		Name:        "fig16",
		Aliases:     []string{"16", "fig17", "17"},
		Description: "equivalence and CoV across path profiles (incl. fig 17)",
		Params:      paramsFn[Fig16Params](DefaultFig16),
		Presets:     map[string]func() Params{"paper": paramsFn[Fig16Params](PaperFig16)},
		Grid:        GridAs(fig16Cells, fig16RunRange, fig16Reduce),
	})
}

// Fig15Result is the Figure 15 trace: three TCP flows and one TFRC flow
// on the transcontinental profile, bandwidth in 1 s bins. With seeds > 1
// the scalar summaries are means across seeds with 90% half-widths in
// the CI fields; traces stay the first seed's sample.
type Fig15Result struct {
	BinWidth   float64
	TCPTraces  [][]float64 // bytes per bin
	TFRCTrace  []float64
	MeanTCP    float64 // bytes/sec, averaged over the TCP flows
	MeanTFRC   float64
	CoVTCPMean float64
	CoVTFRC    float64

	Seeds      int
	MeanTCPCI  float64
	MeanTFRCCI float64
}

func runFig15Seed(c *Cell, duration float64, seed int64) *Fig15Result {
	p := Paths()[0]
	sc := pathScenario(p, 3, 1, duration, duration/6, seed)
	sc.BinWidth = 1.0
	r := runScenarioCell(c, sc)
	out := &Fig15Result{BinWidth: 1.0, TFRCTrace: r.TFRCSeries[0]}
	out.TCPTraces = r.TCPSeries
	var covSum float64
	for _, s := range r.TCPSeries {
		out.MeanTCP += stats.Mean(s)
		covSum += stats.CoV(s)
	}
	out.MeanTCP /= float64(len(r.TCPSeries))
	out.CoVTCPMean = covSum / float64(len(r.TCPSeries))
	out.MeanTFRC = stats.Mean(r.TFRCSeries[0])
	out.CoVTFRC = stats.CoV(r.TFRCSeries[0])
	return out
}

// fig15Cells is one cell per seed replicate.
func fig15Cells(pr *Fig15Params) int { return max(pr.Seeds, 1) }

// fig15RunRange computes seed replicates [r.Lo, r.Hi).
func fig15RunRange(pr *Fig15Params, r CellRange) []*Fig15Result {
	return runCells(r.Len(), func(c *Cell, i int) *Fig15Result {
		return runFig15Seed(c, pr.Duration, pr.Seed+int64(r.Lo+i)*6151)
	})
}

// fig15Reduce keeps the first seed's traces; with Seeds > 1 the
// mean-throughput summaries aggregate to mean ± 90% CI.
func fig15Reduce(_ *Fig15Params, cells []*Fig15Result) *Fig15Result {
	out := cells[0]
	if seeds := len(cells); seeds > 1 {
		meanT := make([]float64, seeds)
		meanF := make([]float64, seeds)
		for i, c := range cells {
			meanT[i], meanF[i] = c.MeanTCP, c.MeanTFRC
		}
		out.Seeds = seeds
		out.MeanTCP, out.MeanTCPCI = stats.MeanCI90(meanT)
		out.MeanTFRC, out.MeanTFRCCI = stats.MeanCI90(meanF)
	}
	return out
}

// Table emits "time tcp1 tcp2 tcp3 tfrc" rows in KB/s.
func (r *Fig15Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 15: 3 TCP + 1 TFRC on the transcontinental path profile (KB/s)")
	fmt.Fprintln(w, "# time\tTCP1\tTCP2\tTCP3\tTFRC")
	for i := range r.TFRCTrace {
		fmt.Fprintf(w, "%.0f", float64(i)*r.BinWidth)
		for _, s := range r.TCPTraces {
			fmt.Fprintf(w, "\t%.1f", s[i]/1000/r.BinWidth)
		}
		fmt.Fprintf(w, "\t%.1f\n", r.TFRCTrace[i]/1000/r.BinWidth)
	}
	if r.Seeds > 1 {
		fmt.Fprintf(w, "# mean over %d seeds: TCP %.1f±%.1f KB/s, TFRC %.1f±%.1f KB/s\n",
			r.Seeds, r.MeanTCP/1000, r.MeanTCPCI/1000, r.MeanTFRC/1000, r.MeanTFRCCI/1000)
		return
	}
	fmt.Fprintf(w, "# mean: TCP %.1f KB/s (CoV %.3f), TFRC %.1f KB/s (CoV %.3f)\n",
		r.MeanTCP/1000, r.CoVTCPMean, r.MeanTFRC/1000, r.CoVTFRC)
}

// Fig16Row carries the per-path equivalence and CoV curves (Figures 16
// and 17).
type Fig16Row struct {
	Path    string
	Eq      []float64 // TCP-vs-TFRC equivalence ratio per timescale
	CoVTFRC []float64
	CoVTCP  []float64
}

// Fig16Result is the per-path study.
type Fig16Result struct {
	Timescales []float64
	Rows       []Fig16Row
}

// fig16Cells is one cell per path profile.
func fig16Cells(pr *Fig16Params) int { return len(Paths()) }

// fig16RunRange computes path cells [r.Lo, r.Hi) over the profile
// catalogue.
func fig16RunRange(pr *Fig16Params, r CellRange) []Fig16Row {
	paths := Paths()
	return runCells(r.Len(), func(c *Cell, i int) Fig16Row {
		p := paths[r.Lo+i]
		sr := runScenarioCell(c, pathScenario(p, 1, 1, pr.Duration, pr.Duration/6, pr.Seed))
		row := Fig16Row{Path: p.Name}
		row.Eq, row.CoVTFRC, row.CoVTCP = timescaleMetrics(sr.TCPSeries[0], sr.TFRCSeries[0], pr.Timescales)
		return row
	})
}

// fig16Reduce wraps the per-path rows.
func fig16Reduce(pr *Fig16Params, rows []Fig16Row) *Fig16Result {
	return &Fig16Result{Timescales: pr.Timescales, Rows: rows}
}

// Table emits Figures 16 and 17 rows.
func (r *Fig16Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 16: TCP equivalence with TFRC across path profiles")
	fmt.Fprint(w, "# timescale")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "\t%q", row.Path)
	}
	fmt.Fprintln(w)
	for i, ts := range r.Timescales {
		fmt.Fprintf(w, "%.1f", ts)
		for _, row := range r.Rows {
			fmt.Fprintf(w, "\t%.3f", row.Eq[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "# Figure 17: CoV across paths (TFRC block, then TCP block)")
	for i, ts := range r.Timescales {
		fmt.Fprintf(w, "%.1f", ts)
		for _, row := range r.Rows {
			fmt.Fprintf(w, "\t%.3f", row.CoVTFRC[i])
		}
		for _, row := range r.Rows {
			fmt.Fprintf(w, "\t%.3f", row.CoVTCP[i])
		}
		fmt.Fprintln(w)
	}
}
