package exp

import (
	"fmt"
	"io"

	"tfrc/internal/netsim"
	"tfrc/internal/tfrcsim"
)

// Fig19Params reproduces Figures 19-21 (Appendix A): a single TFRC flow
// on an uncongested path with injected periodic loss that changes at a
// known instant, tracing the sender's allowed rate.
type Fig19Params struct {
	// DropEveryBefore injects one loss per this many packets until
	// SwitchTime (paper: 100).
	DropEveryBefore int
	// DropEveryAfter applies from SwitchTime on; 0 disables loss (the
	// Figure 19 end-of-congestion case), 2 is Figure 20's persistent
	// congestion.
	DropEveryAfter int
	SwitchTime     float64
	Duration       float64
	RTT            float64
}

// DefaultFig19 is the end-of-congestion run: every 100th packet dropped
// until t = 10, then nothing.
func DefaultFig19() Fig19Params {
	return Fig19Params{DropEveryBefore: 100, DropEveryAfter: 0, SwitchTime: 10, Duration: 13, RTT: 0.05}
}

// DefaultFig20 is the persistent-congestion run: every 100th packet until
// t = 10, then every 2nd.
func DefaultFig20() Fig19Params {
	return Fig19Params{DropEveryBefore: 100, DropEveryAfter: 2, SwitchTime: 10, Duration: 12, RTT: 0.05}
}

// Validate implements Params.
func (p *Fig19Params) Validate() error {
	if p.DropEveryBefore < 1 {
		return fmt.Errorf("DropEveryBefore must be at least 1, got %d", p.DropEveryBefore)
	}
	if p.DropEveryAfter < 0 {
		return fmt.Errorf("DropEveryAfter must be non-negative, got %d", p.DropEveryAfter)
	}
	if !(0 < p.SwitchTime && p.SwitchTime < p.Duration) {
		return fmt.Errorf("need 0 < SwitchTime < Duration, got SwitchTime=%v Duration=%v",
			p.SwitchTime, p.Duration)
	}
	if p.RTT <= 0 {
		return fmt.Errorf("RTT must be positive, got %v", p.RTT)
	}
	return nil
}

// Fig21Params is the registry's parameter struct for the Figure 21
// drop-rate sweep.
type Fig21Params struct {
	DropRates []float64
	RTT       float64
}

// DefaultFig21 matches the paper's sweep.
func DefaultFig21() Fig21Params {
	return Fig21Params{
		DropRates: []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25},
		RTT:       0.05,
	}
}

// Validate implements Params.
func (p *Fig21Params) Validate() error {
	if len(p.DropRates) == 0 {
		return fmt.Errorf("DropRates must be non-empty")
	}
	for _, d := range p.DropRates {
		if d <= 0 || d >= 1 {
			return fmt.Errorf("drop rates must be in (0, 1), got %v", d)
		}
	}
	if p.RTT <= 0 {
		return fmt.Errorf("RTT must be positive, got %v", p.RTT)
	}
	return nil
}

func init() {
	Register(Descriptor{
		Name:        "fig19",
		Aliases:     []string{"19"},
		Description: "rate increase after congestion ends",
		Params:      paramsFn[Fig19Params](DefaultFig19),
		Grid:        cellAs(runFig19),
	})
	Register(Descriptor{
		Name:        "fig20",
		Aliases:     []string{"20"},
		Description: "rate decrease under persistent congestion",
		Params:      paramsFn[Fig19Params](DefaultFig20),
		Grid:        cellAs(runFig19),
	})
	Register(Descriptor{
		Name:        "fig21",
		Aliases:     []string{"21"},
		Description: "round-trips to halve the rate vs initial drop rate",
		Params:      paramsFn[Fig21Params](DefaultFig21),
		Grid:        GridAs(fig21Cells, fig21RunRange, fig21Reduce),
	})
}

// Fig19Point samples the allowed sending rate.
type Fig19Point struct {
	Time       float64
	RateBps    float64 // bytes/sec
	PktsPerRTT float64
}

// Fig19Result is the rate trace plus derived summary numbers.
type Fig19Result struct {
	Points []Fig19Point
	RTT    float64

	// HalvedAfterRTTs counts round-trips from SwitchTime until the rate
	// first drops to half its pre-switch value (Figure 20/21 metric);
	// 0 if it never halves.
	HalvedAfterRTTs int
	// PreSwitchRate is the allowed rate just before the switch.
	PreSwitchRate float64
	// MaxIncreasePerRTT is the steepest observed rate increase after
	// SwitchTime, in packets/RTT per RTT (Figure 19 metric).
	MaxIncreasePerRTT float64
}

// runFig19 is the trace experiment's one cell.
func runFig19(c *Cell, pr *Fig19Params) *Fig19Result {
	sched := c.begin()
	t := netsim.NewTopology(sched, nil)
	t.Link("src", "dst", netsim.LinkSpec{
		Bandwidth: 1e9, Delay: pr.RTT / 2,
		Queue: netsim.QueueDropTail, QueueLimit: 100000,
	})
	nw := t.Build()
	a, b := t.Lookup("src"), t.Lookup("dst")

	cfg := tfrcsim.DefaultConfig()
	rcv := tfrcsim.NewReceiver(nw, b, 5, 0, cfg)
	snd := tfrcsim.NewSender(nw, a, b.ID, 1, 2, 0, cfg)
	drop := &periodicDropper{nw: nw, next: rcv, every: pr.DropEveryBefore}
	b.Attach(1, drop)
	sched.At(pr.SwitchTime, func() { drop.every = pr.DropEveryAfter })

	res := &Fig19Result{RTT: pr.RTT}
	pktSize := float64(snd.Core().PacketSize())
	var sample func()
	sample = func() {
		rate := snd.Rate()
		res.Points = append(res.Points, Fig19Point{
			Time:       sched.Now(),
			RateBps:    rate,
			PktsPerRTT: rate * pr.RTT / pktSize,
		})
		sched.After(pr.RTT, sample)
	}
	sched.After(pr.RTT, sample)

	snd.Start(0)
	sched.RunUntil(pr.Duration)

	// Derive the summary metrics from the trace.
	for i := 1; i < len(res.Points); i++ {
		pt := res.Points[i]
		if pt.Time <= pr.SwitchTime {
			res.PreSwitchRate = pt.RateBps
			continue
		}
		if res.HalvedAfterRTTs == 0 && pt.RateBps <= res.PreSwitchRate/2 {
			res.HalvedAfterRTTs = int((pt.Time - pr.SwitchTime) / pr.RTT)
		}
		if inc := pt.PktsPerRTT - res.Points[i-1].PktsPerRTT; inc > res.MaxIncreasePerRTT &&
			res.Points[i-1].Time > pr.SwitchTime {
			res.MaxIncreasePerRTT = inc
		}
	}
	return res
}

// Table emits "time rate(pkts/RTT)" rows plus a summary.
func (r *Fig19Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figures 19/20: allowed sending rate of a single TFRC flow")
	fmt.Fprintln(w, "# time\trate(pkts/RTT)\trate(KB/s)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%.2f\t%.2f\t%.1f\n", p.Time, p.PktsPerRTT, p.RateBps/1000)
	}
	fmt.Fprintf(w, "# max increase after switch: %.3f pkts/RTT per RTT\n", r.MaxIncreasePerRTT)
	if r.HalvedAfterRTTs > 0 {
		fmt.Fprintf(w, "# rate halved after %d RTTs\n", r.HalvedAfterRTTs)
	}
}

// Fig21Row is one point of Figure 21: round-trips of persistent
// congestion needed to halve the rate, by initial drop rate.
type Fig21Row struct {
	DropRate float64
	RTTs     int
}

// Fig21Result is the sweep.
type Fig21Result struct{ Rows []Fig21Row }

// fig21Cells is one cell per drop rate.
func fig21Cells(pr *Fig21Params) int { return len(pr.DropRates) }

// fig21RunRange computes sweep cells [r.Lo, r.Hi).
func fig21RunRange(pr *Fig21Params, r CellRange) []Fig21Row {
	return runCells(r.Len(), func(c *Cell, i int) Fig21Row {
		p := pr.DropRates[r.Lo+i]
		every := int(1/p + 0.5)
		if every < 3 {
			every = 3
		}
		res := runFig19(c, &Fig19Params{
			DropEveryBefore: every,
			DropEveryAfter:  2,
			SwitchTime:      10,
			Duration:        14,
			RTT:             pr.RTT,
		})
		return Fig21Row{DropRate: p, RTTs: res.HalvedAfterRTTs}
	})
}

// fig21Reduce wraps the sweep rows.
func fig21Reduce(pr *Fig21Params, rows []Fig21Row) *Fig21Result {
	return &Fig21Result{Rows: rows}
}

// Table emits "dropRate rttsToHalve" rows.
func (r *Fig21Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 21: round-trips of persistent congestion to halve the rate")
	fmt.Fprintln(w, "# dropRate\tRTTs")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%.3f\t%d\n", row.DropRate, row.RTTs)
	}
}
