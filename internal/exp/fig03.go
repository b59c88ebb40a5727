package exp

import (
	"fmt"
	"io"

	"tfrc/internal/core"
	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tfrcsim"
)

// Fig03Params reproduces Figures 3 and 4: a single TFRC flow over a
// Dummynet-like pipe (one bottleneck queue and delay — our emulated
// substitute for the paper's FreeBSD Dummynet testbed) across a sweep of
// buffer sizes. With a small RTT-EWMA weight and no inter-packet-spacing
// adjustment the flow oscillates (Figure 3); enabling the √RTT spacing
// adjustment damps the oscillation (Figure 4).
type Fig03Params struct {
	BufferSizes []int   // queue limits in packets
	Bandwidth   float64 // bits/sec
	BaseRTT     float64 // propagation round-trip, seconds
	Duration    float64
	Warmup      float64
	BinWidth    float64 // rate-sampling bin
	SqrtSpacing bool    // false → Figure 3, true → Figure 4
	RTTWeight   float64 // paper: 0.05
	Decrease    core.DecreasePolicy
	Seed        int64
}

// DefaultFig03 uses the paper's EWMA weight 0.05 without the adjustment.
func DefaultFig03() Fig03Params {
	return Fig03Params{
		BufferSizes: []int{2, 4, 8, 16, 32, 64},
		Bandwidth:   2e6,
		BaseRTT:     0.050,
		Duration:    120,
		Warmup:      40,
		BinWidth:    0.2,
		SqrtSpacing: false,
		RTTWeight:   0.05,
		Seed:        1,
	}
}

// DefaultFig04 enables the inter-packet-spacing adjustment.
func DefaultFig04() Fig03Params {
	p := DefaultFig03()
	p.SqrtSpacing = true
	return p
}

// Validate implements Params.
func (p *Fig03Params) Validate() error {
	if len(p.BufferSizes) == 0 {
		return fmt.Errorf("BufferSizes must be non-empty")
	}
	for _, b := range p.BufferSizes {
		if b < 1 {
			return fmt.Errorf("buffer sizes must be at least 1 packet, got %d", b)
		}
	}
	if p.Bandwidth <= 0 {
		return fmt.Errorf("Bandwidth must be positive, got %v", p.Bandwidth)
	}
	if p.BaseRTT <= 0 {
		return fmt.Errorf("BaseRTT must be positive, got %v", p.BaseRTT)
	}
	if p.BinWidth <= 0 {
		return fmt.Errorf("BinWidth must be positive, got %v", p.BinWidth)
	}
	if p.Duration <= 0 || p.Warmup < 0 || p.Warmup >= p.Duration {
		return fmt.Errorf("need 0 <= Warmup < Duration, got Warmup=%v Duration=%v", p.Warmup, p.Duration)
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *Fig03Params) SetSeed(seed int64) { p.Seed = seed }

func init() {
	Register(Descriptor{
		Name:        "fig3",
		Aliases:     []string{"3"},
		Description: "send-rate oscillation vs buffer size (no spacing adjustment)",
		Params:      paramsFn[Fig03Params](DefaultFig03),
		Grid:        GridAs(fig03Cells, fig03RunRange, fig03Reduce),
	})
	Register(Descriptor{
		Name:        "fig4",
		Aliases:     []string{"4"},
		Description: "send-rate oscillation vs buffer size (with adjustment)",
		Params:      paramsFn[Fig03Params](DefaultFig04),
		Grid:        GridAs(fig03Cells, fig03RunRange, fig03Reduce),
	})
}

// Fig03Curve is the send-rate trace for one buffer size plus its
// oscillation measure.
type Fig03Curve struct {
	Buffer int
	Series []float64 // send rate per bin, bytes/sec
	CoV    float64   // oscillation metric over the measured window
}

// Fig03Result is the buffer sweep.
type Fig03Result struct {
	SqrtSpacing bool
	BinWidth    float64
	Curves      []Fig03Curve
}

// runFig03Buffer runs one cell of the buffer sweep: a two-node pipe
// topology with a single TFRC flow, composed on the scenario builder
// over the worker's pinned arena.
func runFig03Buffer(c *Cell, pr Fig03Params, buf int) Fig03Curve {
	t := netsim.NewTopology(c.begin(), nil)
	t.Link("src", "dst", netsim.LinkSpec{
		Bandwidth: pr.Bandwidth, Delay: pr.BaseRTT / 2,
		Queue: netsim.QueueDropTail, QueueLimit: buf,
	})
	b := NewScenarioBuilder(t)
	b.MonitorLink("src->dst", pr.BinWidth, pr.Warmup)

	cfg := tfrcsim.DefaultConfig()
	cfg.Sender.SqrtSpacing = pr.SqrtSpacing
	cfg.Sender.RTTWeight = pr.RTTWeight
	cfg.Sender.Decrease = pr.Decrease
	b.AddTFRC("src", "dst", cfg, 0)
	res := b.Run(pr.Duration)
	b.Release()

	series := res.TFRCSeries[0]
	for i := range series {
		series[i] /= pr.BinWidth // bytes per bin → bytes/sec
	}
	return Fig03Curve{Buffer: buf, Series: series, CoV: stats.CoV(series)}
}

// fig03Cells is one cell per buffer size.
func fig03Cells(pr *Fig03Params) int { return len(pr.BufferSizes) }

// fig03RunRange computes buffer-sweep cells [r.Lo, r.Hi).
func fig03RunRange(pr *Fig03Params, r CellRange) []Fig03Curve {
	return runCells(r.Len(), func(c *Cell, i int) Fig03Curve {
		return runFig03Buffer(c, *pr, pr.BufferSizes[r.Lo+i])
	})
}

// fig03Reduce wraps the full buffer sweep.
func fig03Reduce(pr *Fig03Params, curves []Fig03Curve) *Fig03Result {
	return &Fig03Result{SqrtSpacing: pr.SqrtSpacing, BinWidth: pr.BinWidth, Curves: curves}
}

// Table emits "buffer cov" summary rows and the traces.
func (r *Fig03Result) Table(w io.Writer) {
	fig := "3 (no inter-packet spacing adjustment)"
	if r.SqrtSpacing {
		fig = "4 (with inter-packet spacing adjustment)"
	}
	fmt.Fprintf(w, "# Figure %s: TFRC send-rate oscillation vs buffer size\n", fig)
	fmt.Fprintln(w, "# buffer(pkts)\tsendRateCoV")
	for _, c := range r.Curves {
		fmt.Fprintf(w, "%d\t%.4f\n", c.Buffer, c.CoV)
	}
	fmt.Fprintln(w, "# traces: time(bin) rate(KB/s) per buffer size")
	for _, c := range r.Curves {
		fmt.Fprintf(w, "## buffer=%d\n", c.Buffer)
		for i, v := range c.Series {
			fmt.Fprintf(w, "%.1f\t%.1f\n", float64(i)*r.BinWidth, v/1000)
		}
	}
}
