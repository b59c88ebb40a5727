package exp

import (
	"fmt"
	"io"
	"math"

	"tfrc/internal/core"
	"tfrc/internal/netsim"
	"tfrc/internal/tfrcsim"
)

// Fig02Params reproduces Figure 2: a single TFRC flow through a link with
// idealized periodic loss that switches rate at two instants, exposing
// the Average Loss Interval dynamics.
type Fig02Params struct {
	// Phase loss rates and boundaries (paper: 1% before T1=6 s, 10%
	// until T2=9 s, 0.5% to the end at 16 s).
	P1, P2, P3 float64
	T1, T2     float64
	Duration   float64
	RTT        float64 // base round-trip; paper plot implies ≈ tens of ms
}

// DefaultFig02 matches the paper's setup.
func DefaultFig02() Fig02Params {
	return Fig02Params{P1: 0.01, P2: 0.10, P3: 0.005, T1: 6, T2: 9, Duration: 16, RTT: 0.05}
}

// Validate implements Params.
func (p *Fig02Params) Validate() error {
	for _, l := range []float64{p.P1, p.P2, p.P3} {
		if l <= 0 || l > 1 {
			return fmt.Errorf("phase loss rates must be in (0, 1], got %v/%v/%v", p.P1, p.P2, p.P3)
		}
	}
	if !(0 < p.T1 && p.T1 < p.T2 && p.T2 < p.Duration) {
		return fmt.Errorf("need 0 < T1 < T2 < Duration, got T1=%v T2=%v Duration=%v", p.T1, p.T2, p.Duration)
	}
	if p.RTT <= 0 {
		return fmt.Errorf("RTT must be positive, got %v", p.RTT)
	}
	return nil
}

func init() {
	Register(Descriptor{
		Name:        "fig2",
		Aliases:     []string{"2"},
		Description: "Average Loss Interval dynamics under periodic loss",
		Params:      paramsFn[Fig02Params](DefaultFig02),
		Grid:        cellAs(runFig02),
	})
}

// Fig02Point is one receiver-side sample, taken once per feedback.
type Fig02Point struct {
	Time         float64
	CurrentS0    float64 // packets in the open interval
	EstInterval  float64 // the receiver's average loss interval
	EstLossRate  float64 // p
	SqrtLossRate float64
	TxRate       float64 // sender's allowed rate, bytes/sec
}

// Fig02Result is the time series of Figure 2's three panels.
type Fig02Result struct{ Points []Fig02Point }

// periodicDropper drops every n-th data packet, with n switchable at
// runtime — the idealized periodic loss of Figure 2.
type periodicDropper struct {
	nw    *netsim.Network
	next  netsim.Agent
	every int
	count int
}

func (d *periodicDropper) Recv(p *netsim.Packet) {
	if p.Kind == netsim.KindData && d.every > 0 {
		d.count++
		if d.count%d.every == 0 {
			d.nw.Free(p)
			return
		}
	}
	d.next.Recv(p)
}

// runFig02 is the experiment's one cell.
func runFig02(c *Cell, pr *Fig02Params) *Fig02Result {
	sched := c.begin()
	t := netsim.NewTopology(sched, nil)
	// Plenty of bandwidth so only the injected loss matters.
	t.Link("src", "dst", netsim.LinkSpec{
		Bandwidth: 1e9, Delay: pr.RTT / 2,
		Queue: netsim.QueueDropTail, QueueLimit: 100000,
	})
	nw := t.Build()
	a, b := t.Lookup("src"), t.Lookup("dst")

	cfg := tfrcsim.DefaultConfig()
	rcv := tfrcsim.NewReceiver(nw, b, 5, 0, cfg)
	snd := tfrcsim.NewSender(nw, a, b.ID, 1, 2, 0, cfg)
	drop := &periodicDropper{nw: nw, next: rcv, every: int(1 / pr.P1)}
	b.Attach(1, drop)

	sched.At(pr.T1, func() { drop.every = int(1 / pr.P2) })
	sched.At(pr.T2, func() { drop.every = int(1 / pr.P3) })

	res := &Fig02Result{}
	var sample func()
	sample = func() {
		est, ok := rcv.Core().Estimator().(core.ALI)
		if ok && est.HaveLoss() {
			p := est.P()
			res.Points = append(res.Points, Fig02Point{
				Time:         sched.Now(),
				CurrentS0:    est.Open(),
				EstInterval:  est.AvgInterval(),
				EstLossRate:  p,
				SqrtLossRate: sqrt(p),
				TxRate:       snd.Rate(),
			})
		}
		sched.After(pr.RTT, sample)
	}
	sched.After(pr.RTT, sample)

	snd.Start(0)
	sched.RunUntil(pr.Duration)
	return res
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Table emits "time s0 estInterval p sqrtP txRateKBps" rows.
func (r *Fig02Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 2: Average Loss Interval dynamics under periodic loss")
	fmt.Fprintln(w, "# time\ts0\testInterval\tlossRate\tsqrtLossRate\ttxRate(KB/s)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%.2f\t%.1f\t%.1f\t%.4f\t%.4f\t%.1f\n",
			p.Time, p.CurrentS0, p.EstInterval, p.EstLossRate, p.SqrtLossRate, p.TxRate/1000)
	}
}
