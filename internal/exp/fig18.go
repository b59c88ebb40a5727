package exp

import (
	"fmt"
	"io"
	"math"

	"tfrc/internal/core"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
)

// Fig18Params reproduces Figure 18: the quality of the loss estimator as
// a one-step predictor of the future loss rate, for history sizes 2-32
// loss intervals, with constant versus decreasing weights. Loss-interval
// traces are harvested from a mix of simulated conditions (DropTail
// congestion, RED congestion, and step-changing random loss), standing in
// for the paper's set of Internet experiments.
type Fig18Params struct {
	HistorySizes []int
	Duration     float64 // per trace source
	Seed         int64
}

// DefaultFig18 matches the paper's history-size ladder.
func DefaultFig18() Fig18Params {
	return Fig18Params{HistorySizes: []int{2, 4, 8, 16, 32}, Duration: 150, Seed: 1}
}

// PaperFig18 extends the trace sources to the paper's 600 s.
func PaperFig18() Fig18Params {
	p := DefaultFig18()
	p.Duration = 600
	return p
}

// Validate implements Params.
func (p *Fig18Params) Validate() error {
	if len(p.HistorySizes) == 0 {
		return fmt.Errorf("HistorySizes must be non-empty")
	}
	for _, n := range p.HistorySizes {
		if n < 1 {
			return fmt.Errorf("history sizes must be at least 1 interval, got %d", n)
		}
	}
	if p.Duration <= 0 {
		return fmt.Errorf("Duration must be positive, got %v", p.Duration)
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *Fig18Params) SetSeed(seed int64) { p.Seed = seed }

func init() {
	Register(Descriptor{
		Name:        "fig18",
		Aliases:     []string{"18"},
		Description: "loss-predictor error vs history size and weighting",
		Params:      paramsFn[Fig18Params](DefaultFig18),
		Presets:     map[string]func() Params{"paper": paramsFn[Fig18Params](PaperFig18)},
		Grid:        GridAs(fig18Cells, fig18RunRange, fig18Reduce),
	})
}

// Fig18Point is one bar of the figure.
type Fig18Point struct {
	HistorySize     int
	ConstantWeights bool
	AvgError        float64
	ErrStdDev       float64
}

// Fig18Result carries all bars plus the trace inventory.
type Fig18Result struct {
	Points    []Fig18Point
	Intervals int // total intervals evaluated
}

// recEst wraps a loss estimator, recording every closed interval.
type recEst struct {
	core.LossRateEstimator
	log *[]float64
}

func (r recEst) OnLossEvent(interval float64) {
	*r.log = append(*r.log, interval)
	r.LossRateEstimator.OnLossEvent(interval)
}

// bernoulliDropper drops data packets at a probability switchable at
// runtime.
type bernoulliDropper struct {
	nw   *netsim.Network
	next netsim.Agent
	p    float64
	rng  *sim.Rand
}

func (d *bernoulliDropper) Recv(pk *netsim.Packet) {
	if pk.Kind == netsim.KindData && d.rng.Bernoulli(d.p) {
		d.nw.Free(pk)
		return
	}
	d.next.Recv(pk)
}

// fig18Cells is one cell per trace source: DropTail congestion, RED
// congestion, and step-changing Bernoulli loss.
func fig18Cells(*Fig18Params) int { return 3 }

// fig18RunRange harvests the loss-interval traces of sources
// [r.Lo, r.Hi).
func fig18RunRange(pr *Fig18Params, r CellRange) [][]float64 {
	return runCells(r.Len(), func(c *Cell, i int) []float64 {
		switch src := r.Lo + i; src {
		case 0:
			return fig18Congested(c, pr, src, netsim.QueueDropTail)
		case 1:
			return fig18Congested(c, pr, src, netsim.QueueRED)
		default:
			return fig18Bernoulli(c, pr)
		}
	})
}

// fig18Congested records the intervals of a TFRC flow sharing a
// dumbbell with TCP.
func fig18Congested(c *Cell, pr *Fig18Params, src int, q netsim.QueueKind) []float64 {
	var log []float64
	cfg := tfrcsim.DefaultConfig()
	cfg.Estimator = recEst{core.NewALI(core.DefaultLossHistory()), &log}
	runScenarioCell(c, Scenario{
		NTCP:         2,
		NTFRC:        1,
		BottleneckBW: 4e6,
		Queue:        q,
		TCPVariant:   tcp.Sack,
		TFRC:         cfg,
		Duration:     pr.Duration,
		BinWidth:     1,
		Seed:         pr.Seed + int64(src),
	})
	return log
}

// fig18Bernoulli records the intervals of a TFRC flow on a clean pipe
// with step-changing Bernoulli loss.
func fig18Bernoulli(c *Cell, pr *Fig18Params) []float64 {
	var log []float64
	sched := c.begin()
	t := netsim.NewTopology(sched, nil)
	t.Link("src", "dst", netsim.LinkSpec{
		Bandwidth: 1e8, Delay: 0.030,
		Queue: netsim.QueueDropTail, QueueLimit: 10000,
	})
	nw := t.Build()
	a, b := t.Lookup("src"), t.Lookup("dst")
	cfg := tfrcsim.DefaultConfig()
	cfg.Estimator = recEst{core.NewALI(core.DefaultLossHistory()), &log}
	rcv := tfrcsim.NewReceiver(nw, b, 5, 0, cfg)
	snd := tfrcsim.NewSender(nw, a, b.ID, 1, 2, 0, cfg)
	drop := &bernoulliDropper{nw: nw, next: rcv, p: 0.02, rng: sim.NewRand(pr.Seed + 9)}
	b.Attach(1, drop)
	rates := []float64{0.05, 0.01, 0.08, 0.005, 0.03}
	for i, r := range rates {
		sched.At(pr.Duration*float64(i+1)/6, func() { drop.p = r })
	}
	snd.Start(0)
	sched.RunUntil(pr.Duration)
	return log
}

// fig18Reduce evaluates every estimator configuration over the traces
// as a one-step-ahead predictor: after each closed interval the
// estimator predicts p̂, which is scored against the realized next
// interval's rate 1/s_next.
func fig18Reduce(pr *Fig18Params, traces [][]float64) *Fig18Result {
	res := &Fig18Result{}
	for _, constant := range []bool{true, false} {
		for _, n := range pr.HistorySizes {
			var errs []float64
			for _, tr := range traces {
				if len(tr) < n+2 {
					continue
				}
				h := core.NewLossHistory(core.LossHistoryConfig{
					N:               n,
					ConstantWeights: constant,
				})
				for k, iv := range tr {
					if k >= n { // history warm: score the prediction
						pHat := h.LossEventRate()
						actual := 1 / iv
						errs = append(errs, math.Abs(pHat-actual))
					}
					h.OnLossEvent(iv)
				}
			}
			res.Points = append(res.Points, Fig18Point{
				HistorySize:     n,
				ConstantWeights: constant,
				AvgError:        stats.Mean(errs),
				ErrStdDev:       stats.StdDev(errs),
			})
			if len(errs) > res.Intervals {
				res.Intervals = len(errs)
			}
		}
	}
	return res
}

// Table emits "history weights avgError errStdDev" rows.
func (r *Fig18Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 18: loss-prediction error by history size and weighting")
	fmt.Fprintln(w, "# history\tweights\tavgError\terrStdDev")
	for _, p := range r.Points {
		kind := "decreasing"
		if p.ConstantWeights {
			kind = "constant"
		}
		fmt.Fprintf(w, "%d\t%s\t%.5f\t%.5f\n", p.HistorySize, kind, p.AvgError, p.ErrStdDev)
	}
}
