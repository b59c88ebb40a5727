package exp

import (
	"fmt"
	"io"
	"math"

	"tfrc/internal/core"
)

// Fig05Params reproduces Figure 5: the loss-event fraction as a function
// of the Bernoulli packet-loss probability, for flows transmitting at
// 0.5×, 1× and 2× the rate the control equation allows.
type Fig05Params struct {
	PLoss      []float64 // Bernoulli loss probabilities to evaluate
	Multiplier []float64 // rate multipliers (paper: 0.5, 1, 2)
	RTT        float64   // seconds (affects N = packets per RTT)
	PacketSize int
}

// DefaultFig05 covers the paper's range p ∈ (0, 0.25].
func DefaultFig05() Fig05Params {
	var ps []float64
	for p := 0.005; p <= 0.25+1e-9; p += 0.005 {
		ps = append(ps, p)
	}
	return Fig05Params{
		PLoss:      ps,
		Multiplier: []float64{1.0, 2.0, 0.5},
		RTT:        0.1,
		PacketSize: 1000,
	}
}

// Validate implements Params.
func (p *Fig05Params) Validate() error {
	if len(p.PLoss) == 0 {
		return fmt.Errorf("PLoss must be non-empty")
	}
	for _, q := range p.PLoss {
		if q <= 0 || q >= 1 {
			return fmt.Errorf("loss probabilities must be in (0, 1), got %v", q)
		}
	}
	if len(p.Multiplier) == 0 {
		return fmt.Errorf("Multiplier must be non-empty")
	}
	for _, m := range p.Multiplier {
		if m <= 0 {
			return fmt.Errorf("rate multipliers must be positive, got %v", m)
		}
	}
	if p.RTT <= 0 {
		return fmt.Errorf("RTT must be positive, got %v", p.RTT)
	}
	if p.PacketSize <= 0 {
		return fmt.Errorf("PacketSize must be positive, got %d", p.PacketSize)
	}
	return nil
}

func init() {
	Register(Descriptor{
		Name:        "fig5",
		Aliases:     []string{"5"},
		Description: "loss-event fraction vs Bernoulli loss probability",
		Params:      paramsFn[Fig05Params](DefaultFig05),
		Grid:        GridAs(fig05Cells, fig05RunRange, fig05Reduce),
	})
}

// Fig05Row is one curve point: the loss-event fraction for each rate
// multiplier at one Bernoulli loss probability.
type Fig05Row struct {
	PLoss  float64
	PEvent []float64 // aligned with Params.Multiplier
}

// Fig05Result is the family of curves.
type Fig05Result struct {
	Multiplier []float64
	Rows       []Fig05Row
}

// lossEventFraction solves the fixed point of §3.5.1: a flow sending N
// packets per RTT under Bernoulli loss p_loss sees loss events at rate
// p_event = (1-(1-p_loss)^N)/N per packet, while N itself is set by the
// control equation evaluated at p_event (times the rate multiplier).
func lossEventFraction(pLoss, mult, rtt float64, pktSize int) float64 {
	s := float64(pktSize)
	pEvent := pLoss // initial guess
	for i := 0; i < 200; i++ {
		rate := mult * core.PFTK(s, rtt, 4*rtt, pEvent)
		n := rate * rtt / s // packets per RTT
		if n < 1 {
			n = 1
		}
		next := (1 - math.Pow(1-pLoss, n)) / n
		if math.Abs(next-pEvent) < 1e-12 {
			return next
		}
		// Damped iteration for stability at high loss rates.
		pEvent = 0.5*pEvent + 0.5*next
	}
	return pEvent
}

// fig05Cells is one cell per loss probability.
func fig05Cells(pr *Fig05Params) int { return len(pr.PLoss) }

// fig05RunRange evaluates the fixed point for cells [r.Lo, r.Hi), one
// curve point per cell.
func fig05RunRange(pr *Fig05Params, r CellRange) []Fig05Row {
	return runCells(r.Len(), func(_ *Cell, i int) Fig05Row {
		p := pr.PLoss[r.Lo+i]
		row := Fig05Row{PLoss: p}
		for _, m := range pr.Multiplier {
			row.PEvent = append(row.PEvent, lossEventFraction(p, m, pr.RTT, pr.PacketSize))
		}
		return row
	})
}

// fig05Reduce wraps the curve points.
func fig05Reduce(pr *Fig05Params, rows []Fig05Row) *Fig05Result {
	return &Fig05Result{Multiplier: pr.Multiplier, Rows: rows}
}

// Table emits "pLoss pEvent(m1) pEvent(m2) ..." rows.
func (r *Fig05Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 5: loss-event fraction vs Bernoulli loss probability")
	fmt.Fprint(w, "# pLoss")
	for _, m := range r.Multiplier {
		fmt.Fprintf(w, "\trate=%.1fx", m)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%.3f", row.PLoss)
		for _, pe := range row.PEvent {
			fmt.Fprintf(w, "\t%.4f", pe)
		}
		fmt.Fprintln(w)
	}
}
