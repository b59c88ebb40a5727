package exp

import (
	"fmt"
	"io"

	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
)

// BWStepParams is the bandwidth-step transient: TFRC and TCP flows share
// a dumbbell whose bottleneck rate drops to Factor of nominal at StepAt
// and restores at RestoreAt — a time-varying link schedule the static
// dumbbell could not express. The metrics are how quickly and smoothly
// each protocol tracks the change.
type BWStepParams struct {
	NTCP, NTFRC int
	LinkMbps    float64
	Factor      float64 // step-down multiplier in (0, 1); default 0.5
	StepAt      float64
	RestoreAt   float64
	Duration    float64
	BinWidth    float64
	Queue       netsim.QueueKind
	Seed        int64

	// Seeds > 1 repeats the run at that many seeds, reporting the phase
	// aggregates as means with 90% confidence half-widths.
	Seeds int
}

// DefaultBWStep is the laptop-scale transient.
func DefaultBWStep() BWStepParams {
	return BWStepParams{
		NTCP: 2, NTFRC: 2,
		LinkMbps:  8,
		Factor:    0.5,
		StepAt:    30,
		RestoreAt: 60,
		Duration:  90,
		BinWidth:  0.5,
		Queue:     netsim.QueueRED,
		Seed:      1,
	}
}

// PaperBWStep is the full-scale transient of the "paper" preset.
func PaperBWStep() BWStepParams {
	p := DefaultBWStep()
	p.NTCP, p.NTFRC = 8, 8
	p.LinkMbps = 15
	p.StepAt, p.RestoreAt, p.Duration = 100, 200, 300
	return p
}

// Validate implements Params.
func (p *BWStepParams) Validate() error {
	if p.NTCP < 0 || p.NTFRC < 0 || p.NTCP+p.NTFRC < 1 {
		return fmt.Errorf("need at least one flow, got NTCP=%d NTFRC=%d", p.NTCP, p.NTFRC)
	}
	if p.LinkMbps <= 0 {
		return fmt.Errorf("LinkMbps must be positive, got %v", p.LinkMbps)
	}
	if p.Factor < 0 || p.Factor >= 1 {
		return fmt.Errorf("Factor must be in (0, 1) (or 0 for the default 0.5), got %v", p.Factor)
	}
	if !(0 < p.StepAt && p.StepAt < p.RestoreAt && p.RestoreAt <= p.Duration) {
		return fmt.Errorf("need 0 < StepAt < RestoreAt <= Duration, got StepAt=%v RestoreAt=%v Duration=%v",
			p.StepAt, p.RestoreAt, p.Duration)
	}
	if p.BinWidth <= 0 {
		return fmt.Errorf("BinWidth must be positive, got %v", p.BinWidth)
	}
	if err := checkReplicates("Seeds", p.Seeds, 0); err != nil {
		return err
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *BWStepParams) SetSeed(seed int64) { p.Seed = seed }

// SetSeeds implements SeedsSetter.
func (p *BWStepParams) SetSeeds(n int) { p.Seeds = n }

func init() {
	Register(Descriptor{
		Name:        "bwstep",
		Description: "tracking a bottleneck bandwidth step",
		Params:      paramsFn[BWStepParams](DefaultBWStep),
		Presets:     map[string]func() Params{"paper": paramsFn[BWStepParams](PaperBWStep)},
		Grid:        GridAs(bwstepCells, bwstepRunRange, bwstepReduce),
	})
}

// BWStepPhase aggregates one phase (before / squeezed / after) of the
// transient: per-protocol aggregate throughput as a fraction of the
// phase's capacity, and the TFRC smoothness within the phase.
type BWStepPhase struct {
	Name     string
	TFRCFrac float64 // TFRC aggregate / phase capacity
	TCPFrac  float64
	CoVTFRC  float64 // CoV of the TFRC aggregate within the phase

	TFRCFracCI float64
	TCPFracCI  float64
}

// BWStepResult carries the aggregate traces and the phase summaries.
type BWStepResult struct {
	Params    BWStepParams
	BinWidth  float64
	TFRCTotal []float64 // aggregate bytes per bin
	TCPTotal  []float64
	Capacity  []float64 // capacity per bin, bytes
	Phases    []BWStepPhase
	QueueMax  int
	DropRate  float64
	Seeds     int
}

func runBWStepSeed(c *Cell, pr BWStepParams, seed int64) *BWStepResult {
	if pr.Factor == 0 {
		pr.Factor = 0.5
	}
	sched := c.begin()
	rng := sched.NewRand(seed)
	bw := pr.LinkMbps * 1e6
	queueLimit := int(max(10, bw*0.1/(8*1000)))
	red := netsim.DefaultRED(queueLimit)
	red.MinThresh = max(5, float64(queueLimit)/10)
	red.MaxThresh = float64(queueLimit) / 2
	d := netsim.NewDumbbell(sched, netsim.DumbbellConfig{
		Hosts:         pr.NTCP + pr.NTFRC,
		BottleneckBW:  bw,
		BottleneckDly: 0.025,
		Queue:         pr.Queue,
		QueueLimit:    queueLimit,
		RED:           red,
	}, sched.NewRand(seed+1))

	// The tentpole move: the bottleneck is a scheduled, time-varying
	// link. Declarations on a built topology install immediately.
	d.Topo.Schedule("rl", "rr",
		netsim.LinkChange{At: pr.StepAt, Bandwidth: bw * pr.Factor},
		netsim.LinkChange{At: pr.RestoreAt, Bandwidth: bw},
	)

	b := NewScenarioBuilder(d.Topo)
	b.MonitorLink("rl->rr", pr.BinWidth, 0)
	qm := b.MonitorQueue("rl->rr", 0.05, pr.Duration)

	start := func() float64 { return rng.Uniform(0, 5) }
	for i := 0; i < pr.NTCP; i++ {
		b.AddTCP(fmt.Sprintf("l%d", i), fmt.Sprintf("r%d", i), tcp.Config{
			Variant: tcp.Sack, SendJitter: 0.001, JitterSeed: seed,
		}, start())
	}
	for i := 0; i < pr.NTFRC; i++ {
		h := pr.NTCP + i
		tf := tfrcsim.DefaultConfig()
		tf.PacingJitter = 0.05
		tf.JitterSeed = seed
		b.AddTFRC(fmt.Sprintf("l%d", h), fmt.Sprintf("r%d", h), tf, start())
	}
	res := b.Run(pr.Duration)

	out := &BWStepResult{Params: pr, BinWidth: pr.BinWidth}
	out.TFRCTotal = sumSeries(res.TFRCSeries, res.Bins)
	out.TCPTotal = sumSeries(res.TCPSeries, res.Bins)
	out.Capacity = make([]float64, res.Bins)
	for i := range out.Capacity {
		t := float64(i) * pr.BinWidth
		c := bw
		if t >= pr.StepAt && t < pr.RestoreAt {
			c = bw * pr.Factor
		}
		out.Capacity[i] = c / 8 * pr.BinWidth
	}
	out.QueueMax = qm.Max()
	out.DropRate = res.DropRate
	b.Release()

	phase := func(name string, lo, hi float64) BWStepPhase {
		a := int(lo / pr.BinWidth)
		z := int(hi / pr.BinWidth)
		if z > res.Bins {
			z = res.Bins
		}
		if a > z {
			a = z // phase window lies past the end of the run
		}
		var tf, tc, cap float64
		for i := a; i < z; i++ {
			tf += out.TFRCTotal[i]
			tc += out.TCPTotal[i]
			cap += out.Capacity[i]
		}
		p := BWStepPhase{Name: name}
		if cap > 0 {
			p.TFRCFrac = tf / cap
			p.TCPFrac = tc / cap
		}
		p.CoVTFRC = stats.CoV(out.TFRCTotal[a:z])
		return p
	}
	// Skip a settling margin after each transition so the phase numbers
	// measure steady behavior, not the discontinuity itself.
	margin := 5.0
	out.Phases = []BWStepPhase{
		phase("before", margin, pr.StepAt),
		phase("squeezed", pr.StepAt+margin, pr.RestoreAt),
		phase("after", pr.RestoreAt+margin, pr.Duration),
	}
	return out
}

func sumSeries(series [][]float64, bins int) []float64 {
	out := make([]float64, bins)
	for _, s := range series {
		for i := 0; i < bins && i < len(s); i++ {
			out[i] += s[i]
		}
	}
	return out
}

// bwstepCells is one cell per seed replicate.
func bwstepCells(pr *BWStepParams) int { return max(pr.Seeds, 1) }

// bwstepRunRange computes seed replicates [r.Lo, r.Hi).
func bwstepRunRange(pr *BWStepParams, r CellRange) []*BWStepResult {
	return runCells(r.Len(), func(c *Cell, i int) *BWStepResult {
		return runBWStepSeed(c, *pr, pr.Seed+int64(r.Lo+i)*6151)
	})
}

// bwstepReduce keeps the first seed's traces; with Seeds > 1 the phase
// fractions aggregate to mean ± 90% CI.
func bwstepReduce(_ *BWStepParams, cells []*BWStepResult) *BWStepResult {
	out := cells[0]
	if seeds := len(cells); seeds > 1 {
		out.Seeds = seeds
		for pi := range out.Phases {
			tf := make([]float64, seeds)
			tc := make([]float64, seeds)
			cv := make([]float64, seeds)
			for i, c := range cells {
				tf[i], tc[i] = c.Phases[pi].TFRCFrac, c.Phases[pi].TCPFrac
				cv[i] = c.Phases[pi].CoVTFRC
			}
			out.Phases[pi].TFRCFrac, out.Phases[pi].TFRCFracCI = stats.MeanCI90(tf)
			out.Phases[pi].TCPFrac, out.Phases[pi].TCPFracCI = stats.MeanCI90(tc)
			out.Phases[pi].CoVTFRC = stats.Mean(cv)
		}
	}
	return out
}

// Table emits the phase summary and the aggregate traces.
func (r *BWStepResult) Table(w io.Writer) {
	fmt.Fprintf(w, "# Bandwidth step: %.0f Mb/s bottleneck × %.2f during [%.0f, %.0f) s, %d TCP + %d TFRC\n",
		r.Params.LinkMbps, r.Params.Factor, r.Params.StepAt, r.Params.RestoreAt,
		r.Params.NTCP, r.Params.NTFRC)
	if r.Seeds > 1 {
		fmt.Fprintf(w, "# phase summary over %d seeds (fraction of phase capacity)\n", r.Seeds)
		fmt.Fprintln(w, "# phase\ttfrcFrac\tci\ttcpFrac\tci\ttfrcCoV")
		for _, p := range r.Phases {
			fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
				p.Name, p.TFRCFrac, p.TFRCFracCI, p.TCPFrac, p.TCPFracCI, p.CoVTFRC)
		}
	} else {
		fmt.Fprintln(w, "# phase\ttfrcFrac\ttcpFrac\ttfrcCoV")
		for _, p := range r.Phases {
			fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\n", p.Name, p.TFRCFrac, p.TCPFrac, p.CoVTFRC)
		}
	}
	fmt.Fprintf(w, "# max queue %d pkts, drop rate %.4f\n", r.QueueMax, r.DropRate)
	fmt.Fprintln(w, "# time\ttfrcKBps\ttcpKBps\tcapKBps")
	for i := range r.TFRCTotal {
		fmt.Fprintf(w, "%.1f\t%.1f\t%.1f\t%.1f\n",
			float64(i)*r.BinWidth,
			r.TFRCTotal[i]/1000/r.BinWidth,
			r.TCPTotal[i]/1000/r.BinWidth,
			r.Capacity[i]/1000/r.BinWidth)
	}
}
