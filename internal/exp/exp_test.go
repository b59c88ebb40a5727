package exp

import (
	"strings"
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
)

func TestScenarioBasics(t *testing.T) {
	sc := Scenario{
		NTCP: 2, NTFRC: 2,
		BottleneckBW: 4e6,
		Queue:        netsim.QueueDropTail,
		TCPVariant:   tcp.Sack,
		Duration:     40, Warmup: 10,
		Seed: 1,
	}
	r := RunScenario(sc)
	if len(r.TCPSeries) != 2 || len(r.TFRCSeries) != 2 {
		t.Fatalf("series: %d TCP, %d TFRC", len(r.TCPSeries), len(r.TFRCSeries))
	}
	if r.Utilization < 0.9 {
		t.Fatalf("utilization %v < 0.9", r.Utilization)
	}
	if r.FairShare != 4e6/8/4 {
		t.Fatalf("fair share = %v", r.FairShare)
	}
	// All four flows should move bytes.
	for i, s := range append(append([][]float64{}, r.TCPSeries...), r.TFRCSeries...) {
		if stats.Mean(s) == 0 {
			t.Fatalf("flow %d starved completely", i)
		}
	}
}

func TestScenarioDeterminism(t *testing.T) {
	run := func() float64 {
		r := RunScenario(Scenario{
			NTCP: 1, NTFRC: 1, BottleneckBW: 2e6,
			Queue: netsim.QueueRED, TCPVariant: tcp.Sack,
			Duration: 20, Warmup: 5, Seed: 42,
		})
		return r.NormalizedMeanTCP()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different results: %v vs %v", a, b)
	}
}

func TestFig02Shape(t *testing.T) {
	r := runExp[*Fig02Result](t, "fig2", DefaultFig02())
	if len(r.Points) < 100 {
		t.Fatalf("only %d samples", len(r.Points))
	}
	// Windowed means of the estimated loss rate in each phase.
	phase := func(lo, hi float64) float64 {
		var sum, n float64
		for _, p := range r.Points {
			if p.Time >= lo && p.Time < hi {
				sum += p.EstLossRate
				n++
			}
		}
		return sum / n
	}
	p1 := phase(4, 6)   // should sit near 0.01
	p2 := phase(7.5, 9) // should have risen toward 0.1
	p3 := phase(14, 16) // should have fallen well below p2
	if p1 < 0.005 || p1 > 0.02 {
		t.Fatalf("phase-1 estimate %v, want ≈ 0.01", p1)
	}
	if p2 < 3*p1 {
		t.Fatalf("estimate did not react to 10× loss increase: %v vs %v", p2, p1)
	}
	if p3 > p2/2 {
		t.Fatalf("estimate did not recover: %v vs %v", p3, p2)
	}
	// Transmission rate moves inversely.
	rate := func(lo, hi float64) float64 {
		var sum, n float64
		for _, p := range r.Points {
			if p.Time >= lo && p.Time < hi {
				sum += p.TxRate
				n++
			}
		}
		return sum / n
	}
	if r1, r2 := rate(4, 6), rate(7.5, 9); r2 > r1/2 {
		t.Fatalf("tx rate did not drop under 10× loss: %v → %v", r1, r2)
	}
	if r2, r3 := rate(7.5, 9), rate(14, 16); r3 < 1.5*r2 {
		t.Fatalf("tx rate did not recover: %v → %v", r2, r3)
	}
}

func TestFig02StableBeforeChange(t *testing.T) {
	// Before t=6 the loss is perfectly periodic: the ALI estimate must
	// be rock-stable (paper: "a completely stable measure").
	r := runExp[*Fig02Result](t, "fig2", DefaultFig02())
	var vals []float64
	for _, p := range r.Points {
		if p.Time >= 4 && p.Time < 6 {
			vals = append(vals, p.EstLossRate)
		}
	}
	if len(vals) < 10 {
		t.Fatalf("too few samples: %d", len(vals))
	}
	if cov := stats.CoV(vals); cov > 0.05 {
		t.Fatalf("estimate CoV %v under periodic loss, want < 0.05", cov)
	}
}

func TestFig03OscillationDampedByFig04(t *testing.T) {
	p3 := DefaultFig03()
	p3.Duration, p3.Warmup = 60, 20
	p3.BufferSizes = []int{8, 32}
	p4 := p3
	p4.SqrtSpacing = true
	r3, r4 := runExp[*Fig03Result](t, "fig3", p3), runExp[*Fig03Result](t, "fig4", p4)
	var c3, c4 float64
	for i := range r3.Curves {
		c3 += r3.Curves[i].CoV
		c4 += r4.Curves[i].CoV
	}
	if c4 >= c3 {
		t.Fatalf("spacing adjustment did not damp oscillation: %v vs %v", c4, c3)
	}
}

func TestFig05Shape(t *testing.T) {
	r := runExp[*Fig05Result](t, "fig5", DefaultFig05())
	for _, row := range r.Rows {
		// p_event never exceeds p_loss, and slower flows sit closer to
		// the diagonal (ordering in the multiplier: 1x, 2x, 0.5x).
		pe1, pe2, peHalf := row.PEvent[0], row.PEvent[1], row.PEvent[2]
		for i, pe := range row.PEvent {
			if pe > row.PLoss+1e-12 {
				t.Fatalf("p=%v mult[%d]: pEvent %v above pLoss", row.PLoss, i, pe)
			}
		}
		if !(peHalf >= pe1 && pe1 >= pe2) {
			t.Fatalf("p=%v: ordering broken: 0.5x=%v 1x=%v 2x=%v",
				row.PLoss, peHalf, pe1, pe2)
		}
	}
	// The paper: difference between p_loss and p_event is at most ≈ 10%
	// for the 1× flow in moderate-loss conditions, and small at the
	// extremes.
	for _, row := range r.Rows {
		if row.PLoss <= 0.01 || row.PLoss >= 0.2 {
			if rel := (row.PLoss - row.PEvent[0]) / row.PLoss; rel > 0.25 {
				t.Fatalf("extreme p=%v: deviation %v too large", row.PLoss, rel)
			}
		}
	}
}

func TestFig06CellFairness(t *testing.T) {
	cell := fig06Cell(t, netsim.QueueDropTail, 4, 8, 60, 30, 1)
	if cell.NormTCP < 0.3 || cell.NormTCP > 2.0 {
		t.Fatalf("normalized TCP throughput %v outside [0.3, 2]", cell.NormTCP)
	}
	if cell.Utilization < 0.9 {
		t.Fatalf("utilization %v < 0.9 (paper: > 90%%)", cell.Utilization)
	}
	red := fig06Cell(t, netsim.QueueRED, 4, 8, 60, 30, 1)
	if red.NormTCP < 0.3 || red.NormTCP > 2.0 {
		t.Fatalf("RED normalized TCP throughput %v outside [0.3, 2]", red.NormTCP)
	}
}

func TestFig07PerFlowSpread(t *testing.T) {
	cells := runExp[*Fig07Result](t, "fig7", Fig07Params{TotalFlows: []int{16}, Duration: 40, MeasureTail: 20, Seed: 1}).Cells
	c := cells[0]
	if len(c.PerFlowTCP) != 8 || len(c.PerFlowTFRC) != 8 {
		t.Fatalf("per-flow counts: %d/%d", len(c.PerFlowTCP), len(c.PerFlowTFRC))
	}
	// Paper Figure 7: TCP flows show higher variance than TFRC flows.
	if stats.StdDev(c.PerFlowTFRC) > stats.StdDev(c.PerFlowTCP)*1.5 {
		t.Fatalf("TFRC per-flow spread %v ≫ TCP %v", stats.StdDev(c.PerFlowTFRC), stats.StdDev(c.PerFlowTCP))
	}
}

func TestFig08TFRCSmootherBothQueues(t *testing.T) {
	for _, r := range runExp[*Fig08GridResult](t, "fig8", DefaultFig08()).Results {
		if r.CoVTFRC >= r.CoVTCP {
			t.Fatalf("%s: TFRC CoV %v not below TCP CoV %v", r.Queue, r.CoVTFRC, r.CoVTCP)
		}
	}
}

func TestFig09Shape(t *testing.T) {
	pr := DefaultFig09()
	pr.Runs = 2
	pr.FlowsEach = 8
	pr.Duration, pr.Warmup = 50, 20
	r := runExp[*Fig09Result](t, "fig9", pr)
	for i := range pr.Timescales {
		for name, c := range map[string]MeanCI{
			"TCPvTCP": r.TCPvTCP[i], "TFRCvTFRC": r.TFRCvTFRC[i], "TCPvTFRC": r.TCPvTFRC[i],
		} {
			if c.Mean <= 0.2 || c.Mean > 1 {
				t.Fatalf("%s at τ=%v: equivalence %v outside (0.2, 1]",
					name, pr.Timescales[i], c.Mean)
			}
		}
	}
	// Equivalence improves with timescale for the cross-protocol pair.
	first, last := r.TCPvTFRC[0].Mean, r.TCPvTFRC[len(pr.Timescales)-1].Mean
	if last < first-0.05 {
		t.Fatalf("TCPvTFRC equivalence fell with timescale: %v → %v", first, last)
	}
	// Figure 10: TFRC smoother than TCP at sub-second timescales.
	if r.CoVTFRC[0].Mean >= r.CoVTCP[0].Mean {
		t.Fatalf("CoV at τ=0.2: TFRC %v not below TCP %v",
			r.CoVTFRC[0].Mean, r.CoVTCP[0].Mean)
	}
	// TFRC flows are equivalent to each other on a broader range than
	// TCP flows (paper's observation), checked at the smallest scale.
	if r.TFRCvTFRC[0].Mean < r.TCPvTCP[0].Mean-0.05 {
		t.Fatalf("TFRC pair equivalence %v well below TCP pair %v at τ=0.2",
			r.TFRCvTFRC[0].Mean, r.TCPvTCP[0].Mean)
	}
}

func TestFig11LossRisesWithSources(t *testing.T) {
	pr := Fig11Params{
		Sources:    []int{60, 150},
		Duration:   120,
		Warmup:     30,
		Timescales: []float64{1, 10},
		Runs:       1,
		Seed:       1,
	}
	r := runExp[*Fig11Result](t, "fig11", pr)
	lo, hi := r.Rows[0].LossRate.Mean, r.Rows[1].LossRate.Mean
	if hi <= lo {
		t.Fatalf("loss did not rise with sources: %v → %v", lo, hi)
	}
	if hi < 0.08 {
		t.Fatalf("150 sources produced only %v loss; paper sees tens of %%", hi)
	}
	// Figure 12 shape: equivalence at the long timescale beats the
	// short one under heavy load.
	row := r.Rows[1]
	if row.EqTCPvTFRC[1].Mean < row.EqTCPvTFRC[0].Mean-0.05 {
		t.Fatalf("equivalence fell with timescale under load: %v → %v",
			row.EqTCPvTFRC[0].Mean, row.EqTCPvTFRC[1].Mean)
	}
}

func TestFig14QueueDynamics(t *testing.T) {
	r := runExp[*Fig14Result](t, "fig14", DefaultFig14())
	for _, side := range []Fig14Side{r.TCP, r.TFRC} {
		if side.Utilization < 0.85 {
			t.Fatalf("%s utilization %v < 0.85 (paper: 99%%)", side.Protocol, side.Utilization)
		}
		if len(side.Queue) == 0 {
			t.Fatalf("%s: no queue samples", side.Protocol)
		}
	}
	// Paper: TFRC does not negatively impact queue dynamics; its drop
	// rate was in fact lower (3.5% vs 4.9%). Allow TFRC up to 1.5× TCP.
	if r.TFRC.DropRate > r.TCP.DropRate*1.5+0.01 {
		t.Fatalf("TFRC drop rate %v ≫ TCP %v", r.TFRC.DropRate, r.TCP.DropRate)
	}
}

func TestFig15TFRCSmoothComparable(t *testing.T) {
	r := runExp[*Fig15Result](t, "fig15", Fig15Params{Duration: 90, Seed: 1})
	if r.MeanTFRC <= 0 || r.MeanTCP <= 0 {
		t.Fatal("starved flow")
	}
	ratio := r.MeanTFRC / r.MeanTCP
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("TFRC/TCP mean ratio %v outside [0.3, 3]", ratio)
	}
	if r.CoVTFRC >= r.CoVTCPMean {
		t.Fatalf("TFRC CoV %v not below TCP %v", r.CoVTFRC, r.CoVTCPMean)
	}
}

func TestFig16SolarisAnomaly(t *testing.T) {
	r := runExp[*Fig16Result](t, "fig16", Fig16Params{Timescales: []float64{1, 5, 20}, Duration: 90, Seed: 1})
	byName := map[string]Fig16Row{}
	for _, row := range r.Rows {
		byName[row.Path] = row
	}
	linux, solaris := byName["UMASS (Linux)"], byName["UMASS (Solaris)"]
	// Paper: the Linux sender gives good equivalence, Solaris poorer —
	// visible at mid/long timescales.
	if solaris.Eq[2] > linux.Eq[2]+0.05 {
		t.Fatalf("Solaris eq %v not below Linux %v at τ=20", solaris.Eq[2], linux.Eq[2])
	}
	// Paper Figure 17: the anomaly is the TCP side (abnormally variable
	// Solaris TCP), while the TFRC trace "appears normal".
	if solaris.CoVTCP[0] <= solaris.CoVTFRC[0] {
		t.Fatalf("Solaris TCP CoV %v not above its TFRC %v",
			solaris.CoVTCP[0], solaris.CoVTFRC[0])
	}
}

func TestFig18PredictorShape(t *testing.T) {
	pr := DefaultFig18()
	pr.Duration = 80
	r := runExp[*Fig18Result](t, "fig18", pr)
	get := func(n int, constant bool) Fig18Point {
		for _, p := range r.Points {
			if p.HistorySize == n && p.ConstantWeights == constant {
				return p
			}
		}
		t.Fatalf("missing point n=%d constant=%v", n, constant)
		return Fig18Point{}
	}
	// More history helps up to n=8 (paper's chosen value).
	if e2, e8 := get(2, false), get(8, false); e8.AvgError > e2.AvgError {
		t.Fatalf("history 8 error %v worse than history 2 %v", e8.AvgError, e2.AvgError)
	}
	// All errors are finite, positive, and in a plausible band.
	for _, p := range r.Points {
		if p.AvgError <= 0 || p.AvgError > 0.2 {
			t.Fatalf("point %+v has implausible error", p)
		}
	}
	if r.Intervals < 50 {
		t.Fatalf("only %d intervals evaluated", r.Intervals)
	}
}

func TestFig19IncreaseRate(t *testing.T) {
	r := runExp[*Fig19Result](t, "fig19", DefaultFig19())
	if r.PreSwitchRate <= 0 {
		t.Fatal("no pre-switch rate")
	}
	// Paper Figure 19: after congestion ends the sender increases by
	// ≈ 0.12 pkts/RTT (up to ≈ 0.3 with discounting); never more.
	if r.MaxIncreasePerRTT > 0.35 {
		t.Fatalf("increase %v pkts/RTT exceeds the A.1 bound", r.MaxIncreasePerRTT)
	}
	if r.MaxIncreasePerRTT < 0.05 {
		t.Fatalf("increase %v pkts/RTT: sender barely grew", r.MaxIncreasePerRTT)
	}
	// The rate at the end must clearly exceed the loss-limited rate.
	last := r.Points[len(r.Points)-1]
	if last.RateBps < 1.2*r.PreSwitchRate {
		t.Fatalf("rate did not grow after loss ended: %v vs %v", last.RateBps, r.PreSwitchRate)
	}
}

func TestFig20HalvingTime(t *testing.T) {
	r := runExp[*Fig19Result](t, "fig20", DefaultFig20())
	if r.HalvedAfterRTTs == 0 {
		t.Fatal("rate never halved under persistent congestion")
	}
	// Paper: from three to eight round-trip times (Appendix A.2 lower
	// bound: not possible in four or fewer).
	if r.HalvedAfterRTTs < 3 || r.HalvedAfterRTTs > 10 {
		t.Fatalf("halved after %d RTTs, want ≈ 3..8", r.HalvedAfterRTTs)
	}
}

func TestFig21Sweep(t *testing.T) {
	// Paper: three to eight round-trips across the sweep. We validate
	// p ≤ 0.15; at p = 0.25 the full PFTK equation's timeout term pins
	// the pre-switch rate below one packet/RTT, which slows the wall-
	// clock response (documented deviation in EXPERIMENTS.md).
	r := runExp[*Fig21Result](t, "fig21", Fig21Params{DropRates: []float64{0.01, 0.05, 0.1, 0.15}, RTT: 0.05})
	for _, row := range r.Rows {
		if row.RTTs == 0 {
			t.Fatalf("p=%v never halved", row.DropRate)
		}
		if row.RTTs < 3 || row.RTTs > 8 {
			t.Fatalf("p=%v: halving took %d RTTs, want the paper's 3-8 band",
				row.DropRate, row.RTTs)
		}
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var b strings.Builder
	runExp[*Fig02Result](t, "fig2", Fig02Params{P1: 0.01, P2: 0.05, P3: 0.005, T1: 2, T2: 3, Duration: 5, RTT: 0.05}).Table(&b)
	runExp[*Fig05Result](t, "fig5", Fig05Params{PLoss: []float64{0.01, 0.1}, Multiplier: []float64{1}, RTT: 0.1, PacketSize: 1000}).Table(&b)
	runExp[*Fig19Result](t, "fig19", Fig19Params{DropEveryBefore: 50, DropEveryAfter: 2, SwitchTime: 2, Duration: 4, RTT: 0.05}).Table(&b)
	if len(b.String()) < 200 {
		t.Fatal("printers emitted almost nothing")
	}
	if !strings.Contains(b.String(), "Figure 5") {
		t.Fatal("missing figure header")
	}
}
