package tfrc_test

// One benchmark per figure of the paper's evaluation, plus ablation
// benches for the design decisions of the paper's §3. Each figure bench
// runs a scaled-down instance of the corresponding registered
// experiment, through the registry as cmd/tfrcsim does, and reports the
// figure's headline metric via b.ReportMetric, so
// `go test -bench . -benchmem` regenerates the whole evaluation at
// laptop scale. cmd/tfrcsim runs the same experiments at paper scale.

import (
	"math"
	"runtime"
	"testing"

	"tfrc/internal/core"
	"tfrc/internal/exp"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
	"tfrc/internal/tfrcsim"
)

// runExp runs the named experiment through exp.RunExperiment on
// parameters p and returns its typed result.
func runExp[R exp.Result, P any, PP interface {
	*P
	exp.Params
}](b *testing.B, name string, p P) R {
	b.Helper()
	d, ok := exp.Lookup(name)
	if !ok {
		b.Fatalf("no experiment %q", name)
	}
	res, err := exp.RunExperiment(d, PP(&p))
	if err != nil {
		b.Fatal(err)
	}
	return res.(R)
}

func BenchmarkFig02LossIntervalDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig02Result](b, "fig2", exp.DefaultFig02())
		if len(r.Points) == 0 {
			b.Fatal("no samples")
		}
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.EstLossRate, "final-p")
	}
}

func BenchmarkFig03OscillationNoAdjustment(b *testing.B) {
	benchFig03(b, exp.DefaultFig03())
}

func BenchmarkFig04OscillationWithAdjustment(b *testing.B) {
	benchFig03(b, exp.DefaultFig04())
}

func benchFig03(b *testing.B, pr exp.Fig03Params) {
	pr.Duration, pr.Warmup = 60, 20
	pr.BufferSizes = []int{8, 32}
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig03Result](b, "fig3", pr)
		var cov float64
		for _, c := range r.Curves {
			cov += c.CoV
		}
		b.ReportMetric(cov/float64(len(r.Curves)), "rate-cov")
	}
}

func BenchmarkFig05LossEventFraction(b *testing.B) {
	pr := exp.DefaultFig05()
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig05Result](b, "fig5", pr)
		// Report the worst-case deviation of p_event below p_loss for
		// the 1× flow (paper: at most ≈ 10% at moderate loss).
		worst := 0.0
		for _, row := range r.Rows {
			if d := (row.PLoss - row.PEvent[0]) / row.PLoss; d > worst {
				worst = d
			}
		}
		b.ReportMetric(worst, "max-deviation")
	}
}

func BenchmarkFig06FairnessGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// One representative cell per queue type.
		r := runExp[*exp.Fig06Result](b, "fig6", exp.Fig06Params{
			LinkMbps:    []float64{8},
			TotalFlows:  []int{8},
			Queues:      []netsim.QueueKind{netsim.QueueDropTail, netsim.QueueRED},
			Duration:    45,
			MeasureTail: 30,
			Seed:        1,
		})
		b.ReportMetric(r.Cells[0].NormTCP, "normTCP-droptail")
		b.ReportMetric(r.Cells[1].NormTCP, "normTCP-red")
	}
}

func BenchmarkFig07PerFlowDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := runExp[*exp.Fig07Result](b, "fig7", exp.Fig07Params{TotalFlows: []int{16}, Duration: 40, MeasureTail: 20, Seed: 1}).Cells
		b.ReportMetric(stats.StdDev(cells[0].PerFlowTCP), "tcp-spread")
		b.ReportMetric(stats.StdDev(cells[0].PerFlowTFRC), "tfrc-spread")
	}
}

func BenchmarkFig08ThroughputTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pr := exp.DefaultFig08()
		pr.Queues = []netsim.QueueKind{netsim.QueueRED}
		r := runExp[*exp.Fig08GridResult](b, "fig8", pr).Results[0]
		b.ReportMetric(r.CoVTCP, "cov-tcp")
		b.ReportMetric(r.CoVTFRC, "cov-tfrc")
	}
}

func BenchmarkFig09EquivalenceRatio(b *testing.B) {
	pr := exp.DefaultFig09()
	pr.Runs, pr.FlowsEach, pr.Duration, pr.Warmup = 2, 8, 40, 15
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig09Result](b, "fig9", pr)
		b.ReportMetric(r.TCPvTFRC[2].Mean, "eq-tcp-tfrc@1s")
	}
}

func BenchmarkFig10CoVTimescales(b *testing.B) {
	pr := exp.DefaultFig09()
	pr.Runs, pr.FlowsEach, pr.Duration, pr.Warmup = 2, 8, 40, 15
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig09Result](b, "fig9", pr)
		b.ReportMetric(r.CoVTCP[2].Mean, "cov-tcp@1s")
		b.ReportMetric(r.CoVTFRC[2].Mean, "cov-tfrc@1s")
	}
}

func BenchmarkFig11OnOffLossRate(b *testing.B) {
	pr := exp.Fig11Params{
		Sources: []int{100}, Duration: 60, Warmup: 20,
		Timescales: []float64{1}, Runs: 1, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig11Result](b, "fig11", pr)
		b.ReportMetric(r.Rows[0].LossRate.Mean, "loss-rate")
	}
}

func BenchmarkFig12EquivalenceUnderLoad(b *testing.B) {
	pr := exp.Fig11Params{
		Sources: []int{100}, Duration: 60, Warmup: 20,
		Timescales: []float64{10}, Runs: 1, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig11Result](b, "fig11", pr)
		b.ReportMetric(r.Rows[0].EqTCPvTFRC[0].Mean, "eq@10s")
	}
}

func BenchmarkFig13CoVUnderLoad(b *testing.B) {
	pr := exp.Fig11Params{
		Sources: []int{100}, Duration: 60, Warmup: 20,
		Timescales: []float64{1}, Runs: 1, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig11Result](b, "fig11", pr)
		b.ReportMetric(r.Rows[0].CoVTFRC[0].Mean, "cov-tfrc")
		b.ReportMetric(r.Rows[0].CoVTCP[0].Mean, "cov-tcp")
	}
}

func BenchmarkFig14QueueDynamics(b *testing.B) {
	pr := exp.DefaultFig14()
	pr.Flows, pr.Duration = 20, 20
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig14Result](b, "fig14", pr)
		b.ReportMetric(r.TCP.DropRate, "drop-tcp")
		b.ReportMetric(r.TFRC.DropRate, "drop-tfrc")
	}
}

func BenchmarkFig15InternetTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig15Result](b, "fig15", exp.Fig15Params{Duration: 60, Seed: 1})
		b.ReportMetric(r.MeanTFRC/r.MeanTCP, "tfrc/tcp")
	}
}

func BenchmarkFig16PathEquivalence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig16Result](b, "fig16", exp.Fig16Params{Timescales: []float64{1, 10}, Duration: 60, Seed: 1})
		// Paper: Linux path equivalent, Solaris path poorer.
		var linux, solaris float64
		for _, row := range r.Rows {
			switch row.Path {
			case "UMASS (Linux)":
				linux = row.Eq[1]
			case "UMASS (Solaris)":
				solaris = row.Eq[1]
			}
		}
		b.ReportMetric(linux, "eq-linux")
		b.ReportMetric(solaris, "eq-solaris")
	}
}

func BenchmarkFig17PathCoV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig16Result](b, "fig16", exp.Fig16Params{Timescales: []float64{1}, Duration: 60, Seed: 1})
		var tcpCov, tfrcCov float64
		for _, row := range r.Rows {
			if row.Path == "UMASS (Solaris)" {
				tcpCov, tfrcCov = row.CoVTCP[0], row.CoVTFRC[0]
			}
		}
		b.ReportMetric(tcpCov, "cov-solaris-tcp")
		b.ReportMetric(tfrcCov, "cov-solaris-tfrc")
	}
}

func BenchmarkFig18LossPredictor(b *testing.B) {
	pr := exp.DefaultFig18()
	pr.Duration = 60
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig18Result](b, "fig18", pr)
		for _, p := range r.Points {
			if p.HistorySize == 8 && !p.ConstantWeights {
				b.ReportMetric(p.AvgError, "err-n8-decreasing")
			}
		}
	}
}

func BenchmarkFig19IncreaseRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig19Result](b, "fig19", exp.DefaultFig19())
		b.ReportMetric(r.MaxIncreasePerRTT, "pkts-per-rtt")
	}
}

func BenchmarkFig20PersistentCongestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig19Result](b, "fig20", exp.DefaultFig20())
		b.ReportMetric(float64(r.HalvedAfterRTTs), "rtts-to-halve")
	}
}

func BenchmarkFig21HalvingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig21Result](b, "fig21", exp.Fig21Params{DropRates: []float64{0.01, 0.1}, RTT: 0.05})
		var mean float64
		for _, row := range r.Rows {
			mean += float64(row.RTTs)
		}
		b.ReportMetric(mean/float64(len(r.Rows)), "rtts-to-halve")
	}
}

func BenchmarkAppendixA1IncreaseBound(b *testing.B) {
	// Evaluate the ΔT formula across the A range; report the bound.
	for i := 0; i < b.N; i++ {
		worst := 0.0
		for a := 1.0; a < 1e6; a *= 1.1 {
			d := 1.2 * (math.Sqrt(a+(1.0/6)*1.2*math.Sqrt(a)) - math.Sqrt(a))
			if d > worst {
				worst = d
			}
		}
		b.ReportMetric(worst, "max-deltaT")
	}
}

// --- Ablation benches: the design choices of §3 ---

// BenchmarkAblationEstimators compares the chosen Average Loss Interval
// method against the rejected alternatives (§3.3) on a noisy stationary
// loss process (intervals alternating 60/140, mean 100): the metric is
// the CoV of the reported loss rate — the "unnecessary noise" the paper
// designs against. ALI's eight-interval weighted window smooths the
// alternation; EWMA with a responsive weight bounces; the Dynamic
// History Window modulates as events enter and leave the window.
func BenchmarkAblationEstimators(b *testing.B) {
	intervals := func(k int) float64 {
		if k%2 == 0 {
			return 60
		}
		return 140
	}
	run := func(est core.LossRateEstimator) float64 {
		var ps []float64
		for k := 0; k < 100; k++ {
			est.OnLossEvent(intervals(k))
			if k >= 16 {
				ps = append(ps, est.P())
			}
		}
		return stats.CoV(ps)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(core.NewALI(core.DefaultLossHistory())), "cov-ali")
		b.ReportMetric(run(core.NewEWMAIntervals(0.3)), "cov-ewma")
		// DHW with a window that is not a multiple of the loss period.
		d := core.NewDynamicHistoryWindow(250)
		var ps []float64
		k, pkts := 0, 0
		for pkts < 20000 {
			iv := int(intervals(k))
			for j := 0; j < iv-1; j++ {
				d.OnPacket(false)
				pkts++
				if pkts > 2000 && pkts%10 == 0 {
					ps = append(ps, d.P())
				}
			}
			d.OnPacket(true)
			pkts++
			k++
		}
		b.ReportMetric(stats.CoV(ps), "cov-dhw")
	}
}

// BenchmarkAblationDiscounting measures how much faster the sender
// recovers after congestion ends with history discounting on vs off.
func BenchmarkAblationDiscounting(b *testing.B) {
	run := func(discount bool) float64 {
		h := core.NewLossHistory(core.LossHistoryConfig{N: 8, Discounting: discount})
		for k := 0; k < 8; k++ {
			h.OnLossEvent(100)
		}
		open, rate := 0.0, 1.2*math.Sqrt(100)
		for rtt := 0; rtt < 500; rtt++ {
			open += rate
			h.SetOpen(open)
			rate = 1.2 * math.Sqrt(h.AvgInterval())
		}
		return rate
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true), "rate-after-500rtt-disc")
		b.ReportMetric(run(false), "rate-after-500rtt-plain")
	}
}

// BenchmarkAblationS0 compares the max(ŝ, ŝ_new) rule against always or
// never including the open interval: the metric is estimate stability
// under periodic loss (never-include is stable but slow; always-include
// is noisy; the paper's rule is both stable and responsive).
func BenchmarkAblationS0(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := core.NewLossHistory(core.LossHistoryConfig{N: 8})
		for k := 0; k < 10; k++ {
			h.OnLossEvent(100)
		}
		var maxRule, always []float64
		for s0 := 1.0; s0 <= 99; s0++ {
			h.SetOpen(s0)
			maxRule = append(maxRule, h.AvgInterval())
			// "always include" recomputed naively:
			sum, w := s0*1.0, 1.0
			for j, iv := range h.Intervals() {
				ws := core.Weights(8)
				if j+1 < 8 {
					sum += iv * ws[j+1]
					w += ws[j+1]
				}
			}
			always = append(always, sum/w)
		}
		b.ReportMetric(stats.CoV(maxRule), "cov-max-rule")
		b.ReportMetric(stats.CoV(always), "cov-always-include")
	}
}

// BenchmarkAblationDecrease compares the three §3.2 decrease policies by
// the rate CoV of a single flow on a small-buffer bottleneck.
func BenchmarkAblationDecrease(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    core.DecreasePolicy
	}{{"to-T", core.DecreaseToT}, {"toward-T", core.DecreaseToward}, {"exponential", core.DecreaseExponential}} {
		b.Run(pol.name, func(b *testing.B) {
			pr := exp.DefaultFig03()
			pr.Duration, pr.Warmup = 40, 15
			pr.BufferSizes = []int{16}
			pr.Decrease = pol.p
			for i := 0; i < b.N; i++ {
				r := runExp[*exp.Fig03Result](b, "fig3", pr)
				b.ReportMetric(r.Curves[0].CoV, "rate-cov")
			}
		})
	}
}

// BenchmarkAblationEquation compares the full PFTK response function
// with the simple √p form at moderate and high loss.
func BenchmarkAblationEquation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(core.PFTK(1000, 0.1, 0.4, 0.02)/core.Simple(1000, 0.1, 0.4, 0.02), "full/simple@p2%")
		b.ReportMetric(core.PFTK(1000, 0.1, 0.4, 0.15)/core.Simple(1000, 0.1, 0.4, 0.15), "full/simple@p15%")
	}
}

// --- Microbenchmarks: the protocol hot paths ---

func BenchmarkEquationPFTK(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = core.PFTK(1000, 0.1, 0.4, 0.01)
	}
	_ = sink
}

func BenchmarkLossHistoryUpdate(b *testing.B) {
	h := core.NewLossHistory(core.DefaultLossHistory())
	for i := 0; i < 8; i++ {
		h.OnLossEvent(100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SetOpen(float64(i % 200))
		_ = h.LossEventRate()
	}
}

func BenchmarkReceiverOnData(b *testing.B) {
	r := core.NewReceiver(core.ReceiverConfig{PacketSize: 1000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.OnData(float64(i)*0.001, core.DataPacket{
			Seq: int64(i), Size: 1000, SendTime: float64(i) * 0.001, SenderRTT: 0.1,
		})
	}
}

func BenchmarkSimulatorPacketsPerSecond(b *testing.B) {
	// End-to-end simulator cost: one 10-second 8-flow scenario per
	// iteration; the metric is delivered bottleneck data packets (a
	// deterministic count) per real second. `tfrcsim -bench` snapshots
	// the same workload into BENCH_<n>.json for the CI regression gate.
	var pkts float64
	for i := 0; i < b.N; i++ {
		r := exp.RunScenario(exp.Scenario{
			NTCP: 4, NTFRC: 4,
			BottleneckBW: 8e6,
			Queue:        netsim.QueueRED,
			Duration:     10,
			Warmup:       2,
			Seed:         int64(i),
		})
		if r.Utilization == 0 {
			b.Fatal("dead simulation")
		}
		for _, s := range append(r.TCPSeries, r.TFRCSeries...) {
			for _, v := range s {
				pkts += v / 1000
			}
		}
	}
	b.ReportMetric(pkts/b.Elapsed().Seconds(), "pkts/sec")
}

// BenchmarkSweepCellsPerSecond measures the sweep engine end to end: a
// Figure 6-shaped grid of short scenarios executed on the worker-pinned
// runner at realistic parallelism. The metric is grid cells completed
// per wall-clock second — the quantity that decides how long PaperFig11
// takes. `tfrcsim -bench` snapshots the same workload (plus per-cell
// setup allocations) into BENCH_<n>.json for the CI regression gate.
func BenchmarkSweepCellsPerSecond(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	prev := exp.SetParallelism(workers)
	defer exp.SetParallelism(prev)
	pr := exp.Fig06Params{
		LinkMbps:    []float64{2, 8},
		TotalFlows:  []int{4, 8},
		Queues:      []netsim.QueueKind{netsim.QueueDropTail, netsim.QueueRED},
		Duration:    15,
		MeasureTail: 10,
		Seed:        1,
		Seeds:       4,
	}
	cells := len(pr.LinkMbps) * len(pr.TotalFlows) * len(pr.Queues) * pr.Seeds
	for i := 0; i < b.N; i++ {
		r := runExp[*exp.Fig06Result](b, "fig6", pr)
		if len(r.Cells) == 0 {
			b.Fatal("empty grid")
		}
	}
	b.ReportMetric(float64(b.N*cells)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkManyFlowsPacketsPerSecond measures the flow-scaling machinery
// — chunked agent slabs, struct-of-arrays monitors, the coarse timer
// wheel, dense port tables, and the calendar event queue — at the 10k
// rung of the manyflows ladder. The metric is bottleneck-delivered
// packets per wall-clock second; `tfrcsim -bench` snapshots the full
// 1k/10k/100k curve into BENCH_<n>.json for the CI regression gate, and
// CI captures cpu/mem profiles of this benchmark as artifacts.
func BenchmarkManyFlowsPacketsPerSecond(b *testing.B) {
	pr := exp.DefaultManyFlows()
	// Short window, as in the bench harness: throughput needs no settling.
	pr.Duration, pr.Warmup = 5, 2
	pr.Flows = []int{10_000}
	var pkts float64
	for i := 0; i < b.N; i++ {
		cell := runExp[*exp.ManyFlowsResult](b, "manyflows", pr).Cells[0]
		if cell.DeliveredPkts == 0 {
			b.Fatal("dead simulation")
		}
		pkts += float64(cell.DeliveredPkts)
	}
	b.ReportMetric(pkts/b.Elapsed().Seconds(), "pkts/sec")
}

// --- Extension benches: the paper's §7 future-work items ---

// BenchmarkExtensionECN compares loss experienced by an ECN-capable TFRC
// flow against a non-ECN flow on the same ECN-enabled RED bottleneck.
func BenchmarkExtensionECN(b *testing.B) {
	run := func(ecn bool) (drops float64) {
		sched := sim.NewScheduler()
		nw := netsim.New(sched)
		nodeA, nodeB := nw.NewNode(), nw.NewNode()
		redCfg := netsim.DefaultRED(60)
		redCfg.MinThresh, redCfg.MaxThresh = 5, 25
		redCfg.ECN = true
		nw.Connect(nodeA, nodeB, 2e6, 0.020, func() netsim.Queue {
			return netsim.NewRED(redCfg, sched.Now, sim.NewRand(1))
		})
		nw.BuildRoutes()
		mon := netsim.NewFlowMonitor(1, 5)
		nodeA.LinkTo(nodeB).AddTap(mon.Tap())
		cfg := tfrcsim.DefaultConfig()
		cfg.ECN = ecn
		snd, _ := tfrcsim.Pair(nw, nodeA, nodeB, 1, 2, 0, cfg)
		snd.Start(0)
		sched.RunUntil(30)
		return float64(mon.Drops(0))
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true), "drops-ecn")
		b.ReportMetric(run(false), "drops-noecn")
	}
}

// BenchmarkExtensionQuiescence measures the §7 rate-validation decay: the
// allowed rate after a 10-interval idle period, with and without OnIdle.
func BenchmarkExtensionQuiescence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.NewSender(core.DefaultSenderConfig())
		for k := 0; k < 10; k++ {
			s.OnFeedback(core.Feedback{P: 0.001, XRecv: 1e9, RTTSample: 0.1})
		}
		before := s.Rate()
		after := s.OnIdle(10 * s.NoFeedbackTimeout())
		b.ReportMetric(before/1000, "rate-before-kBps")
		b.ReportMetric(after/1000, "rate-after-idle-kBps")
	}
}
