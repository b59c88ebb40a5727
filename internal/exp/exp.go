// Package exp implements one experiment per figure of the paper's
// evaluation (Figures 2-21) plus the beyond-the-paper scenarios. Each
// experiment registers a Descriptor whose Grid maps a parameter struct
// to a result struct; RunExperiment is the one way to run it, from
// tests, benchmarks and the tfrcsim CLI alike. Table methods emit
// gnuplot-ready rows matching the series the paper plots. Scaled-down
// defaults keep test and benchmark runtimes laptop-friendly; presets
// select paper-scale parameters.
package exp

import (
	"fmt"
	"io"
	"math"

	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
	"tfrc/internal/traffic"
)

// Scenario describes one dumbbell simulation mixing TCP and TFRC flows —
// the shared substrate of Figures 6-14.
type Scenario struct {
	NTCP  int
	NTFRC int

	BottleneckBW  float64 // bits/sec
	BottleneckDly float64 // one-way, seconds; default 0.025
	Queue         netsim.QueueKind
	QueueLimit    int     // packets; 0 → one bandwidth-delay product
	REDMin        float64 // 0 → QueueLimit/10
	REDMax        float64 // 0 → QueueLimit/2

	// RTTJitterMin/Max give per-host access delays so base RTTs spread
	// uniformly (Figure 9 footnote: RTTs uniform in [80, 120] ms). Zero
	// values give 1 ms access links.
	AccessDlyMin, AccessDlyMax float64

	TCPVariant     tcp.Variant
	TCPGranularity float64
	TCPAggressive  bool // Solaris-like spurious-RTO sender (§4.3)
	TFRC           tfrcsim.Config

	// OnOffSources adds N Pareto ON/OFF background sources (§4.1.3).
	OnOffSources int
	OnOff        traffic.OnOffConfig

	// MiceLoad adds short-TCP background at roughly this fraction of the
	// bottleneck (§4.2), plus a small amount of reverse-path traffic.
	MiceLoad float64

	Duration float64 // seconds of simulated time
	Warmup   float64 // measurement start
	BinWidth float64 // base measurement bin (seconds); default 0.1

	// StaggerStarts spreads flow start times over this many seconds
	// (default: 10% of duration, max 10 s).
	StaggerStarts float64

	Seed int64
}

// Validate checks the scenario for parameter mistakes that would
// otherwise produce an empty or meaningless result. Zero-valued fields
// that fill defaults (queue limit, bin width, ...) are fine.
func (sc *Scenario) Validate() error {
	if sc.NTCP < 0 || sc.NTFRC < 0 {
		return fmt.Errorf("flow counts must be non-negative, got NTCP=%d NTFRC=%d", sc.NTCP, sc.NTFRC)
	}
	if sc.BottleneckBW <= 0 {
		return fmt.Errorf("BottleneckBW must be positive, got %v", sc.BottleneckBW)
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("Duration must be positive, got %v", sc.Duration)
	}
	if sc.Warmup < 0 || sc.Warmup >= sc.Duration {
		return fmt.Errorf("need 0 <= Warmup < Duration, got Warmup=%v Duration=%v", sc.Warmup, sc.Duration)
	}
	if sc.OnOffSources < 0 {
		return fmt.Errorf("OnOffSources must be non-negative, got %d", sc.OnOffSources)
	}
	if sc.MiceLoad < 0 {
		return fmt.Errorf("MiceLoad must be non-negative, got %v", sc.MiceLoad)
	}
	if sc.BinWidth < 0 {
		return fmt.Errorf("BinWidth must be non-negative (0 means the 0.1 s default), got %v", sc.BinWidth)
	}
	if sc.BottleneckDly < 0 {
		return fmt.Errorf("BottleneckDly must be non-negative (0 means the 25 ms default), got %v", sc.BottleneckDly)
	}
	if sc.QueueLimit < 0 {
		return fmt.Errorf("QueueLimit must be non-negative (0 means one BDP), got %d", sc.QueueLimit)
	}
	if sc.StaggerStarts < 0 {
		return fmt.Errorf("StaggerStarts must be non-negative (0 means the default spread), got %v", sc.StaggerStarts)
	}
	if sc.AccessDlyMin < 0 || sc.AccessDlyMax < sc.AccessDlyMin {
		return fmt.Errorf("need 0 <= AccessDlyMin <= AccessDlyMax, got %v..%v", sc.AccessDlyMin, sc.AccessDlyMax)
	}
	return nil
}

func (sc *Scenario) fill() {
	if sc.BottleneckDly == 0 {
		sc.BottleneckDly = 0.025
	}
	if sc.QueueLimit == 0 {
		// One bandwidth-delay product at a nominal 100 ms RTT, in
		// 1000-byte packets — mirrors the paper's buffer of 100 packets
		// on the 15 Mb/s link.
		sc.QueueLimit = int(math.Max(10, sc.BottleneckBW*0.1/(8*1000)))
	}
	if sc.REDMin == 0 {
		sc.REDMin = math.Max(5, float64(sc.QueueLimit)/10)
	}
	if sc.REDMax == 0 {
		sc.REDMax = float64(sc.QueueLimit) / 2
	}
	if sc.BinWidth == 0 {
		sc.BinWidth = 0.1
	}
	if sc.TFRC.Sender.PacketSize == 0 {
		sc.TFRC = tfrcsim.DefaultConfig()
	}
	if sc.StaggerStarts == 0 {
		sc.StaggerStarts = math.Min(sc.Duration/10, 10)
	}
	if sc.OnOff.Rate == 0 {
		sc.OnOff = traffic.DefaultOnOff()
	}
}

// ScenarioResult carries everything the figure experiments extract.
type ScenarioResult struct {
	// TCPSeries and TFRCSeries are per-flow binned byte counts measured
	// at the bottleneck from Warmup on.
	TCPSeries  [][]float64
	TFRCSeries [][]float64
	BinWidth   float64
	Bins       int

	Utilization float64
	DropRate    float64
	QueueMean   float64
	QueueMax    int
	Queue       []netsim.QueueSample

	// FairShare is the per-flow fair share of the bottleneck in
	// bytes/sec counting only the monitored long-lived flows.
	FairShare float64
}

// NormalizedMeanTCP returns the mean TCP throughput normalized so 1.0 is
// a fair share — the z-axis of Figure 6.
func (r *ScenarioResult) NormalizedMeanTCP() float64 {
	return r.normalizedMean(r.TCPSeries)
}

// NormalizedMeanTFRC is the TFRC counterpart.
func (r *ScenarioResult) NormalizedMeanTFRC() float64 {
	return r.normalizedMean(r.TFRCSeries)
}

func (r *ScenarioResult) normalizedMean(series [][]float64) float64 {
	if len(series) == 0 || r.FairShare == 0 {
		return 0
	}
	var sum float64
	for _, s := range series {
		sum += stats.Mean(s) / r.BinWidth / r.FairShare
	}
	return sum / float64(len(series))
}

// NormalizedPerFlow returns each flow's normalized throughput — the
// points of Figure 7.
func (r *ScenarioResult) NormalizedPerFlow(series [][]float64) []float64 {
	out := make([]float64, len(series))
	for i, s := range series {
		out[i] = stats.Mean(s) / r.BinWidth / r.FairShare
	}
	return out
}

// RunScenario builds the dumbbell, starts the flows and background, runs
// the clock, and harvests measurements. It is a preset over
// ScenarioBuilder: the dumbbell topology, one monitor set on the
// congested link, and the paper's flow mix, in a fixed deterministic
// order. The simulation runs on a pooled worker Cell, so repeated calls
// reuse a warm arena; grid experiments pass their worker-pinned cell to
// runScenarioCell directly.
func RunScenario(sc Scenario) *ScenarioResult {
	c := getCell()
	defer putCell(c)
	return runScenarioCell(c, sc)
}

// runScenarioCell is RunScenario on an explicit worker cell. The result
// is fully private to the caller: every harvested series is copied out
// of the arena before the cell can be reused.
func runScenarioCell(c *Cell, sc Scenario) *ScenarioResult {
	sc.fill()
	sched := c.begin()
	rng := sched.NewRand(sc.Seed)

	hosts := sc.NTCP + sc.NTFRC
	extra := 0
	if sc.OnOffSources > 0 || sc.MiceLoad > 0 {
		extra = 1 // a dedicated host pair carries all background traffic
	}
	accessDly := c.floats(hosts + extra)
	for i := range accessDly {
		if sc.AccessDlyMax > 0 {
			accessDly[i] = rng.Uniform(sc.AccessDlyMin, sc.AccessDlyMax)
		} else {
			accessDly[i] = 0.001
		}
	}
	red := netsim.DefaultRED(sc.QueueLimit)
	red.MinThresh = sc.REDMin
	red.MaxThresh = sc.REDMax
	d := netsim.NewDumbbell(sched, netsim.DumbbellConfig{
		Hosts:         hosts + extra,
		BottleneckBW:  sc.BottleneckBW,
		BottleneckDly: sc.BottleneckDly,
		Queue:         sc.Queue,
		QueueLimit:    sc.QueueLimit,
		RED:           red,
		AccessDly:     accessDly,
		PktBytes:      sc.TFRC.Sender.PacketSize, // capacity-aware queues drain at the real packet size
	}, sched.NewRand(sc.Seed+1))

	b := NewScenarioBuilder(d.Topo)
	b.MonitorLink("rl->rr", sc.BinWidth, sc.Warmup)
	b.MonitorUtilization("rl->rr", sc.Warmup)
	b.MonitorQueue("rl->rr", 0.05, sc.Duration)

	// Start times are drawn inline (not through a closure) so the cell's
	// setup path builds no per-call function values.
	left := func(h int) string { return netsim.IndexedName("l", h) }
	right := func(h int) string { return netsim.IndexedName("r", h) }
	for i := 0; i < sc.NTCP; i++ {
		b.AddTCP(left(i), right(i), tcp.Config{
			Variant:       sc.TCPVariant,
			Granularity:   sc.TCPGranularity,
			AggressiveRTO: sc.TCPAggressive,
			SendJitter:    0.001, // break deterministic phase effects
			JitterSeed:    sc.Seed,
		}, rng.Uniform(0, sc.StaggerStarts))
	}
	for i := 0; i < sc.NTFRC; i++ {
		h := sc.NTCP + i
		tf := sc.TFRC
		if tf.PacingJitter == 0 {
			tf.PacingJitter = 0.05
			tf.JitterSeed = sc.Seed
		}
		b.AddTFRC(left(h), right(h), tf, rng.Uniform(0, sc.StaggerStarts))
	}

	if extra > 0 {
		bg := hosts // the background host pair index
		for i := 0; i < sc.OnOffSources; i++ {
			b.AddOnOff(left(bg), right(bg), sc.OnOff,
				sched.NewRand(sc.Seed+100+int64(i)), rng.Uniform(0, 3))
		}
		if sc.MiceLoad > 0 {
			// Sessions sized so offered load ≈ MiceLoad·bottleneck:
			// rate = meanSize·pktSize·8/interarrival.
			meanSize := 20.0
			inter := meanSize * 1000 * 8 / (sc.MiceLoad * sc.BottleneckBW)
			b.AddMice(left(bg), right(bg), traffic.MiceConfig{
				MeanInterarrival: inter,
				MeanSize:         meanSize,
				Variant:          tcp.Sack,
				BasePort:         5000,
			}, sched.NewRand(sc.Seed+7), 0.5)
			// A whiff of reverse traffic so ACK paths are not pristine.
			b.AddOnOff(right(bg), left(bg),
				traffic.OnOffConfig{MeanOn: 0.5, MeanOff: 4, Shape: 1.5,
					Rate: 0.02 * sc.BottleneckBW, PacketSize: 1000},
				sched.NewRand(sc.Seed+8), 1)
		}
	}

	res := b.Run(sc.Duration)
	b.Release()
	return res
}

// printTable writes a simple aligned table: a header line, then rows.
func printTable(w io.Writer, header string, rows [][]float64, format string) {
	fmt.Fprintln(w, header)
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprintf(w, format, v)
		}
		fmt.Fprintln(w)
	}
}
