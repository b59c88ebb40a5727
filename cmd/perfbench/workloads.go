package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"tfrc/experiment"
	"tfrc/scenario"
)

// workload is one benchmark input: how to set up one of its cells
// through the public builder (a probe, timed for setup_s), and how to
// run one measured unit (a cell, or a whole grid).
type workload struct {
	name    string
	procs   int // GOMAXPROCS pin
	workers int // simulation workers (experiment parallelism)
	// minUnits are always run, whatever the budget; the outcome digest
	// covers exactly these, so it does not depend on machine speed.
	minUnits  int
	setupReps int  // set-up probes per invocation
	probeRuns bool // run the last probe to check the bottleneck link
	probe     func(seed int64, i int, runIt bool) probeResult
	unit      func(seed int64, i int, m *meter) (unitResult, error)
}

// unitResult is what one measured unit produced.
type unitResult struct {
	cells        int
	problems     []string
	pkts         float64 // delivered bottleneck data packets
	cellMs       float64 // wall milliseconds of one cell
	setup        time.Duration
	run          time.Duration
	digest       [sha256.Size]byte
	link         *linkCounts        // bottleneck counters, when the monitor is reachable
	notes        map[string]float64 // simulated figures worth printing
	pendingStart int
	pendingEnd   int
}

// probeResult is one set-up probe: a cell of the workload's shape built
// through the public builder, optionally run for the bottleneck checks.
type probeResult struct {
	setup        time.Duration
	flows        int
	ran          bool
	problems     []string
	link         *linkCounts
	pendingStart int
	pendingEnd   int
}

var workloads = map[string]*workload{
	"dumbbell8": {
		name: "dumbbell8", procs: 1, workers: 1,
		minUnits: 200, setupReps: 101, probeRuns: true,
		probe: dumbbell8Shape.probe,
		unit:  dumbbell8Unit,
	},
	"manyflows10k": {
		name: "manyflows10k", procs: 1, workers: 1,
		minUnits: 1, setupReps: 2,
		probe: manyFlowsProbe,
		unit:  manyFlowsUnit,
	},
	"onoff-grid": {
		name: "onoff-grid", procs: gridWorkers, workers: gridWorkers,
		minUnits: 1, setupReps: 21, probeRuns: true,
		probe: onoffShape.probe,
		unit:  onoffUnit,
	},
}

// utilSlack is the tolerance above 1.0 for a utilization measured from
// departures: a window edge can cut one packet's serialization.
const utilSlack = 1e-3

// dumbbellShape is a cell of the paper's dumbbell preset, rebuilt
// through the public builder so its set-up can be timed apart from its
// run and its bottleneck monitor read afterwards.
type dumbbellShape struct {
	bw               float64
	tcp, tfrc, onoff int
	duration, warmup float64
}

var (
	// dumbbell8Shape matches the dumbbell8 cells: 4 TCP + 4 TFRC on the
	// 8 Mb/s RED bottleneck.
	dumbbell8Shape = dumbbellShape{bw: 8e6, tcp: 4, tfrc: 4, duration: 10, warmup: 2}
	// onoffShape matches the largest fig11 cell: 1 TCP + 1 TFRC over
	// 150 Pareto ON/OFF sources on the 15 Mb/s RED bottleneck, cut to
	// 40 of its 200 simulated seconds.
	onoffShape = dumbbellShape{bw: gridBottleneckBps, tcp: 1, tfrc: 1, onoff: 150, duration: 40, warmup: 10}
)

func (sh dumbbellShape) probe(seed int64, i int, runIt bool) probeResult {
	seed = seed*1000 + 500 + int64(i)
	pr := probeResult{flows: sh.tcp + sh.tfrc + sh.onoff}
	start := time.Now()

	sched := scenario.NewScheduler()
	rng := sched.NewRand(seed)
	hosts := sh.tcp + sh.tfrc
	if sh.onoff > 0 {
		hosts++ // one host pair carries all background traffic
	}
	const limit = 100
	red := scenario.DefaultRED(limit)
	red.MinThresh, red.MaxThresh = 10, 50
	d := scenario.NewDumbbell(sched, scenario.DumbbellConfig{
		Hosts: hosts, BottleneckBW: sh.bw, BottleneckDly: 0.025,
		Queue: scenario.QueueRED, QueueLimit: limit, RED: red, PktBytes: 1000,
	}, sched.NewRand(seed+1))
	b := scenario.NewBuilder(d.Topo)
	mon := b.MonitorLink("rl->rr", 0.1, sh.warmup)
	b.MonitorUtilization("rl->rr", sh.warmup)
	b.MonitorQueue("rl->rr", 0.05, sh.duration)
	left := func(h int) string { return scenario.IndexedName("l", h) }
	right := func(h int) string { return scenario.IndexedName("r", h) }
	stagger := math.Min(sh.duration/10, 10)
	for h := 0; h < sh.tcp; h++ {
		cfg := scenario.TCPConfig{Variant: scenario.TCPSack, SendJitter: 0.001, JitterSeed: seed}
		b.AddTCP(left(h), right(h), cfg, rng.Uniform(0, stagger))
	}
	tf := scenario.DefaultTFRCConfig()
	tf.PacingJitter, tf.JitterSeed = 0.05, seed
	for h := sh.tcp; h < sh.tcp+sh.tfrc; h++ {
		b.AddTFRC(left(h), right(h), tf, rng.Uniform(0, stagger))
	}
	for k := 0; k < sh.onoff; k++ {
		bg := sh.tcp + sh.tfrc
		b.AddOnOff(left(bg), right(bg), scenario.DefaultOnOff(), sched.NewRand(seed+100+int64(k)), rng.Uniform(0, 3))
	}
	pr.setup = time.Since(start)

	if runIt {
		pr.ran = true
		pr.pendingStart = sched.Len()
		res := b.Run(sh.duration)
		pr.pendingEnd = sched.Len()
		arr, dep, drops := mon.Stats()
		pr.link = &linkCounts{arrivals: arr, departs: dep, drops: drops, queued: d.ForwardQ.Len()}
		pr.problems = append(checkScenario(res, 0, 1+utilSlack), pr.link.check()...)
	}
	b.Release()
	return pr
}

// cellSeed gives every dumbbell8 cell of a run its own seed.
func cellSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) }

// spec is the shape as the scenario preset that scenario.Run executes.
func (sh dumbbellShape) spec(seed int64) scenario.Spec {
	return scenario.Spec{
		NTCP: sh.tcp, NTFRC: sh.tfrc, OnOffSources: sh.onoff,
		BottleneckBW: sh.bw,
		Queue:        scenario.QueueRED,
		TCPVariant:   scenario.TCPSack,
		Duration:     sh.duration,
		Warmup:       sh.warmup,
		Seed:         seed,
	}
}

func dumbbell8Unit(seed int64, i int, m *meter) (unitResult, error) {
	m.begin()
	sp := dumbbell8Shape.spec(cellSeed(seed, i))
	m.end(phaseSetup, i)
	res, err := scenario.Run(sp)
	run := m.end(phaseRun, i)
	if err != nil {
		return unitResult{}, err
	}
	u := harvestDumbbell8(res, run)
	m.end(phaseHarvest, i)
	// scenario.Run recycles its arena itself: nothing is left to release.
	m.end(phaseRelease, i)
	return u, nil
}

// harvestDumbbell8 checks, counts and digests one dumbbell8 cell.
func harvestDumbbell8(res *scenario.Result, run time.Duration) unitResult {
	return unitResult{
		cells:    1,
		run:      run,
		cellMs:   ms(run),
		pkts:     deliveredPkts(res),
		problems: checkScenario(res, 0, 1+utilSlack),
		digest:   digestScenario(res, nil),
	}
}

// deliveredPkts counts the data packets the long-lived flows delivered
// through the bottleneck after warm-up (1000-byte packets).
func deliveredPkts(res *scenario.Result) float64 {
	var bytes float64
	for _, set := range [][][]float64{res.TCPSeries, res.TFRCSeries} {
		for _, s := range set {
			for _, v := range s {
				bytes += v
			}
		}
	}
	return bytes / 1000
}

// The manyflows10k operating point: the manyflows experiment's rung at
// 10^4 flows (200 kb/s per flow, 200 ms RTT, scaled RED, 10 ms coarse
// timer, 0.2 pacing jitter) and measurement window: 15 simulated
// seconds, measured over the last 5, after the slow-start transient.
const (
	mfFlows    = 10_000
	mfFlowBps  = 200e3
	mfRTT      = 0.2
	mfPkt      = 1000
	mfDuration = 15
	mfWarmup   = 10
	mfTick     = 0.010
	mfJitter   = 0.2
	// mfJainFloor is the lowest Jain index accepted over the window;
	// seeds 1-8 give 0.927-0.944 there. A 4 s window after 8 s gave
	// 0.68 on seed 5: the transient outlasts shorter warm-ups.
	mfJainFloor = 0.85
)

// manyFlowsCell is a built, not yet run, manyflows10k cell.
type manyFlowsCell struct {
	sched *scenario.Scheduler
	b     *scenario.Builder
	mon   *scenario.FlowMonitor
	bw    float64
}

// buildManyFlows lays out the manyflows chain src — rl — rr — dst with
// 10^4 TFRC flows through the public builder.
func buildManyFlows(seed int64) *manyFlowsCell {
	sched := scenario.NewScheduler()
	// A 10^4-flow working set is not worth keeping in the shared
	// scheduler pool after the cell ends.
	sched.Pin()
	topo := scenario.NewTopology(sched, sched.NewRand(seed))
	bw := mfFlows * mfFlowBps
	const accessDly = 0.001
	limit := int(bw * mfRTT / 2 / (8 * mfPkt))
	red := scenario.DefaultRED(limit)
	red.MinThresh = math.Max(25, float64(limit)/20)
	red.MaxThresh = 5 * red.MinThresh
	red.Wq = math.Min(0.002, math.Max(1e-6, 1/(bw/8/mfPkt*mfRTT)))
	access := scenario.LinkSpec{Bandwidth: 4 * bw, Delay: accessDly, Queue: scenario.QueueDropTail, QueueLimit: 4 * limit}
	topo.Link("src", "rl", access)
	topo.Link("rl", "rr", scenario.LinkSpec{
		Bandwidth: bw, Delay: mfRTT/2 - 2*accessDly,
		Queue: scenario.QueueRED, QueueLimit: limit, RED: red,
	})
	topo.Link("rr", "dst", access)

	b := scenario.NewBuilder(topo)
	mon := b.MonitorLink("rl->rr", mfDuration-mfWarmup, mfWarmup)
	cfg := scenario.DefaultTFRCConfig()
	cfg.Sender.PacketSize = mfPkt
	cfg.CoarseTimerTick = mfTick
	cfg.PacingJitter = mfJitter
	cfg.JitterSeed = seed
	// Starts spread across one RTT, as in the experiment.
	for i := 0; i < mfFlows; i++ {
		b.AddTFRC("src", "dst", cfg, mfRTT*float64(i)/mfFlows)
	}
	return &manyFlowsCell{sched: sched, b: b, mon: mon, bw: bw}
}

func manyFlowsProbe(seed int64, i int, _ bool) probeResult {
	start := time.Now()
	c := buildManyFlows(seed*1000 + 500 + int64(i))
	pr := probeResult{setup: time.Since(start), flows: mfFlows}
	c.b.Release()
	return pr
}

func manyFlowsUnit(seed int64, i int, m *meter) (unitResult, error) {
	m.begin()
	c := buildManyFlows(seed*1000 + int64(i))
	setup := m.end(phaseSetup, i)
	pendingStart := c.sched.Len()
	res := c.b.Run(mfDuration)
	run := m.end(phaseRun, i)

	u := unitResult{cells: 1, setup: setup, run: run, cellMs: ms(run), pendingStart: pendingStart, pendingEnd: c.sched.Len()}
	arr, dep, drops := c.mon.Stats()
	u.link = &linkCounts{arrivals: arr, departs: dep, drops: drops, queued: c.b.Topology().LinkByName("rl->rr").Queue().Len()}
	u.pkts = float64(dep)
	// No utilization monitor here: checkManyFlows checks the window's
	// utilization instead of res.Utilization.
	u.problems = append(checkScenario(res, -1, math.Inf(1)), u.link.check()...)
	util, jain := utilJain(res.TFRCSeries, c.bw, mfDuration-mfWarmup)
	u.problems = append(u.problems, checkManyFlows(util, jain)...)
	u.notes = map[string]float64{"utilization": util, "jain": jain, "drop_rate": res.DropRate}
	u.digest = digestScenario(res, u.link)
	m.end(phaseHarvest, i)
	c.b.Release()
	m.end(phaseRelease, i)
	return u, nil
}

// utilJain returns the bottleneck utilization and the Jain fairness
// index over per-flow delivered bytes in the measurement window.
func utilJain(series [][]float64, bw, window float64) (util, jain float64) {
	var sum, sumSq float64
	for _, s := range series {
		var b float64
		for _, v := range s {
			b += v
		}
		sum += b
		sumSq += b * b
	}
	if sumSq > 0 {
		jain = sum * sum / (float64(len(series)) * sumSq)
	}
	return sum * 8 / (bw * window), jain
}

// The onoff-grid workload: the registered fig11 grid with 4 runs per
// source count (4 × 4 = 16 cells of 200 simulated seconds) on 2
// workers.
const (
	gridRuns          = 4
	gridWorkers       = 2
	gridBottleneckBps = 15e6
)

func onoffUnit(seed int64, i int, m *meter) (unitResult, error) {
	m.begin()
	d, err := experiment.Get("fig11")
	if err != nil {
		return unitResult{}, err
	}
	p := d.Params()
	overlay := fmt.Sprintf(`{"Runs": %d, "Seed": %d}`, gridRuns, seed*1000+int64(i))
	if err := json.Unmarshal([]byte(overlay), p); err != nil {
		return unitResult{}, fmt.Errorf("overlaying fig11 params: %w", err)
	}
	m.end(phaseSetup, i)
	res, err := experiment.Run(d, p)
	run := m.end(phaseRun, i)
	if err != nil {
		return unitResult{}, err
	}
	pp, ok := p.(*experiment.Fig11Params)
	if !ok {
		return unitResult{}, fmt.Errorf("fig11 params have type %T", p)
	}
	r, _ := res.(*experiment.Fig11Result)
	cells := len(pp.Sources) * pp.Runs
	u := unitResult{cells: cells, run: run, problems: checkGrid(r, pp)}
	// The grid does not expose per-cell timing or packet counts: a cell
	// costs the pass's worker time divided by its cells, and its packets
	// are the bottleneck's capacity over the simulated time.
	u.cellMs = ms(run) * gridWorkers / float64(cells)
	u.pkts = float64(cells) * gridBottleneckBps * pp.Duration / (8 * 1000)
	u.digest = digestGrid(r)
	m.end(phaseHarvest, i)
	m.end(phaseRelease, i)
	return u, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// digestScenario hashes every simulated output of a scenario result.
func digestScenario(res *scenario.Result, link *linkCounts) [sha256.Size]byte {
	var b []byte
	f := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	for _, set := range [][][]float64{res.TCPSeries, res.TFRCSeries} {
		for _, s := range set {
			for _, v := range s {
				f(v)
			}
		}
	}
	f(res.Utilization)
	f(res.DropRate)
	f(res.QueueMean)
	f(float64(res.QueueMax))
	if link != nil {
		f(float64(link.arrivals))
		f(float64(link.departs))
		f(float64(link.drops))
		f(float64(link.queued))
	}
	return sha256.Sum256(b)
}

// digestGrid hashes a fig11 result through its JSON form, which Go
// writes with shortest-exact floats.
func digestGrid(r *experiment.Fig11Result) [sha256.Size]byte {
	b, err := json.Marshal(r)
	if err != nil {
		// NaN or Inf: checkGrid has already failed the grid.
		return sha256.Sum256([]byte(err.Error()))
	}
	return sha256.Sum256(b)
}
