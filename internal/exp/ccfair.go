package exp

import (
	"fmt"
	"io"

	"tfrc/internal/cc"
	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
)

// CCFairParams is the head-to-head fairness grid for the
// congestion-control zoo: N flows of protocol A against M flows of
// protocol B sharing a dumbbell or a parking lot, swept over RTT and
// bottleneck bandwidth. Protocols are "tfrc" or any name in the cc
// registry ("reno", "vegas", "ledbat", "relentless", ...), so the same
// experiment answers both the paper's question (is TFRC TCP-friendly?)
// and its inversions (who starves whom when the rival does not halve,
// or backs off on delay alone?).
type CCFairParams struct {
	ProtoA string // "tfrc" or a cc registry name
	ProtoB string
	FlowsA int
	FlowsB int
	// CCA and CCB tune the controllers when the protocol is a cc name;
	// the Name field inside them is overridden by ProtoA/ProtoB.
	CCA cc.Config `json:"cca,omitzero"`
	CCB cc.Config `json:"ccb,omitzero"`

	Topology    string // "dumbbell" or "parkinglot"
	Bottlenecks int    // parking-lot depth; ignored for the dumbbell

	RTTs     []float64 // grid axis: two-way propagation delay, seconds
	LinkMbps []float64 // grid axis: bottleneck bandwidth
	Queue    netsim.QueueKind
	Duration float64
	Warmup   float64
	Seed     int64

	// Seeds > 1 repeats every cell at that many seeds, reporting means
	// with 90% confidence half-widths on the throughput ratio.
	Seeds int
}

// DefaultCCFair is the laptop-scale grid: TFRC vs Reno on a dumbbell.
func DefaultCCFair() CCFairParams {
	return CCFairParams{
		ProtoA:      "tfrc",
		ProtoB:      "reno",
		FlowsA:      2,
		FlowsB:      2,
		Topology:    "dumbbell",
		Bottlenecks: 2,
		RTTs:        []float64{0.06, 0.12},
		LinkMbps:    []float64{4, 8},
		Queue:       netsim.QueueRED,
		Duration:    60,
		Warmup:      20,
		Seed:        1,
	}
}

// PaperCCFair is the longer grid of the "paper" preset.
func PaperCCFair() CCFairParams {
	p := DefaultCCFair()
	p.Duration, p.Warmup = 240, 60
	p.RTTs = []float64{0.03, 0.06, 0.12, 0.24}
	p.LinkMbps = []float64{4, 8, 16}
	p.Seeds = 3
	return p
}

// ccfairProtoOK reports whether name is a protocol the experiment can
// place: the TFRC transport or a registered congestion controller.
func ccfairProtoOK(name string) bool {
	if name == "tfrc" {
		return true
	}
	_, ok := cc.Lookup(name)
	return ok
}

// Validate implements Params.
func (p *CCFairParams) Validate() error {
	for _, proto := range []string{p.ProtoA, p.ProtoB} {
		if !ccfairProtoOK(proto) {
			return fmt.Errorf("unknown protocol %q (want tfrc or one of %v)", proto, cc.Names())
		}
	}
	if p.FlowsA < 1 || p.FlowsB < 1 {
		return fmt.Errorf("need at least one flow per protocol, got %d vs %d", p.FlowsA, p.FlowsB)
	}
	if err := p.CCA.Validate(); err != nil {
		return fmt.Errorf("CCA: %w", err)
	}
	if err := p.CCB.Validate(); err != nil {
		return fmt.Errorf("CCB: %w", err)
	}
	switch p.Topology {
	case "dumbbell":
	case "parkinglot":
		if p.Bottlenecks < 1 {
			return fmt.Errorf("parkinglot needs Bottlenecks >= 1, got %d", p.Bottlenecks)
		}
	default:
		return fmt.Errorf("unknown topology %q (want dumbbell or parkinglot)", p.Topology)
	}
	if len(p.RTTs) == 0 || len(p.LinkMbps) == 0 {
		return fmt.Errorf("RTTs and LinkMbps must be non-empty")
	}
	for _, rtt := range p.RTTs {
		if rtt <= 0.004 {
			return fmt.Errorf("RTTs must exceed the 4 ms of access delay, got %v", rtt)
		}
	}
	for _, bw := range p.LinkMbps {
		if bw <= 0 {
			return fmt.Errorf("LinkMbps must be positive, got %v", bw)
		}
	}
	if p.Duration <= 0 || p.Warmup < 0 || p.Warmup >= p.Duration {
		return fmt.Errorf("need 0 <= Warmup < Duration, got Warmup=%v Duration=%v", p.Warmup, p.Duration)
	}
	if err := checkReplicates("Seeds", p.Seeds, 0); err != nil {
		return err
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *CCFairParams) SetSeed(seed int64) { p.Seed = seed }

// SetSeeds implements SeedsSetter.
func (p *CCFairParams) SetSeeds(n int) { p.Seeds = n }

func init() {
	Register(Descriptor{
		Name:        "ccfair",
		Description: "head-to-head fairness grid for the congestion-control zoo",
		Params:      paramsFn[CCFairParams](DefaultCCFair),
		Presets:     map[string]func() Params{"paper": paramsFn[CCFairParams](PaperCCFair)},
		Grid:        GridAs(ccfairCells, ccfairRunRange, ccfairReduce),
	})
}

// CCFairCell is one (RTT, bandwidth, seed) cell of the grid.
type CCFairCell struct {
	RTT      float64
	LinkMbps float64

	Jain    float64 // Jain fairness index over all A and B flows
	ShareA  float64 // protocol A's fraction of the combined goodput
	ShareB  float64
	RatioAB float64 // per-flow mean throughput of A over B (capped at 1e6)

	QueueDelay  float64 // mean bottleneck queueing delay, seconds
	LossRate    float64 // bottleneck drop fraction after warmup
	Utilization float64

	Seeds     int
	RatioABCI float64
}

// CCFairResult is the grid.
type CCFairResult struct {
	Params CCFairParams
	Cells  []CCFairCell
}

// jain is the Jain fairness index: (Σx)² / (n·Σx²), 1 when all equal.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// ccfairRatioCap bounds the A:B throughput ratio so a fully starved B
// still yields a finite, JSON-encodable number.
const ccfairRatioCap = 1e6

// ccfairAdd places one flow of the named protocol on host pair (src,
// dst), returning its flow ID.
func ccfairAdd(b *ScenarioBuilder, proto string, ccfg cc.Config, src, dst string, seed int64, start float64) int {
	if proto == "tfrc" {
		tf := tfrcsim.DefaultConfig()
		tf.PacingJitter = 0.05
		tf.JitterSeed = seed
		return b.AddTFRC(src, dst, tf, start)
	}
	cfg := tcp.Config{Variant: tcp.Sack, SendJitter: 0.001, JitterSeed: seed}
	return b.AddCC(cc.Name(proto), ccfg, src, dst, cfg, start)
}

// runCCFairCell runs one (rtt, bandwidth, seed) cell on the worker's
// pinned arena. Flow IDs are assigned A-first then B, and start times
// are drawn in that same order, so shards reproduce the exact event
// sequence of a single-machine run.
func runCCFairCell(c *Cell, pr CCFairParams, rtt, linkMbps float64, seed int64) CCFairCell {
	sched := c.begin()
	rng := sched.NewRand(seed)
	bw := linkMbps * 1e6
	nflows := pr.FlowsA + pr.FlowsB
	// One bandwidth-delay product of buffering, floored for slow links.
	queueLimit := int(max(10, bw*rtt/(8*1000)))
	red := netsim.DefaultRED(queueLimit)
	red.MinThresh = max(5, float64(queueLimit)/10)
	red.MaxThresh = float64(queueLimit) / 2

	var b *ScenarioBuilder
	var bottleneck string
	switch pr.Topology {
	case "parkinglot":
		pl := netsim.NewParkingLot(sched, netsim.ParkingLotConfig{
			Bottlenecks:   pr.Bottlenecks,
			ThroughPairs:  nflows,
			BottleneckBW:  bw,
			BottleneckDly: rtt/2/float64(pr.Bottlenecks) - 0.002/float64(pr.Bottlenecks),
			Queue:         pr.Queue,
			QueueLimit:    queueLimit,
			RED:           red,
		}, sched.NewRand(seed+1))
		b = NewScenarioBuilder(pl.Topo)
		bottleneck = pl.BottleneckName(0)
	default: // dumbbell
		d := netsim.NewDumbbell(sched, netsim.DumbbellConfig{
			Hosts:         nflows,
			BottleneckBW:  bw,
			BottleneckDly: rtt/2 - 0.002, // 1 ms access on each side
			Queue:         pr.Queue,
			QueueLimit:    queueLimit,
			RED:           red,
		}, sched.NewRand(seed+1))
		b = NewScenarioBuilder(d.Topo)
		bottleneck = "rl->rr"
	}

	primary := b.MonitorLink(bottleneck, 0.5, pr.Warmup)
	b.MonitorUtilization(bottleneck, pr.Warmup)
	b.MonitorQueue(bottleneck, 0.05, pr.Duration)

	src := func(i int) string {
		if pr.Topology == "parkinglot" {
			return fmt.Sprintf("ts%d", i)
		}
		return fmt.Sprintf("l%d", i)
	}
	dst := func(i int) string {
		if pr.Topology == "parkinglot" {
			return fmt.Sprintf("td%d", i)
		}
		return fmt.Sprintf("r%d", i)
	}
	start := func() float64 { return rng.Uniform(0, 5) }
	flowsA := make([]int, 0, pr.FlowsA)
	flowsB := make([]int, 0, pr.FlowsB)
	for i := 0; i < pr.FlowsA; i++ {
		flowsA = append(flowsA, ccfairAdd(b, pr.ProtoA, pr.CCA, src(i), dst(i), seed, start()))
	}
	for i := 0; i < pr.FlowsB; i++ {
		j := pr.FlowsA + i
		flowsB = append(flowsB, ccfairAdd(b, pr.ProtoB, pr.CCB, src(j), dst(j), seed, start()))
	}

	res := b.Run(pr.Duration)

	rate := func(f int) float64 { // bytes/sec after warmup
		return stats.Mean(primary.Series(f, res.Bins)) / res.BinWidth
	}
	all := make([]float64, 0, nflows)
	var sumA, sumB float64
	for _, f := range flowsA {
		r := rate(f)
		sumA += r
		all = append(all, r)
	}
	for _, f := range flowsB {
		r := rate(f)
		sumB += r
		all = append(all, r)
	}

	cell := CCFairCell{
		RTT:         rtt,
		LinkMbps:    linkMbps,
		Jain:        jain(all),
		LossRate:    primary.DropRate(),
		Utilization: res.Utilization,
		// Mean queue occupancy (packets) drains at bw: nominal 1000-byte
		// packets give the mean queueing delay a packet experiences.
		QueueDelay: res.QueueMean * 8 * 1000 / bw,
	}
	if total := sumA + sumB; total > 0 {
		cell.ShareA = sumA / total
		cell.ShareB = sumB / total
	}
	perA := sumA / float64(pr.FlowsA)
	perB := sumB / float64(pr.FlowsB)
	switch {
	case perB > 0:
		cell.RatioAB = min(perA/perB, ccfairRatioCap)
	case perA > 0:
		cell.RatioAB = ccfairRatioCap // B fully starved
	default:
		cell.RatioAB = 1 // nothing moved at all
	}
	b.Release()
	return cell
}

// ccfairSeeds clamps the replication count to at least one.
func ccfairSeeds(pr *CCFairParams) int {
	if pr.Seeds < 1 {
		return 1
	}
	return pr.Seeds
}

// ccfairCells flattens the grid RTT-major, bandwidth next, seed-minor.
func ccfairCells(pr *CCFairParams) int {
	return len(pr.RTTs) * len(pr.LinkMbps) * ccfairSeeds(pr)
}

// ccfairRunRange computes grid cells [r.Lo, r.Hi); each cell's
// coordinates derive from its absolute index, so any sharding of the
// range reproduces the single-machine cells exactly.
func ccfairRunRange(pr *CCFairParams, r CellRange) []CCFairCell {
	seeds := ccfairSeeds(pr)
	perRTT := len(pr.LinkMbps) * seeds
	return runCells(r.Len(), func(c *Cell, i int) CCFairCell {
		idx := r.Lo + i
		rtt := pr.RTTs[idx/perRTT]
		bw := pr.LinkMbps[(idx%perRTT)/seeds]
		rep := idx % seeds
		return runCCFairCell(c, *pr, rtt, bw, pr.Seed+int64(rep)*6151)
	})
}

// ccfairReduce aggregates each (RTT, bandwidth) point's seeds in order.
func ccfairReduce(pr *CCFairParams, raw []CCFairCell) *CCFairResult {
	seeds := ccfairSeeds(pr)
	res := &CCFairResult{Params: *pr}
	for g := 0; g*seeds < len(raw); g++ {
		group := raw[g*seeds : (g+1)*seeds]
		cell := group[0]
		if seeds > 1 {
			ratios := make([]float64, seeds)
			var jainSum, shareA, qd, loss, util float64
			for i, c := range group {
				ratios[i] = c.RatioAB
				jainSum += c.Jain
				shareA += c.ShareA
				qd += c.QueueDelay
				loss += c.LossRate
				util += c.Utilization
			}
			n := float64(seeds)
			cell.Seeds = seeds
			cell.Jain = jainSum / n
			cell.ShareA = shareA / n
			cell.ShareB = 1 - cell.ShareA
			cell.QueueDelay = qd / n
			cell.LossRate = loss / n
			cell.Utilization = util / n
			cell.RatioAB, cell.RatioABCI = stats.MeanCI90(ratios)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res
}

// Table emits one row per (RTT, bandwidth) point.
func (r *CCFairResult) Table(w io.Writer) {
	p := &r.Params
	fmt.Fprintf(w, "# ccfair: %d %s flow(s) vs %d %s flow(s) on a %s",
		p.FlowsA, p.ProtoA, p.FlowsB, p.ProtoB, p.Topology)
	if p.Topology == "parkinglot" {
		fmt.Fprintf(w, " (%d bottlenecks)", p.Bottlenecks)
	}
	fmt.Fprintf(w, ", %s queues\n", p.Queue)
	fmt.Fprintf(w, "# shareA/shareB: fraction of combined goodput; ratioAB: per-flow A over per-flow B\n")
	if p.Seeds > 1 {
		fmt.Fprintln(w, "# rtt\tmbps\tjain\tshareA\tshareB\tratioAB\tci\tqdelay\tloss\tutil")
	} else {
		fmt.Fprintln(w, "# rtt\tmbps\tjain\tshareA\tshareB\tratioAB\tqdelay\tloss\tutil")
	}
	for _, c := range r.Cells {
		if c.Seeds > 1 {
			fmt.Fprintf(w, "%.3f\t%.0f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.4f\t%.4f\t%.3f\n",
				c.RTT, c.LinkMbps, c.Jain, c.ShareA, c.ShareB, c.RatioAB, c.RatioABCI,
				c.QueueDelay, c.LossRate, c.Utilization)
		} else {
			fmt.Fprintf(w, "%.3f\t%.0f\t%.3f\t%.3f\t%.3f\t%.3f\t%.4f\t%.4f\t%.3f\n",
				c.RTT, c.LinkMbps, c.Jain, c.ShareA, c.ShareB, c.RatioAB,
				c.QueueDelay, c.LossRate, c.Utilization)
		}
	}
}
