package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"testing"
	"time"

	"tfrc/experiment"
	"tfrc/scenario"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"memmove under the calendar queue", []string{
			"runtime.memmove",
			"tfrc/internal/sim.(*Scheduler).calInsert",
			"tfrc/internal/sim.(*Scheduler).AtArg",
			"tfrc/internal/netsim.(*Link).Send",
			"tfrc/internal/exp.RunScenario",
			"tfrc/scenario.Run",
			"main.dumbbell8Unit",
		}, "sim"},
		{"math.Max inlined in the TCP sender", []string{
			"math.Max",
			"tfrc/internal/tcp.(*Sender).onAck",
			"tfrc/internal/netsim.(*Node).deliver",
			"tfrc/internal/sim.(*Scheduler).RunUntil",
		}, "tcp"},
		{"math/rand under sim.Rand", []string{
			"math/rand.(*rngSource).Uint64",
			"math/rand.(*Rand).Float64",
			"tfrc/internal/sim.(*Rand).Float64",
			"tfrc/internal/netsim.(*RED).Enqueue",
		}, "rng"},
		{"math/rand/v2 under sim.Rand", []string{
			"math/rand/v2.(*PCG).Uint64",
			"tfrc/internal/sim.(*Rand).Uniform",
		}, "rng"},
		{"sim.Rand arithmetic outside math/rand", []string{
			"math.Log",
			"tfrc/internal/sim.(*Rand).Exp",
			"tfrc/internal/traffic.(*OnOff).toggle",
		}, "sim"},
		{"background mark worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}, "gc"},
		{"mark assist inside a simulator allocation", []string{
			"runtime.scanobject",
			"runtime.gcDrainN",
			"runtime.gcAssistAlloc1",
			"runtime.gcAssistAlloc",
			"runtime.mallocgc",
			"tfrc/internal/netsim.(*Network).NewFlowMonitor",
		}, "gc"},
		{"generic worker pool closure", []string{
			"tfrc/internal/sweep.MapCtx[go.shape.struct { Loss float64 }].func1",
			"runtime.goexit",
		}, "exp"},
		{"reduce statistics", []string{
			"math.Sqrt",
			"tfrc/internal/stats.CoV",
			"tfrc/internal/exp.fig11RunRange.func1",
		}, "stats"},
		{"loss estimator", []string{"tfrc/internal/core.(*LossHistory).Update", "tfrc/internal/tfrcsim.(*Receiver).recv"}, "core"},
		{"window policy", []string{"tfrc/internal/cc.(*Reno).OnAck", "tfrc/internal/tcp.(*Sender).onAck"}, "cc"},
		{"runtime only", []string{"runtime.futex", "runtime.mcall"}, "other"},
		{"benchmark code only", []string{"crypto/sha256.block", "main.digestScenario"}, "other"},
		{"empty stack", nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"tfrc/internal/sim.(*Scheduler).calInsert":              "tfrc/internal/sim",
		"tfrc/internal/exp.GridAs[go.shape.*uint8,a/b.c].func2": "tfrc/internal/exp",
		"math/rand.(*Rand).Float64":                             "math/rand",
		"math.Max":                                              "math",
		"runtime.memmove":                                       "runtime",
		"main.main":                                             "main",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

// pb is a minimal protobuf writer for hand-built profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, p []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(num, p)
}

func TestParseCPUProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.memmove", "tfrc/internal/sim.(*Scheduler).calInsert", "tfrc/internal/tcp.(*Sender).onAck"}
	var prof pb
	prof = prof.bytes(1, pb(nil).varint(1, 1).varint(2, 2))
	prof = prof.bytes(1, pb(nil).varint(1, 3).varint(2, 4))
	// Sample 1: packed fields, two locations. Sample 2: unpacked.
	prof = prof.bytes(2, pb(nil).packed(1, 10, 20).packed(2, 3, 30_000_000))
	prof = prof.bytes(2, pb(nil).varint(1, 20).varint(2, 1).varint(2, 10_000_000))
	// Location 10 holds memmove inlined into calInsert; 20 is onAck.
	prof = prof.bytes(4, pb(nil).varint(1, 10).varint(3, 0x1234).
		bytes(4, pb(nil).varint(1, 1).varint(2, 7)).
		bytes(4, pb(nil).varint(1, 2).varint(2, 9)))
	prof = prof.bytes(4, pb(nil).varint(1, 20).bytes(4, pb(nil).varint(1, 3)))
	prof = prof.bytes(5, pb(nil).varint(1, 1).varint(2, 5))
	prof = prof.bytes(5, pb(nil).varint(1, 2).varint(2, 6))
	prof = prof.bytes(5, pb(nil).varint(1, 3).varint(2, 7))
	for _, s := range strs {
		prof = prof.bytes(6, []byte(s))
	}
	prof = prof.varint(12, 10_000_000) // period, ignored

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	want0 := []string{"runtime.memmove", "tfrc/internal/sim.(*Scheduler).calInsert", "tfrc/internal/tcp.(*Sender).onAck"}
	if got := samples[0].frames; len(got) != 3 || got[0] != want0[0] || got[1] != want0[1] || got[2] != want0[2] {
		t.Errorf("sample 0 frames = %q, want %q", got, want0)
	}
	if samples[0].ns != 30_000_000 || samples[1].ns != 10_000_000 {
		t.Errorf("sample ns = %d, %d", samples[0].ns, samples[1].ns)
	}
	ns := layerNs(samples)
	if ns["sim"] != 30_000_000 || ns["tcp"] != 10_000_000 {
		t.Errorf("layer ns = %v", ns)
	}

	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("garbage input decoded without error")
	}
	var trunc bytes.Buffer
	zw = gzip.NewWriter(&trunc)
	if _, err := zw.Write(prof[:len(prof)-3]); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := parseCPUProfile(trunc.Bytes()); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// TestCorruptedCellsCountAsFailed feeds a real dumbbell8 result, and
// deliberately corrupted copies of it, through the benchmark's unit
// loop and checks the tally that becomes pass_frac.
func TestCorruptedCellsCountAsFailed(t *testing.T) {
	base, err := scenario.Run(dumbbell8Shape.spec(1))
	if err != nil {
		t.Fatal(err)
	}
	corruptions := []func(r *scenario.Result){
		nil,
		func(r *scenario.Result) { r.TFRCSeries[0][3] = math.NaN() },
		func(r *scenario.Result) { r.TCPSeries[1][0] = math.Inf(1) },
		func(r *scenario.Result) { r.TCPSeries[2][5] = -1000 },
		func(r *scenario.Result) { r.Utilization = 1.2 },
		func(r *scenario.Result) { r.Utilization = 0 },
		func(r *scenario.Result) { r.DropRate = -0.01 },
		func(r *scenario.Result) { r.QueueMean = math.NaN() },
		nil,
	}
	w := &workload{
		name: "corrupted", minUnits: len(corruptions),
		unit: func(_ int64, i int, m *meter) (unitResult, error) {
			m.begin()
			res := cloneResult(base)
			if c := corruptions[i]; c != nil {
				c(res)
			}
			u := harvestDumbbell8(res, time.Millisecond)
			m.end(phaseHarvest, i)
			return u, nil
		},
	}
	var rep report
	rep.info = map[string]any{}
	if _, err := runUnits(w, 1, 0, len(corruptions), newMeter(false), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.attempted != len(corruptions) || rep.failed != len(corruptions)-2 {
		t.Errorf("tally %d failed of %d attempted, want %d of %d", rep.failed, rep.attempted, len(corruptions)-2, len(corruptions))
	}
	clean, changed := cloneResult(base), cloneResult(base)
	changed.Utilization *= 0.999
	if digestScenario(base, nil) != digestScenario(clean, nil) {
		t.Error("identical results digest differently")
	}
	if digestScenario(base, nil) == digestScenario(changed, nil) {
		t.Error("a changed utilization left the digest unchanged")
	}
}

func cloneResult(r *scenario.Result) *scenario.Result {
	c := *r
	clone := func(set [][]float64) [][]float64 {
		out := make([][]float64, len(set))
		for i, s := range set {
			out[i] = append([]float64(nil), s...)
		}
		return out
	}
	c.TCPSeries, c.TFRCSeries = clone(r.TCPSeries), clone(r.TFRCSeries)
	return &c
}

func TestBottleneckConservation(t *testing.T) {
	for _, c := range []struct {
		l    linkCounts
		fail bool
	}{
		{linkCounts{arrivals: 100, departs: 90, drops: 6, queued: 4}, false},
		{linkCounts{arrivals: 100, departs: 90, drops: 6, queued: 3}, false}, // one in service
		{linkCounts{arrivals: 100, departs: 90, drops: 6, queued: 2}, true},
		{linkCounts{arrivals: 100, departs: 95, drops: 6, queued: 0}, true},
		{linkCounts{}, true},
	} {
		if got := len(c.l.check()) > 0; got != c.fail {
			t.Errorf("%+v: failed = %v, want %v", c.l, got, c.fail)
		}
	}
}

func TestManyFlowsOperatingPoint(t *testing.T) {
	for _, c := range []struct {
		util, jain float64
		fail       bool
	}{
		{1, 0.93, false},
		{0.995, mfJainFloor, false},
		{0.98, 0.93, true},
		{1.01, 0.93, true},
		{1, 0.5, true},
		{math.NaN(), 0.93, true},
		{1, math.Inf(1), true},
	} {
		if got := len(checkManyFlows(c.util, c.jain)) > 0; got != c.fail {
			t.Errorf("util %v jain %v: failed = %v, want %v", c.util, c.jain, got, c.fail)
		}
	}
}

func TestGridChecks(t *testing.T) {
	d, err := experiment.Get("fig11")
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params()
	if err := json.Unmarshal([]byte(`{"Sources": [5, 10], "Duration": 20, "Warmup": 5, "Runs": 1}`), p); err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(d, p)
	if err != nil {
		t.Fatal(err)
	}
	pp := p.(*experiment.Fig11Params)
	good := res.(*experiment.Fig11Result)
	if probs := checkGrid(good, pp); len(probs) > 0 {
		t.Fatalf("clean grid failed its checks: %v", probs)
	}
	corruptions := []func(r *experiment.Fig11Result){
		func(r *experiment.Fig11Result) { r.Rows = r.Rows[:1] },
		func(r *experiment.Fig11Result) { r.Rows[0].LossRate.Mean = 1.5 },
		func(r *experiment.Fig11Result) { r.Rows[1].LossRate.Mean = -0.1 },
		func(r *experiment.Fig11Result) { r.Rows[1].CoVTFRC[2].Mean = math.NaN() },
		func(r *experiment.Fig11Result) { r.Rows[0].EqTCPvTFRC = r.Rows[0].EqTCPvTFRC[1:] },
		func(r *experiment.Fig11Result) { r.Rows[0].Sources = 7 },
	}
	for i, c := range corruptions {
		r := *good
		r.Rows = nil
		for _, row := range good.Rows {
			row.EqTCPvTFRC = append([]experiment.MeanCI(nil), row.EqTCPvTFRC...)
			row.CoVTFRC = append([]experiment.MeanCI(nil), row.CoVTFRC...)
			row.CoVTCP = append([]experiment.MeanCI(nil), row.CoVTCP...)
			r.Rows = append(r.Rows, row)
		}
		c(&r)
		if len(checkGrid(&r, pp)) == 0 {
			t.Errorf("corruption %d passed the grid checks", i)
		}
	}
	if len(checkGrid(nil, pp)) == 0 {
		t.Error("a missing grid passed the checks")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.95); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 = %v, want 4.8", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "dumbbell8", "--trace", "2"},
		{"--workload", "dumbbell8", "--seconds", "0"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want exit 2 and no output", args, code, out.String())
		}
	}
}
