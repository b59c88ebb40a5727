package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// probeSet is the outcome of an invocation's set-up probes.
type probeSet struct {
	setups            []float64 // set-up wall seconds, one per probe
	setupBytesPerFlow float64   // allocated by unrun set-ups, per flow
	run               *probeResult
}

// runProbes builds the workload's cell shape setupReps times, timing
// each set-up; the last one is run to completion when the workload
// checks its bottleneck that way. The run probe is a cell attempted.
func runProbes(w *workload, seed int64, rep *report) probeSet {
	var ps probeSet
	var allocated, flows uint64
	var before, after runtime.MemStats
	for i := 0; i < w.setupReps; i++ {
		runIt := w.probeRuns && i == w.setupReps-1
		runtime.ReadMemStats(&before)
		pr := w.probe(seed, i, runIt)
		runtime.ReadMemStats(&after)
		ps.setups = append(ps.setups, pr.setup.Seconds())
		if pr.ran {
			rep.attempted++
			if len(pr.problems) > 0 {
				rep.failed++
				rep.problem(fmt.Sprintf("probe %d", i), pr.problems)
			}
			ps.run = &pr
			continue
		}
		allocated += after.TotalAlloc - before.TotalAlloc
		flows += uint64(pr.flows)
	}
	if flows > 0 {
		ps.setupBytesPerFlow = float64(allocated) / float64(flows)
	}
	return ps
}

// loopResult is what runUnits measured, summed as units finish: the
// benchmark keeps a few numbers per unit, not every unit's result, so
// its own heap stays out of peak_rss_mb.
type loopResult struct {
	units, cells int
	pkts         float64
	run          time.Duration // run phases only
	cellMs       []float64     // one sample per unit
	unitS        []float64     // wall seconds per unit
	setups       []float64     // builder set-ups timed inside units
	notes        map[string]float64
	digest       hash.Hash

	// Bottleneck counters and pending events of the units that reach
	// their monitor.
	link               linkCounts
	linked             int
	pendStart, pendEnd int
}

func (lr *loopResult) add(u *unitResult) {
	lr.units++
	lr.cells += u.cells
	lr.pkts += u.pkts
	lr.run += u.run
	lr.cellMs = append(lr.cellMs, u.cellMs)
	if u.setup > 0 {
		lr.setups = append(lr.setups, u.setup.Seconds())
	}
	if lr.notes == nil {
		lr.notes = u.notes
	}
	if u.link != nil {
		lr.linked++
		lr.link.arrivals += u.link.arrivals
		lr.link.departs += u.link.departs
		lr.link.drops += u.link.drops
		lr.pendStart += u.pendingStart
		lr.pendEnd += u.pendingEnd
	}
}

// runUnits runs whole units until the budget is spent or, when n > 0,
// exactly n units. The first w.minUnits always run, and only they feed
// the digest. Each unit's cells count as attempted, and all of them as
// failed when the unit fails a check.
func runUnits(w *workload, seed int64, budget time.Duration, n int, m *meter, rep *report) (loopResult, error) {
	lr := loopResult{digest: sha256.New()}
	for i := 0; ; i++ {
		if n > 0 && i == n {
			break
		}
		if n == 0 && i >= w.minUnits {
			last := time.Duration(lr.unitS[len(lr.unitS)-1] * float64(time.Second))
			if m.total()+last > budget {
				break
			}
		}
		before := m.total()
		u, err := w.unit(seed, i, m)
		if err != nil {
			return lr, err
		}
		lr.unitS = append(lr.unitS, (m.total() - before).Seconds())
		rep.attempted += u.cells
		if len(u.problems) > 0 {
			rep.failed += u.cells
			rep.problem(fmt.Sprintf("unit %d", i), u.problems)
		}
		if i < w.minUnits {
			lr.digest.Write(u.digest[:])
		}
		lr.add(&u)
	}
	return lr, nil
}

// traced runs the workload twice over the same units: once with the
// per-phase counters on, once more under the CPU profiler. The first
// pass gives spans, counts and heap figures; the second gives the layer
// split, and the ratio of their walls is the tracing overhead. Both
// passes must produce the same outcome digest.
func traced(w *workload, seed int64, budget time.Duration) (report, error) {
	rep := newReport(w, seed)
	ps := runProbes(w, seed, &rep)
	plain := newMeter(true)
	lp, err := runUnits(w, seed, budget/2, 0, plain, &rep)
	if err != nil {
		return rep, err
	}
	n := lp.units

	var prof bytes.Buffer
	prof.Grow(1 << 20)
	traced := newMeter(true)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return rep, fmt.Errorf("starting CPU profile: %w", err)
	}
	lt, err := runUnits(w, seed, 0, n, traced, &rep)
	pprof.StopCPUProfile()
	if err != nil {
		return rep, err
	}
	dp, dt := fmt.Sprintf("%x", lp.digest.Sum(nil)), fmt.Sprintf("%x", lt.digest.Sum(nil))
	if dp != dt {
		rep.failed++
		rep.problem("traced run", []string{fmt.Sprintf("outcome digest %s differs from untraced %s", dt, dp)})
	}

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return rep, err
	}
	byLayer := layerNs(samples)
	var totalNs int64
	for _, ns := range byLayer {
		totalNs += ns
	}
	if totalNs == 0 {
		return rep, errors.New("CPU profile holds no samples")
	}
	for _, l := range layers {
		rep.put(l+".self_share", float64(byLayer[l])/float64(totalNs), "frac")
		rep.put(l+".ns_per_pkt", float64(byLayer[l])/lt.pkts, "ns")
	}
	rep.put("trace.overhead_frac", traced.total().Seconds()/plain.total().Seconds()-1, "frac")

	units := float64(n)
	for p := phase(0); p < nPhases; p++ {
		rep.put("span."+phaseNames[p]+"_s", plain.dur[p].Seconds()/units, "s")
	}

	// Bottleneck counters and pending events come from the measured
	// cells where their monitor is reachable, else from the run probe.
	link := lp.link
	pendStart, pendEnd := float64(lp.pendStart), float64(lp.pendEnd)
	if lp.linked > 0 {
		pendStart /= float64(lp.linked)
		pendEnd /= float64(lp.linked)
	} else if ps.run != nil {
		link = *ps.run.link
		pendStart, pendEnd = float64(ps.run.pendingStart), float64(ps.run.pendingEnd)
	}
	rep.put("netsim.arrivals", float64(link.arrivals), "count")
	rep.put("netsim.departs", float64(link.departs), "count")
	rep.put("netsim.drops", float64(link.drops), "count")
	dropFrac := 0.0
	if link.arrivals > 0 {
		dropFrac = float64(link.drops) / float64(link.arrivals)
	}
	rep.put("netsim.drop_frac", dropFrac, "frac")
	rep.put("sim.pending_start", pendStart, "count")
	rep.put("sim.pending_end", pendEnd, "count")

	rep.put("heap.setup_bytes_per_flow", ps.setupBytesPerFlow, "B")
	rep.put("heap.run_alloc_bytes_per_pkt", float64(plain.alloc[phaseRun])/lp.pkts, "B")
	rep.put("heap.run_allocs", float64(plain.mallocs[phaseRun])/units, "count")
	rep.put("gc.cycles", float64(plain.gcs)/units, "count")
	rep.put("gc.pause_s", float64(plain.pauseNs)/1e9/units, "s")
	rep.put("exp.busy_frac", plain.runCPU.Seconds()/(float64(w.workers)*plain.dur[phaseRun].Seconds()), "frac")

	rep.info["units"] = n
	rep.info["digest"] = dp
	rep.info["digest_units"] = w.minUnits
	rep.info["profile_samples"] = len(samples)
	if err := writeArtifacts(w.name, seed, prof.Bytes(), plain.spans, traced.spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: keeping trace artifacts: %v\n", err)
	} else {
		rep.info["artifacts"] = artifactDir
	}
	return rep, nil
}

// artifactDir holds the traced mode's CPU profiles and spans, relative
// to the checkout the benchmark runs in; .gitignore lists .bench_build.
var artifactDir = filepath.Join(".bench_build", "perfbench")

// writeArtifacts keeps the CPU profile and both passes' spans for
// inspection with go tool pprof and a JSON reader.
func writeArtifacts(name string, seed int64, prof []byte, plain, traced []span) error {
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(artifactDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.WriteFile(base+".pprof", prof, 0o644); err != nil {
		return err
	}
	b, err := json.Marshal(map[string][]span{"untraced": plain, "traced": traced})
	if err != nil {
		return err
	}
	return os.WriteFile(base+".spans.json", b, 0o644)
}
