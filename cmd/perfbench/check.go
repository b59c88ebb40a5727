package main

import (
	"fmt"
	"math"

	"tfrc/experiment"
	"tfrc/scenario"
)

// linkCounts are a bottleneck monitor's totals at the end of a run.
type linkCounts struct {
	arrivals, departs, drops int
	queued                   int // packets still queued
}

// check verifies packet conservation at the bottleneck: every arrival
// departed, was dropped, or is still queued, except for at most one
// packet the transmitter was serializing when the clock stopped.
func (l linkCounts) check() []string {
	inService := l.arrivals - l.departs - l.drops - l.queued
	if l.arrivals <= 0 || l.departs < 0 || l.drops < 0 || l.queued < 0 || inService < 0 || inService > 1 {
		return []string{fmt.Sprintf("bottleneck conservation: %d arrivals != %d departures + %d drops + %d queued (+ at most 1 in service)",
			l.arrivals, l.departs, l.drops, l.queued)}
	}
	return nil
}

// checkScenario verifies a scenario result: every series and statistic
// finite, byte counts and queue statistics non-negative, the drop rate
// in [0, 1], and the utilization in (minUtil, maxUtil].
func checkScenario(res *scenario.Result, minUtil, maxUtil float64) []string {
	if res == nil {
		return []string{"no result"}
	}
	var out []string
	bad := func(format string, a ...any) { out = append(out, fmt.Sprintf(format, a...)) }
	for name, set := range map[string][][]float64{"TCP": res.TCPSeries, "TFRC": res.TFRCSeries} {
		for f, s := range set {
			for k, v := range s {
				if !finite(v) || v < 0 {
					bad("%s series %d bin %d = %v", name, f, k, v)
					break
				}
			}
		}
	}
	if !finite(res.Utilization) || res.Utilization <= minUtil || res.Utilization > maxUtil {
		bad("utilization %v outside (%v, %v]", res.Utilization, minUtil, maxUtil)
	}
	if !finite(res.DropRate) || res.DropRate < 0 || res.DropRate > 1 {
		bad("drop rate %v outside [0, 1]", res.DropRate)
	}
	if !finite(res.QueueMean) || res.QueueMean < 0 || res.QueueMax < 0 {
		bad("queue mean %v / max %d", res.QueueMean, res.QueueMax)
	}
	return out
}

// checkManyFlows verifies the manyflows10k operating point: the link is
// full and the flows share it fairly.
func checkManyFlows(util, jain float64) []string {
	var out []string
	if !finite(util) || util < 0.99 || util > 1+utilSlack {
		out = append(out, fmt.Sprintf("utilization %v outside [0.99, %v]", util, 1+utilSlack))
	}
	if !finite(jain) || jain < mfJainFloor || jain > 1+1e-9 {
		out = append(out, fmt.Sprintf("Jain index %v outside [%v, 1]", jain, mfJainFloor))
	}
	return out
}

// checkGrid verifies a fig11 result: one row per source count in
// order, every loss rate in [0, 1], and every statistic finite.
func checkGrid(r *experiment.Fig11Result, p *experiment.Fig11Params) []string {
	if r == nil {
		return []string{"no fig11 result"}
	}
	if len(r.Rows) != len(p.Sources) {
		return []string{fmt.Sprintf("grid incomplete: %d rows for %d source counts", len(r.Rows), len(p.Sources))}
	}
	var out []string
	bad := func(format string, a ...any) { out = append(out, fmt.Sprintf(format, a...)) }
	for i, row := range r.Rows {
		if row.Sources != p.Sources[i] {
			bad("row %d has %d sources, want %d", i, row.Sources, p.Sources[i])
		}
		if l := row.LossRate; !finite(l.Mean) || l.Mean < 0 || l.Mean > 1 || !finite(l.CI) || l.CI < 0 {
			bad("row %d loss rate %v ± %v outside [0, 1]", i, l.Mean, l.CI)
		}
		for name, set := range map[string][]experiment.MeanCI{"equivalence": row.EqTCPvTFRC, "TFRC CoV": row.CoVTFRC, "TCP CoV": row.CoVTCP} {
			if len(set) != len(p.Timescales) {
				bad("row %d has %d %s points for %d timescales", i, len(set), name, len(p.Timescales))
			}
			for k, v := range set {
				if !finite(v.Mean) || !finite(v.CI) {
					bad("row %d %s at timescale %d = %v ± %v", i, name, k, v.Mean, v.CI)
				}
			}
		}
	}
	return out
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
