package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// phase is one of the four spans the benchmark records around its own
// calls into the simulator.
type phase int

const (
	phaseSetup   phase = iota // builder calls / experiment lookup before the run call
	phaseRun                  // the run call: Builder.Run, scenario.Run, experiment.Run
	phaseHarvest              // reading results, correctness checks, digest
	phaseRelease              // Builder.Release
	nPhases
)

var phaseNames = [nPhases]string{"setup", "run", "harvest", "release"}

// span is one recorded phase of one unit, in seconds from the meter's
// origin.
type span struct {
	Unit  int     `json:"unit"`
	Phase string  `json:"phase"`
	Start float64 `json:"start_s"`
	Dur   float64 `json:"dur_s"`
}

// meter times the benchmark's calls phase by phase. In detail mode it
// also reads the allocator's counters and the process CPU time at every
// phase boundary and keeps every span; ReadMemStats stops the world, so
// detail mode is for the traced run only.
type meter struct {
	detail bool
	origin time.Time
	spans  []span

	dur     [nPhases]time.Duration
	alloc   [nPhases]uint64
	mallocs [nPhases]uint64
	gcs     uint32
	pauseNs uint64
	runCPU  time.Duration

	t   time.Time
	ms  runtime.MemStats
	cpu time.Duration
}

func newMeter(detail bool) *meter {
	return &meter{detail: detail, origin: time.Now()}
}

// begin starts the first phase of a unit.
func (m *meter) begin() {
	if m.detail {
		runtime.ReadMemStats(&m.ms)
		m.cpu = processCPU()
	}
	m.t = time.Now()
}

// end closes phase p of unit u, starts the next one, and returns the
// closed phase's wall time. Counter reads happen outside the timed
// interval.
func (m *meter) end(p phase, u int) time.Duration {
	now := time.Now()
	d := now.Sub(m.t)
	m.dur[p] += d
	if m.detail {
		m.spans = append(m.spans, span{Unit: u, Phase: phaseNames[p], Start: m.t.Sub(m.origin).Seconds(), Dur: d.Seconds()})
		prev := m.ms
		runtime.ReadMemStats(&m.ms)
		m.alloc[p] += m.ms.TotalAlloc - prev.TotalAlloc
		m.mallocs[p] += m.ms.Mallocs - prev.Mallocs
		cpu := processCPU()
		if p == phaseRun {
			m.gcs += m.ms.NumGC - prev.NumGC
			m.pauseNs += m.ms.PauseTotalNs - prev.PauseTotalNs
			m.runCPU += cpu - m.cpu
		}
		m.cpu = cpu
		now = time.Now()
	}
	m.t = now
	return d
}

// total is the wall time of every closed phase so far.
func (m *meter) total() time.Duration {
	var t time.Duration
	for _, d := range m.dur {
		t += d
	}
	return t
}

// processCPU is the user plus system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MiB,
// falling back to getrusage's maxrss where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			f := bytes.Fields(sc.Bytes())
			if len(f) >= 2 && string(f[0]) == "VmHWM:" {
				if kb, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
