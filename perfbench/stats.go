package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// spread is a metric's median and quartiles over a run's repetitions.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func spreadOf(xs []float64) spread {
	return spread{Median: percentile(xs, 0.5), Q1: percentile(xs, 0.25), Q3: percentile(xs, 0.75), N: len(xs)}
}

// runtimeSample is a snapshot of the Go runtime's cumulative CPU, GC and
// allocation counters.
type runtimeSample struct {
	gcCPU, totalCPU, idleCPU float64
	allocBytes, gcCycles     uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	f := func(i int) float64 {
		if ms[i].Value.Kind() == metrics.KindFloat64 {
			return ms[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if ms[i].Value.Kind() == metrics.KindUint64 {
			return ms[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSample{gcCPU: f(0), totalCPU: f(1), idleCPU: f(2), allocBytes: u(3), gcCycles: u(4)}
}

// runtimeTotals accumulates runtime counter deltas over the measured
// segments of a run, leaving out its scaffolding (session warm-ups,
// daemon restarts).
type runtimeTotals struct {
	gcCPU, busyCPU float64
	allocBytes     uint64
	gcCycles       uint64
}

func (r *runtimeTotals) add(from, to runtimeSample) {
	r.gcCPU += to.gcCPU - from.gcCPU
	r.busyCPU += (to.totalCPU - to.idleCPU) - (from.totalCPU - from.idleCPU)
	r.allocBytes += to.allocBytes - from.allocBytes
	r.gcCycles += to.gcCycles - from.gcCycles
}

// resetPeakRSS restarts this process's peak-RSS mark (Linux 4.0 and
// later); where that is not allowed the mark keeps counting from the
// process start.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB returns the peak resident set size (VmHWM) of process pid
// ("self" for this process) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
