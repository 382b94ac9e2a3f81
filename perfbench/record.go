package main

import (
	"sync"
	"time"
)

// recorder collects one measured phase of a run: op outcomes and
// latencies, named latency samples (tier-0, refined, query, generator
// lag), per-layer counters and per-repetition figures. Safe for
// concurrent use by the daemon workload's client goroutines.
type recorder struct {
	mu       sync.Mutex
	ops      int
	failed   int
	failures []string
	latMs    []float64
	samples  map[string][]float64
	counters map[string]float64
	active   time.Duration
	rt       runtimeTotals
	peakRSS  float64

	// reps holds per-repetition figures; repStart marks where the open
	// repetition began.
	reps     map[string][]float64
	repStart struct {
		ops, lat int
		active   time.Duration
		samples  map[string]int
	}
}

func newRecorder() *recorder {
	return &recorder{samples: map[string][]float64{}, counters: map[string]float64{}, reps: map[string][]float64{}}
}

// op records one finished op; a non-empty problem marks it failed.
func (r *recorder) op(lat time.Duration, problem string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	r.latMs = append(r.latMs, float64(lat.Nanoseconds())/1e6)
	if problem != "" {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, problem)
		}
	}
}

// sample records one named latency in milliseconds.
func (r *recorder) sample(name string, d time.Duration) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
}

// count adds v to a per-layer counter.
func (r *recorder) count(name string, v float64) {
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// addActive accounts measured wall time: the time ops were in flight,
// which leaves out the run's scaffolding (session warm-ups, daemon
// restarts).
func (r *recorder) addActive(d time.Duration) {
	r.mu.Lock()
	r.active += d
	r.mu.Unlock()
}

// addRuntime accounts the runtime counters a measured stretch consumed.
func (r *recorder) addRuntime(from, to runtimeSample) {
	r.mu.Lock()
	r.rt.add(from, to)
	r.mu.Unlock()
}

// notePeakRSS records the peak RSS of one repetition; complete says
// whether the repetition ran to its end.
func (r *recorder) notePeakRSS(mb float64, complete bool) {
	r.mu.Lock()
	r.peakRSS = max(r.peakRSS, mb)
	if complete {
		r.reps["peak_rss_mb"] = append(r.reps["peak_rss_mb"], mb)
	}
	r.mu.Unlock()
}

// beginRep opens a repetition: one pass, round or daemon lifetime.
func (r *recorder) beginRep() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.repStart.ops, r.repStart.lat, r.repStart.active = r.ops, len(r.latMs), r.active
	r.repStart.samples = map[string]int{}
	for k, v := range r.samples {
		r.repStart.samples[k] = len(v)
	}
}

// endRep closes a complete repetition and records its figures.
func (r *recorder) endRep() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := (r.active - r.repStart.active).Seconds(); d > 0 {
		r.reps["ops_per_s"] = append(r.reps["ops_per_s"], float64(r.ops-r.repStart.ops)/d)
		r.reps["repetition_s"] = append(r.reps["repetition_s"], d)
	}
	lat := r.latMs[r.repStart.lat:]
	r.reps["latency_p50_ms"] = append(r.reps["latency_p50_ms"], percentile(lat, 0.5))
	r.reps["latency_p99_ms"] = append(r.reps["latency_p99_ms"], percentile(lat, 0.99))
	for k, v := range r.samples {
		s := v[r.repStart.samples[k]:]
		r.reps[k+"_p50_ms"] = append(r.reps[k+"_p50_ms"], percentile(s, 0.5))
		r.reps[k+"_p99_ms"] = append(r.reps[k+"_p99_ms"], percentile(s, 0.99))
	}
}

func (r *recorder) opsPerSec() float64 {
	if r.active <= 0 {
		return 0
	}
	return float64(r.ops) / r.active.Seconds()
}
