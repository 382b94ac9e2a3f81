// Command perfbench is the repository's benchmark: one entry point that
// runs a named workload against the analysis engine, its incremental
// sessions or the mtpad daemon, checks every answer, and prints its
// metrics by name and unit.
//
// Usage, from the repository root (perfbench/run.sh builds it and mtpad
// first):
//
//	perfbench --workload cold_corpus|edit_session|daemon_mixed \
//	          --seed N --seconds S --trace 0|1
//
// The seed fixes every input: the order of the corpus programs and the
// position and order of every edit. The workloads, and why each is
// there:
//
//   - cold_corpus: all 33 corpus programs, compiled, analysed and
//     race-checked from scratch by one client. The fixpoint (core) does
//     nearly all the work; session, server and flowinsens do none.
//   - edit_session: one editor streaming seeded single-procedure edits
//     of the 18 paper programs through incremental sessions. Summary
//     seeding removes most fixpoint work, so the front end, the session
//     and its store carry a large share; core is read, not rebuilt.
//   - daemon_mixed: one connection to an mtpad on loopback, two
//     tenants paired on the same programs, each cycle an update, a
//     long-poll for its refinement and three queries. Only here do the
//     server, the tier-0 flowinsens answer and the asynchronous
//     refinement work, with reads beside writes.
//
// Every op is checked: cold_corpus against the committed golden rows,
// the other two against a cold one-shot run of the same source computed
// at set-up. A wrong answer is a failed op, and the command then exits
// with status 1.
//
// Output: one "report" line with the run's metadata and every metric
// with its median and quartiles over the run's repetitions, then the
// result line. With --trace 0 the result carries the end-to-end metrics
// of an untraced run. With --trace 1 the run alternates untraced
// stretches with stretches that record spans around every call into a
// layer; the result carries the per-layer metrics and the tracing
// overhead, and the spans are written to a JSON file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	mtpad    string
	traceOut string
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// workload is one benchmark scenario. setup may be called repeatedly;
// each call replaces the previous inputs. measure runs ops for about d,
// and at least one, tracing them when tr is non-nil.
type workload interface {
	setup(cfg *config) error
	measure(d time.Duration, tr *tracer, rec *recorder) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "cold_corpus":
		return &coldCorpus{}, nil
	case "edit_session":
		return &editSession{}, nil
	case "daemon_mixed":
		return &daemonMixed{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold_corpus, edit_session or daemon_mixed)", name)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit status: 0
// when every op was correct, 1 when some answer was wrong, 2 when the
// run could not be carried out (and then no result line is printed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&cfg.root, "root", ".", "repository root (for the golden files)")
	fs.StringVar(&cfg.mtpad, "mtpad", "", "mtpad binary that daemon_mixed starts (required)")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/perfbench-trace/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) || cfg.mtpad == "" {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0, --trace 0 or 1 and --mtpad")
		return 2
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "perfbench-trace", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	}
	if st, err := os.Stat(cfg.mtpad); err != nil || st.IsDir() {
		fmt.Fprintf(stderr, "perfbench: no mtpad binary at %s\n", cfg.mtpad)
		return 2
	}
	w, err := newWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	var setupS []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := w.setup(cfg); err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 2
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	// Collect set-up garbage now rather than during the first ops.
	runtime.GC()

	d := time.Duration(cfg.seconds * float64(time.Second))
	plain := newRecorder()
	var traced *recorder
	var tr *tracer
	stretches := 1
	if cfg.trace {
		// Alternate untraced and traced stretches, so that a machine
		// that slows down during the run does not pass for tracing
		// overhead.
		traced, tr = newRecorder(), newTracer()
		stretches = 2 * traceAlternations
	}
	stretch := d / time.Duration(stretches)
	for i := 0; i < stretches; i += 2 {
		if err := w.measure(stretch, nil, plain); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if cfg.trace {
			if err := w.measure(stretch, tr, traced); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 2
			}
		}
	}
	if cfg.trace {
		if err := tr.write(cfg.traceOut); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 2
		}
	}

	rep := buildReport(cfg, setupS, plain, traced, tr)
	attempted, failed := plain.ops, plain.failed
	if traced != nil {
		attempted += traced.ops
		failed += traced.failed
		rep.Failures = append(rep.Failures, traced.failures...)
	}
	if attempted == 0 {
		fmt.Fprintln(stderr, "perfbench: no op completed")
		return 2
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, rep.result}
	for _, v := range []any{map[string]any{"report": rep}, result} {
		data, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(data))
	}
	if failed > 0 {
		for _, f := range rep.Failures {
			fmt.Fprintln(stderr, "perfbench: failed op:", f)
		}
		return 1
	}
	return 0
}

// traceAlternations is how many untraced and traced stretches a traced
// run alternates; each gets 1/(2·traceAlternations) of --seconds.
const traceAlternations = 4

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportMetric is one figure of the report line, with its spread over
// the run's repetitions where it has one.
type reportMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread *spread `json:"over_repetitions,omitempty"`
}

type report struct {
	Workload    string                  `json:"workload"`
	Seed        int64                   `json:"seed"`
	Seconds     float64                 `json:"seconds"`
	Trace       bool                    `json:"trace"`
	GoMaxProcs  int                     `json:"gomaxprocs"`
	NumCPU      int                     `json:"nproc"`
	GoVersion   string                  `json:"go_version"`
	Env         map[string]string       `json:"env_overrides"`
	SetupS      []float64               `json:"setup_s_samples"`
	Repetitions int                     `json:"repetitions"`
	Metrics     map[string]reportMetric `json:"metrics"`
	Layers      map[string]reportMetric `json:"layers,omitempty"`
	Spans       map[string]spanTotals   `json:"spans,omitempty"`
	LayerSelf   map[string]spanTotals   `json:"layer_self,omitempty"`
	TracedOps   int                     `json:"traced_ops,omitempty"`
	Counters    map[string]float64      `json:"counters,omitempty"`
	SpanFile    string                  `json:"span_file,omitempty"`
	Notes       []string                `json:"notes,omitempty"`
	Failures    []string                `json:"failures,omitempty"`

	result map[string]metric
}

// envOverrides lists the environment variables that change the engine's
// or the Go runtime's defaults.
var envOverrides = []string{"MTPA_FIXPOINT_WORKERS", "MTPA_SEQ_FASTPATH", "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG"}

func buildReport(cfg *config, setupS []float64, plain, traced *recorder, tr *tracer) *report {
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Env: map[string]string{}, SetupS: setupS, Repetitions: len(plain.reps["ops_per_s"]),
		Metrics: map[string]reportMetric{}, Notes: notes(cfg), Failures: plain.failures,
		result: map[string]metric{},
	}
	for _, k := range envOverrides {
		if v, ok := os.LookupEnv(k); ok {
			rep.Env[k] = v
		}
	}
	// A median over repetitions discounts a repetition that a burst of
	// other load on the machine slowed down; runs too short for three
	// complete repetitions fall back to the whole-run figure. The p99s
	// pool every sample: one repetition has too few beyond its p99.
	// peak_rss_mb is the peak of the process that analyses (this one, or
	// the mtpad subprocess) during the ops, without set-up.
	add := func(name, unit string, whole float64, byRep bool) {
		m := reportMetric{Value: whole, Unit: unit}
		if xs := plain.reps[name]; len(xs) > 0 {
			s := spreadOf(xs)
			m.Spread = &s
			if byRep && len(xs) >= 3 {
				m.Value = s.Median
			}
		}
		rep.Metrics[name] = m
	}
	ss := spreadOf(setupS)
	rep.Metrics["setup_s"] = reportMetric{Value: ss.Median, Unit: "s", Spread: &ss}
	add("ops_per_s", "1/s", plain.opsPerSec(), true)
	add("latency_p50_ms", "ms", percentile(plain.latMs, 0.5), true)
	add("latency_p99_ms", "ms", percentile(plain.latMs, 0.99), false)
	add("peak_rss_mb", "MiB", plain.peakRSS, true)
	add("failed_frac", "frac", float64(plain.failed)/float64(max(plain.ops, 1)), false)
	// The length of one complete repetition shows how many of them a
	// traced stretch or a short run holds.
	repS := plain.active.Seconds()
	if xs := plain.reps["repetition_s"]; len(xs) > 0 {
		repS = spreadOf(xs).Median
	}
	add("repetition_s", "s", repS, true)
	names := make([]string, 0, len(plain.samples))
	for k := range plain.samples {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		add(k+"_p50_ms", "ms", percentile(plain.samples[k], 0.5), true)
		add(k+"_p99_ms", "ms", percentile(plain.samples[k], 0.99), false)
	}

	if traced == nil {
		for _, k := range endToEnd {
			m := rep.Metrics[k]
			rep.result[k] = metric{Value: m.Value, Unit: m.Unit}
		}
		return rep
	}
	spans, opMs := tr.summarize()
	rep.Spans, rep.SpanFile = spans, cfg.traceOut
	rep.TracedOps, rep.Counters = traced.ops, traced.counters
	rep.LayerSelf = map[string]spanTotals{}
	for name, st := range spans {
		l := rep.LayerSelf[layerOf(name)]
		l.Count += st.Count
		l.SelfMs += st.SelfMs
		l.WallMs += st.WallMs
		l.Share += st.Share
		rep.LayerSelf[layerOf(name)] = l
	}
	rep.Layers = map[string]reportMetric{}
	for _, lm := range layerMetrics(traced, spans, opMs, plain.opsPerSec()) {
		rep.Layers[lm.name] = reportMetric{Value: lm.value, Unit: lm.unit}
		rep.result[lm.name] = metric{Value: lm.value, Unit: lm.unit}
	}
	return rep
}

// notes says what a workload's figures leave out or include beyond what
// their names suggest.
func notes(cfg *config) []string {
	if cfg.workload != "daemon_mixed" {
		return nil
	}
	out := []string{"failed_frac does not cover two tenants updating one file concurrently: the workload never does, which keeps clear of a known shared-store defect"}
	if cfg.trace {
		out = append(out, "the traced run serves mtpad in-process in every stretch, untraced ones too, so trace.overhead_frac compares like with like; runtime.* include the load generator's own HTTP and JSON work, and server.* time an in-process daemon, not the subprocess of an untraced run")
	}
	return out
}

// endToEnd names the result-line metrics of an untraced run: those
// every workload has. The daemon's tier-0, refined and query latencies,
// the generator lag and failed_frac are in the report line.
var endToEnd = []string{"setup_s", "ops_per_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb"}
