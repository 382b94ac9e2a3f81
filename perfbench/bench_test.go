package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// mtpadBin is an mtpad built from this checkout for the tests, so that
// daemon_mixed's untraced runs exercise the subprocess the benchmark
// starts.
var mtpadBin string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "perfbench-test")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer os.RemoveAll(dir)
		mtpadBin = filepath.Join(dir, "mtpad")
		if out, err := exec.Command("go", "build", "-o", mtpadBin, "mtpa/cmd/mtpad").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build mtpad: %v\n%s", err, out)
			return 2
		}
		return m.Run()
	}())
}

// benchmarkSpec is the part of BENCHMARK.json the tests check output
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runBench runs one short invocation and decodes its result line.
func runBench(t *testing.T, args ...string) (result, int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"--seed", "3", "--mtpad", mtpadBin, "--trace-out", filepath.Join(t.TempDir(), "spans.json")}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("result line %q: %v (stderr: %s)", lines[len(lines)-1], err, stderr.String())
	}
	return r, code, stderr.String()
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each metric BENCHMARK.json names is present with its unit and
// that every op was correct.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			w, traced := w.Name, traced
			t.Run(w+"/trace="+traced, func(t *testing.T) {
				r, code, stderr := runBench(t, "--root", "..", "--workload", w, "--seconds", "0.6", "--trace", traced)
				if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("exit %d, result %+v, stderr %s", code, r, stderr)
				}
				want := spec.EndToEnd
				if traced == "1" {
					want = spec.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					case traced == "0" && got.Value <= 0:
						t.Errorf("metric %s: value %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestCorruptedGoldenRowFails runs cold_corpus against a copy of the
// golden files in which the row of the run's first program is altered:
// that op must count as failed, and the command must exit nonzero.
func TestCorruptedGoldenRowFails(t *testing.T) {
	corpus, err := loadCorpus("..")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3
	first := corpus[rand.New(rand.NewSource(seed)).Perm(len(corpus))[0]].name
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal/bench/testdata"), 0o755); err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, part := range partitions {
		data, err := os.ReadFile(filepath.Join("..", part.golden))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		for i, line := range lines {
			fs := strings.Fields(line)
			if len(fs) > 2 && fs[0] == first && fs[1] == "Multithreaded" {
				n, err := strconv.Atoi(fs[len(fs)-1])
				if err != nil {
					t.Fatal(err)
				}
				fs[len(fs)-1] = strconv.Itoa(n + 1) // the tier-0 iteration count
				lines[i] = strings.Join(fs, " ")
				corrupted = true
			}
		}
		if err := os.WriteFile(filepath.Join(root, part.golden), []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !corrupted {
		t.Fatalf("no Multithreaded row for %s", first)
	}
	r, code, stderr := runBench(t, "--root", root, "--workload", "cold_corpus", "--seconds", "0.5", "--trace", "0")
	if code != 1 || r.Correct || r.Failed == 0 {
		t.Fatalf("corrupted row not caught: exit %d, result %+v", code, r)
	}
	if !strings.Contains(stderr, first+": got") {
		t.Errorf("failure does not name %s: %s", first, stderr)
	}
	// Only the corrupted program's ops fail: one per pass, at most.
	if passes := (r.Attempted + len(corpus) - 1) / len(corpus); r.Failed > passes {
		t.Errorf("%d failed of %d attempted; only %s's row is wrong", r.Failed, r.Attempted, first)
	}
}

// TestWrongReferenceFails gives edit_session a wrong cold reference for
// the first edit of every program: those updates, and only those, must
// count as failed.
func TestWrongReferenceFails(t *testing.T) {
	w := &editSession{}
	if err := w.setup(&config{seed: 5, root: ".."}); err != nil {
		t.Fatal(err)
	}
	for _, c := range w.chains {
		key := refKey(c.file, c.steps[1])
		ref := w.refs[key]
		ref.fingerprint = "corrupted"
		w.refs[key] = ref
	}
	rec := newRecorder()
	if err := w.measure(time.Second, nil, rec); err != nil {
		t.Fatal(err)
	}
	if rec.failed == 0 {
		t.Fatal("wrong reference not caught")
	}
	for _, f := range rec.failures {
		if !strings.Contains(f, " edit 1:") {
			t.Errorf("unexpected failure %q", f)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "session.stage", Start: 10, End: 60, Parent: 0},
		{Name: "store.get", Start: 20, End: 40, Parent: 1},
		{Name: "store.get", Start: 30, End: 50, Parent: 1}, // overlaps the first probe
		{Name: "session.run", Start: 60, End: 90, Parent: 0},
	}}
	byName, opMs := tr.summarize()
	ns := func(name string) float64 { return byName[name].SelfMs * 1e6 }
	if got := ns("op"); got != 20 {
		t.Errorf("op self %v ns, want 20", got)
	}
	if got := ns("session.stage"); got != 20 {
		t.Errorf("stage self %v ns, want 20 (50 minus the 30 its probes cover)", got)
	}
	if got := ns("store.get"); got != 40 {
		t.Errorf("store self %v ns, want 40", got)
	}
	if opMs*1e6 != 100 {
		t.Errorf("op wall %v ns, want 100", opMs*1e6)
	}
}
