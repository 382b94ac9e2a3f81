package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mtpa"
	"mtpa/internal/core"
	"mtpa/internal/ir"
	"mtpa/internal/parser"
	"mtpa/internal/race"
	"mtpa/internal/sem"
)

// coldCorpus is the cold_corpus workload: a closed loop with one client
// that compiles, analyses (Multithreaded, default options) and
// race-checks every corpus program, in an order the seed shuffles anew
// for each pass. One op is one program. The fixpoint (core) does nearly
// all the work; session, server and flowinsens do none.
type coldCorpus struct {
	rng   *rand.Rand
	progs []coldProgram
}

type coldProgram struct {
	corpusProgram
	// fiEdges and fiIters are the tier-0 figures measured at set-up, and
	// races the race count of the set-up pass; every op repeats the
	// golden check with them.
	fiEdges, fiIters, races int
	lines                   int
}

func (w *coldCorpus) setup(cfg *config) error {
	w.rng = rand.New(rand.NewSource(cfg.seed))
	corpus, err := loadCorpus(cfg.root)
	if err != nil {
		return err
	}
	w.progs = w.progs[:0]
	for _, p := range corpus {
		prog, err := mtpa.Compile(p.file, p.src)
		if err != nil {
			return err
		}
		res, err := prog.Analyze(mtpa.Options{Mode: mtpa.Multithreaded})
		if err != nil {
			return err
		}
		fi := prog.FlowInsensitive()
		w.progs = append(w.progs, coldProgram{
			corpusProgram: p,
			fiEdges:       fi.Graph.Len(),
			fiIters:       fi.Iterations,
			races:         len(race.New(prog.IR, res).Detect()),
			lines:         countLines(p.src),
		})
	}
	return nil
}

func (w *coldCorpus) measure(d time.Duration, tr *tracer, rec *recorder) error {
	deadline := time.Now().Add(d)
	from := readRuntime()
	defer func() { rec.addRuntime(from, readRuntime()) }()
	// Every measure runs at least one op, however slow the machine.
	opID := 0
	for opID == 0 || time.Now().Before(deadline) {
		rec.beginRep()
		resetPeakRSS()
		complete := true
		for _, i := range w.rng.Perm(len(w.progs)) {
			if opID > 0 && !time.Now().Before(deadline) {
				complete = false
				break
			}
			start := time.Now()
			problem := w.op(&w.progs[i], tr, rec, opID)
			lat := time.Since(start)
			rec.addActive(lat)
			rec.op(lat, problem)
			opID++
		}
		if complete {
			rec.endRep()
		}
		if err := noteSelfRSS(rec, complete); err != nil {
			return err
		}
	}
	return nil
}

// op runs one program. Untraced, it goes through the public API as a
// user would; traced, it calls the same layer functions mtpa.Compile
// and Program.Analyze call, one span each.
func (w *coldCorpus) op(p *coldProgram, tr *tracer, rec *recorder, opID int) string {
	opts := mtpa.Options{Mode: mtpa.Multithreaded}
	var irProg *ir.Program
	var res *core.Result
	var races int
	if tr == nil {
		prog, err := mtpa.Compile(p.file, p.src)
		if err != nil {
			return fmt.Sprintf("%s: compile: %v", p.name, err)
		}
		res, err = prog.Analyze(opts)
		if err != nil {
			return fmt.Sprintf("%s: analyze: %v", p.name, err)
		}
		irProg = prog.IR
		races = len(race.New(irProg, res).Detect())
	} else {
		root := tr.begin("op", -1, opID)
		defer tr.end(root)
		s := tr.begin("frontend.parse", root, opID)
		astProg, err := parser.Parse(p.file, p.src)
		tr.end(s)
		if err != nil {
			return fmt.Sprintf("%s: parse: %v", p.name, err)
		}
		s = tr.begin("frontend.check", root, opID)
		info, diags := sem.Check(astProg)
		tr.end(s)
		if hard := diags.HardErrors(); len(hard) > 0 {
			return fmt.Sprintf("%s: check: %v", p.name, hard)
		}
		s = tr.begin("ir.lower", root, opID)
		irProg, err = ir.Lower(info)
		tr.end(s)
		if err != nil {
			return fmt.Sprintf("%s: lower: %v", p.name, err)
		}
		a0 := readRuntime().allocBytes
		s = tr.begin("core.analyze", root, opID)
		res, err = core.AnalyzeContext(context.Background(), irProg, opts)
		tr.end(s)
		rec.count("core.alloc_bytes", float64(readRuntime().allocBytes-a0))
		if err != nil {
			return fmt.Sprintf("%s: analyze: %v", p.name, err)
		}
		s = tr.begin("race.detect", root, opID)
		races = len(race.New(irProg, res).Detect())
		tr.end(s)
		rec.count("frontend.lines", float64(p.lines))
		rec.count("ir.instrs", float64(instrCount(irProg)))
		rec.count("race.races", float64(races))
		countCore(rec, res)
	}
	return w.check(p, res, races)
}

// check compares an op's result with the program's golden row.
func (w *coldCorpus) check(p *coldProgram, res *core.Result, races int) string {
	got := goldenRow{
		FastPath: p.golden.FastPath,
		CEdges:   res.MainOut.C.Len(), EEdges: res.MainOut.E.Len(),
		Contexts: res.ContextsTotal(), Rounds: res.Rounds,
		FIEdges: p.fiEdges, FIIters: p.fiIters,
	}
	if p.golden.FastPath >= 0 {
		got.FastPath = 0
		if res.FastPath {
			got.FastPath = 1
		}
	}
	if got != p.golden {
		return fmt.Sprintf("%s: got %+v, golden %+v", p.name, got, p.golden)
	}
	if races != p.races {
		return fmt.Sprintf("%s: %d races, set-up pass found %d", p.name, races, p.races)
	}
	return ""
}

// noteSelfRSS records this process's peak RSS since the repetition
// began.
func noteSelfRSS(rec *recorder, complete bool) error {
	mb, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	rec.notePeakRSS(mb, complete)
	return nil
}

// countCore adds one engine result's run-shape counters.
func countCore(rec *recorder, res *core.Result) {
	rec.count("core.results", 1)
	rec.count("core.contexts", float64(res.ContextsTotal()))
	rec.count("core.rounds", float64(res.Rounds))
	rec.count("core.rounds_n", 1)
	rec.count("core.proc_analyses", float64(res.ProcAnalyses))
	rec.count("core.memo_hits", float64(res.Metrics.CallMemoHits))
	rec.count("core.memo_misses", float64(res.Metrics.CallMemoMisses))
	if res.FastPath {
		rec.count("core.fastpath_runs", 1)
	}
}

func instrCount(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstrs
	}
	return n
}

func countLines(src string) int {
	n := 1
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			n++
		}
	}
	return n
}
