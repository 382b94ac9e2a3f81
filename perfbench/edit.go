package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"mtpa"
	"mtpa/internal/core"
	"mtpa/internal/session"
)

// editSession is the edit_session workload: a closed loop with one
// editor. Each round opens one fresh mtpa.Session per paper program,
// warms it on the unedited source (untimed), then streams every
// program's seeded edit chain, interleaving the programs with ties
// broken by the seed. One op is one Session.Update. Summary seeding
// removes most of the fixpoint's work here, so the front end, the
// session and the store's read and invalidate paths carry a large share.
// Fresh sessions per round keep every update a real re-analysis: a
// source a session has seen before would be a whole-file cache hit.
type editSession struct {
	rng    *rand.Rand
	chains []editChain
	refs   map[string]reference
}

func (w *editSession) setup(cfg *config) error {
	w.rng = rand.New(rand.NewSource(cfg.seed))
	chains, err := paperChains(" 0;", w.rng)
	if err != nil {
		return err
	}
	refs := map[string]reference{}
	if err := addReferences(refs, chains, 1); err != nil {
		return err
	}
	w.chains, w.refs = chains, refs
	return nil
}

// updater is one session under test: the public mtpa.Session untraced,
// or the internal session it wraps when traced, so that spans can sit
// between its staging and analysis halves and around its store.
type updater interface {
	update(file, src string, opID int) (*core.Result, session.UpdateStats, string)
}

func (w *editSession) measure(d time.Duration, tr *tracer, rec *recorder) error {
	deadline := time.Now().Add(d)
	// Every measure runs at least one op, however slow the machine.
	opID := 0
	for opID == 0 || time.Now().Before(deadline) {
		sessions := make([]updater, len(w.chains))
		for i, c := range w.chains {
			sessions[i] = newUpdater(tr, rec)
			if _, _, problem := sessions[i].update(c.file, c.steps[0], -1); problem != "" {
				return errors.New("warm-up: " + problem)
			}
			if ts, ok := sessions[i].(*tracedSession); ok {
				ts.warm = ts.store.Stats()
			}
		}
		rec.beginRep()
		resetPeakRSS()
		from := readRuntime()
		complete := true
		for _, cy := range interleave(w.chains, 1, w.rng) {
			if opID > 0 && !time.Now().Before(deadline) {
				complete = false
				break
			}
			c := w.chains[cy.chain]
			src := c.steps[cy.step]
			start := time.Now()
			res, st, problem := sessions[cy.chain].update(c.file, src, opID)
			lat := time.Since(start)
			rec.addActive(lat)
			if problem == "" && res.Fingerprint() != w.refs[refKey(c.file, src)].fingerprint {
				problem = fmt.Sprintf("%s edit %d: warm fingerprint differs from the cold run", c.name, cy.step)
			}
			rec.op(lat, problem)
			countUpdate(rec, st)
			opID++
		}
		rec.addRuntime(from, readRuntime())
		if complete {
			rec.endRep()
		}
		if err := noteSelfRSS(rec, complete); err != nil {
			return err
		}
		for _, s := range sessions {
			if ts, ok := s.(*tracedSession); ok {
				countStore(rec, ts.store.Stats(), ts.warm, ts.store.Len())
			}
		}
	}
	return nil
}

func newUpdater(tr *tracer, rec *recorder) updater {
	if tr == nil {
		return publicSession{mtpa.NewSession(mtpa.Options{Mode: mtpa.Multithreaded})}
	}
	store := &tracedStore{inner: session.NewStore(0), tr: tr}
	return &tracedSession{
		s:     session.NewWithStore(core.Options{Mode: core.Multithreaded}, store),
		store: store, tr: tr, rec: rec,
	}
}

type publicSession struct{ s *mtpa.Session }

func (p publicSession) update(file, src string, _ int) (*core.Result, session.UpdateStats, string) {
	up, err := p.s.Update(file, src)
	if err != nil {
		return nil, session.UpdateStats{}, fmt.Sprintf("%s: update: %v", file, err)
	}
	return up.Result, up.Stats, ""
}

// tracedSession runs Session.Update as its two halves, StageUpdate and
// RunStaged, computing the tier-0 graph between them as RunStaged would
// after the fixpoint, so each gets a span.
type tracedSession struct {
	s     *session.Session
	store *tracedStore
	tr    *tracer
	rec   *recorder
	// warm holds the store's probe counters after the untimed warm-up,
	// which the store hit ratios leave out.
	warm map[string]session.KindStats
}

func (t *tracedSession) update(file, src string, opID int) (*core.Result, session.UpdateStats, string) {
	tr := t.tr
	if opID < 0 { // warm-up: not an op, leave no spans
		tr = nil
	}
	root := tr.begin("op", -1, opID)
	defer tr.end(root)

	s := tr.begin("session.stage", root, opID)
	t.store.attach(tr, s, opID)
	st, err := t.s.StageUpdate(file, src)
	tr.end(s)
	if err != nil {
		return nil, session.UpdateStats{}, fmt.Sprintf("%s: stage: %v", file, err)
	}

	s = tr.begin("flowinsens.solve", root, opID)
	fi, iters := st.FlowInsens()
	tr.end(s)

	a0 := readRuntime().allocBytes
	s = tr.begin("session.run", root, opID)
	t.store.attach(tr, s, opID)
	res, stats, err := t.s.RunStaged(context.Background(), st, fi)
	tr.end(s)
	t.store.attach(nil, -1, -1)
	if err != nil {
		return nil, stats, fmt.Sprintf("%s: run: %v", file, err)
	}
	if tr != nil {
		t.rec.count("session.run_alloc_bytes", float64(readRuntime().allocBytes-a0))
		t.rec.count("flowinsens.calls", 1)
		t.rec.count("flowinsens.iterations", float64(iters))
		t.rec.count("flowinsens.edges", float64(fi.Len()))
		t.rec.count("frontend.lines", float64(countLines(src)))
		t.rec.count("ir.instrs", float64(instrCount(res.Prog)))
		countCore(t.rec, res)
	}
	return res, stats, ""
}

// tracedStore is the session's artifact store with a span around every
// probe and insertion, attributed to the session span open at the time.
// The engine's worker pool probes it from several goroutines.
type tracedStore struct {
	inner  *session.Store
	tr     *tracer
	parent atomic.Int64
	op     atomic.Int64
	on     atomic.Bool
}

func (s *tracedStore) attach(tr *tracer, parent, op int) {
	s.on.Store(tr != nil)
	s.parent.Store(int64(parent))
	s.op.Store(int64(op))
}

func (s *tracedStore) span(name string) int {
	if !s.on.Load() {
		return -1
	}
	return s.tr.begin(name, int(s.parent.Load()), int(s.op.Load()))
}

func (s *tracedStore) Get(key string) (any, bool) {
	id := s.span("store.get")
	v, ok := s.inner.Get(key)
	s.tr.end(id)
	return v, ok
}

func (s *tracedStore) Put(key string, val any) {
	id := s.span("store.put")
	s.inner.Put(key, val)
	s.tr.end(id)
}

func (s *tracedStore) Len() int { return s.inner.Len() }

func (s *tracedStore) Stats() map[string]session.KindStats { return s.inner.Stats() }

// countUpdate adds one update's reuse counters.
func countUpdate(rec *recorder, st session.UpdateStats) {
	rec.count("session.updates", 1)
	rec.count("session.procs_parsed", float64(st.ProcsParsed))
	rec.count("session.procs_reused", float64(st.ProcsReused))
	rec.count("session.seed_hits", float64(st.Seed.Hits))
	rec.count("session.seed_misses", float64(st.Seed.Misses))
	if st.ColdCompile {
		rec.count("session.cold_compiles", 1)
	}
}

// countStore adds a retiring store's probe counters since base, and its
// size.
func countStore(rec *recorder, now, base map[string]session.KindStats, size int) {
	for kind, ks := range now {
		b := base[kind]
		rec.count("store.hits."+kind, float64(ks.Hits-b.Hits))
		rec.count("store.probes."+kind, float64(ks.Hits+ks.Misses-b.Hits-b.Misses))
	}
	rec.count("store.len", float64(size))
	rec.count("store.stores", 1)
}
