package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"mtpa/internal/server"
)

// daemonMixed is the daemon_mixed workload: a closed loop over one
// connection to an mtpad on loopback. The connection drives a pair of
// tenants that submit the same sources in turn, so the second of the
// pair always finds the first one's refinement in the shared store. It
// walks the seeded edit chains of every program interleaved in
// proportion to their length, so any prefix of a round, such as the
// part a deadline cuts off, covers every program in proportion. No two
// sessions ever update one file concurrently: one tenant's update of a
// file is refined and queried before its partner's begins. A cycle is
// an update that asks for no wait (its tier-0 answer), a long-poll on
// the refinement token (the refined answer) and three queries on the
// refined file (points-to, races, points-to). One op is one HTTP
// request.
//
// One connection, not two: the engine's fixpoint already spreads one
// refinement over every core, so on a two-core machine a second
// connection's refinement would only queue behind the first on the
// scheduler, and the figures would depend on how the two happened to
// overlap.
//
// A round is one daemon lifetime: start mtpad, create the tenants, run
// every program's chain, stop. A fresh daemon per round keeps each
// round's mix of cache hits and real refinements the same however fast
// the daemon is: a daemon that lived across rounds would answer every
// repeated source from its store.
//
// An untraced run starts the mtpad binary. A traced run serves the
// server package in this process in all its stretches, so that its
// runtime counters cover the daemon's work and its untraced stretches
// measure the same set-up as its traced ones.
type daemonMixed struct {
	mtpad     string
	inProcess bool
	chains    []editChain
	refs      map[string]reference
	plan      []cycle // the connection's cycles, in order
}

func (w *daemonMixed) setup(cfg *config) error {
	w.mtpad, w.inProcess = cfg.mtpad, cfg.trace
	rng := rand.New(rand.NewSource(cfg.seed))
	chains, err := paperChains(" 0;", rng)
	if err != nil {
		return err
	}
	w.refs = map[string]reference{}
	if err := addReferences(w.refs, chains, 1); err != nil {
		return err
	}
	w.chains = chains
	w.plan = interleave(chains, 1, rng)
	// Start and stop one daemon, so that set-up also covers the daemon's
	// start-up and a broken binary fails before any op.
	d, err := w.start()
	if err != nil {
		return err
	}
	return d.stop()
}

func (w *daemonMixed) measure(d time.Duration, tr *tracer, rec *recorder) error {
	deadline := time.Now().Add(d)
	// Every measure runs at least one cycle, however slow the machine.
	opID := &atomic.Int64{}
	for opID.Load() == 0 || time.Now().Before(deadline) {
		if err := w.runRound(tr, rec, deadline, opID); err != nil {
			return err
		}
	}
	return nil
}

// runRound runs one daemon lifetime, with tenants t0 and t1.
func (w *daemonMixed) runRound(tr *tracer, rec *recorder, deadline time.Time, opID *atomic.Int64) (err error) {
	dmn, err := w.start()
	if err != nil {
		return err
	}
	defer func() {
		if serr := dmn.stop(); err == nil {
			err = serr
		}
	}()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	base := dmn.url
	for i := 0; i < 2; i++ {
		body, _ := json.Marshal(map[string]string{"id": "t" + strconv.Itoa(i)})
		resp, err := client.Post(base+"/v1/tenants", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("create tenant: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create tenant: status %d", resp.StatusCode)
		}
	}

	rec.beginRep()
	if w.inProcess {
		resetPeakRSS()
	}
	from := readRuntime()
	start := time.Now()
	cl := &daemonClient{w: w, http: client, base: base, tr: tr, rec: rec, opID: opID, deadline: deadline}
	complete := true
	for _, cy := range w.plan {
		if !cl.cycle(0, cy) || !cl.cycle(1, cy) {
			complete = false
			break
		}
	}
	rec.addActive(time.Since(start))
	rec.addRuntime(from, readRuntime())
	if complete {
		rec.endRep()
	}
	if err := scrapeMetrics(client, base, rec, tr != nil); err != nil {
		return err
	}
	rss, err := dmn.peakRSS()
	if err != nil {
		return err
	}
	rec.notePeakRSS(rss, complete)
	return nil
}

// daemonClient is the connection's closed loop.
type daemonClient struct {
	w        *daemonMixed
	http     *http.Client
	base     string
	tr       *tracer
	rec      *recorder
	opID     *atomic.Int64
	deadline time.Time
	lastEnd  time.Time
}

type updateReply struct {
	Token  string `json:"token"`
	Status string `json:"status"`
	Tier0  *struct {
		Iterations int    `json:"iterations"`
		Graph      string `json:"graph"`
	} `json:"tier0"`
	Refined *struct {
		Fingerprint string `json:"fingerprint"`
		Rounds      int    `json:"rounds"`
	} `json:"refined"`
}

type queryReply struct {
	Tier        string `json:"tier"`
	Fingerprint string `json:"fingerprint"`
	RaceCount   int    `json:"race_count"`
}

// cycle runs one update cycle for tenant t; it reports false once the
// deadline has passed.
func (cl *daemonClient) cycle(t int, cy cycle) bool {
	if cl.opID.Load() > 0 && !time.Now().Before(cl.deadline) {
		return false
	}
	c := cl.w.chains[cy.chain]
	src := c.steps[cy.step]
	ref := cl.w.refs[refKey(c.file, src)]
	tenant := "/v1/tenants/t" + strconv.Itoa(t)
	what := fmt.Sprintf("t%d %s step %d", t, c.name, cy.step)

	var up updateReply
	sent, lat, status, problem := cl.do("server.update", http.MethodPost, tenant+"/update",
		map[string]any{"file": c.file, "source": src, "wait_ms": 0}, &up)
	if problem == "" {
		switch {
		case status != http.StatusOK && status != http.StatusGatewayTimeout:
			problem = fmt.Sprintf("%s: update status %d", what, status)
		case up.Tier0 == nil || up.Token == "":
			problem = fmt.Sprintf("%s: update reply without tier-0 answer or token", what)
		case up.Tier0.Iterations != ref.fiIters:
			problem = fmt.Sprintf("%s: tier-0 took %d iterations, cold run %d", what, up.Tier0.Iterations, ref.fiIters)
		case edgeSet(up.Tier0.Graph) != ref.tier0:
			problem = fmt.Sprintf("%s: tier-0 graph differs from the cold run", what)
		}
	}
	cl.rec.op(lat, problem)
	cl.rec.sample("tier0", lat)
	if problem != "" {
		return true
	}
	cl.rec.count("flowinsens.calls", 1)
	cl.rec.count("flowinsens.iterations", float64(up.Tier0.Iterations))

	var poll updateReply
	pollSent, lat, status, problem := cl.do("server.refinement_wait", http.MethodGet, "/v1/refinements/"+up.Token+"?wait_ms=60000", nil, &poll)
	if problem == "" {
		switch {
		case status != http.StatusOK || poll.Refined == nil:
			problem = fmt.Sprintf("%s: refinement status %d (%s)", what, status, poll.Status)
		case poll.Refined.Fingerprint != ref.fingerprint:
			problem = fmt.Sprintf("%s: refined fingerprint differs from the cold run", what)
		}
	}
	cl.rec.op(lat, problem)
	cl.rec.sample("refined", pollSent.Add(lat).Sub(sent))
	if problem != "" {
		return true
	}
	cl.rec.count("core.rounds", float64(poll.Refined.Rounds))
	cl.rec.count("core.rounds_n", 1)

	for _, kind := range []string{"points_to", "races", "points_to"} {
		var q queryReply
		_, lat, status, problem := cl.do("server.query", http.MethodPost, tenant+"/query",
			map[string]any{"file": c.file, "kind": kind}, &q)
		if problem == "" {
			switch {
			case status != http.StatusOK || q.Tier != "refined":
				problem = fmt.Sprintf("%s: %s query status %d tier %q", what, kind, status, q.Tier)
			case q.Fingerprint != ref.fingerprint:
				problem = fmt.Sprintf("%s: %s query fingerprint differs from the cold run", what, kind)
			case kind == "races" && q.RaceCount != ref.races:
				problem = fmt.Sprintf("%s: %d races, cold run %d", what, q.RaceCount, ref.races)
			}
		}
		cl.rec.op(lat, problem)
		cl.rec.sample("query", lat)
		if kind == "races" && problem == "" {
			cl.rec.count("race.races", float64(q.RaceCount))
			cl.rec.count("race.queries", 1)
		}
	}
	return true
}

// do sends one request and decodes its JSON reply into out. It returns
// when the request was sent and how long the exchange took, up to the
// last byte of the reply. The span named layer covers the exchange; the
// op's root span also covers encoding and decoding. The gap since this
// connection's previous reply is the generator lag.
func (cl *daemonClient) do(layer, method, path string, body, out any) (sent time.Time, lat time.Duration, status int, problem string) {
	op := int(cl.opID.Add(1))
	root := cl.tr.begin("op", -1, op)
	defer cl.tr.end(root)
	begun := time.Now()
	if !cl.lastEnd.IsZero() {
		cl.rec.sample("generator_lag", begun.Sub(cl.lastEnd))
	}
	defer func() { cl.lastEnd = time.Now() }()

	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return begun, 0, 0, fmt.Sprintf("%s %s: encode: %v", method, path, err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, cl.base+path, rd)
	if err != nil {
		return begun, 0, 0, fmt.Sprintf("%s %s: %v", method, path, err)
	}
	s := cl.tr.begin(layer, root, op)
	sent = time.Now()
	resp, err := cl.http.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat = time.Since(sent)
	cl.tr.end(s)
	if err != nil {
		return sent, lat, 0, fmt.Sprintf("%s %s: %v", method, path, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		cl.rec.count("server.rejected_429", 1)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return sent, lat, resp.StatusCode, fmt.Sprintf("%s %s: status %d, decode: %v", method, path, resp.StatusCode, err)
	}
	return sent, lat, resp.StatusCode, ""
}

// metricsReply is the part of mtpad's /metrics document the per-layer
// report reads.
type metricsReply struct {
	Serving struct {
		Timeouts             int64 `json:"timeouts"`
		RefinementsCompleted int64 `json:"refinements_completed"`
		RefinementsCancelled int64 `json:"refinements_cancelled"`
	} `json:"serving"`
	Analysis struct {
		Contexts     int `json:"contexts"`
		ProcAnalyses int `json:"proc_analyses"`
		MemoHits     int `json:"memo_hits"`
		MemoMisses   int `json:"memo_misses"`
	} `json:"analysis"`
	Store    map[string]struct{ Hits, Misses int } `json:"store"`
	StoreLen int                                   `json:"store_len"`
	Sessions map[string]struct {
		Updates, SeedHits, SeedMisses int
	} `json:"sessions"`
}

// scrapeMetrics reads the daemon's counters at the end of a round. Only
// the traced run reports them, but every run checks that /metrics
// answers.
func scrapeMetrics(client *http.Client, base string, rec *recorder, keep bool) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	var m metricsReply
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if !keep {
		return nil
	}
	rec.count("server.timeouts", float64(m.Serving.Timeouts))
	rec.count("server.refinements_cancelled", float64(m.Serving.RefinementsCancelled))
	rec.count("core.results", float64(m.Serving.RefinementsCompleted))
	rec.count("core.contexts", float64(m.Analysis.Contexts))
	rec.count("core.proc_analyses", float64(m.Analysis.ProcAnalyses))
	rec.count("core.memo_hits", float64(m.Analysis.MemoHits))
	rec.count("core.memo_misses", float64(m.Analysis.MemoMisses))
	for kind, ks := range m.Store {
		rec.count("store.hits."+kind, float64(ks.Hits))
		rec.count("store.probes."+kind, float64(ks.Hits+ks.Misses))
	}
	rec.count("store.len", float64(m.StoreLen))
	rec.count("store.stores", 1)
	for _, s := range m.Sessions {
		rec.count("session.updates", float64(s.Updates))
		rec.count("session.seed_hits", float64(s.SeedHits))
		rec.count("session.seed_misses", float64(s.SeedMisses))
	}
	return nil
}

// daemon is one running mtpad: a subprocess, or the server package on a
// loopback listener in this process.
type daemon struct {
	url  string
	cmd  *exec.Cmd
	logs *bytes.Buffer
	stop func() error
}

// peakRSS returns the peak RSS of the process that serves: the
// subprocess, or this one.
func (d *daemon) peakRSS() (float64, error) {
	if d.cmd == nil {
		return peakRSSMB("self")
	}
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// start launches a daemon and waits until it answers /healthz.
func (w *daemonMixed) start() (*daemon, error) {
	if w.inProcess {
		return startInProcess()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{url: "http://" + addr, logs: &bytes.Buffer{}}
	d.cmd = exec.Command(w.mtpad, "-addr", addr)
	d.cmd.Stdout, d.cmd.Stderr = d.logs, d.logs
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", w.mtpad, err)
	}
	exited := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = d.cmd.Wait()
		close(exited)
	}()
	d.stop = func() error {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
			if waitErr != nil {
				return fmt.Errorf("mtpad exit: %v: %s", waitErr, d.logs)
			}
			return nil
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-exited
			return errors.New("mtpad did not stop within 20s")
		}
	}
	if err := waitHealthy(d.url, exited); err != nil {
		_ = d.cmd.Process.Kill()
		<-exited
		return nil, fmt.Errorf("mtpad: %w: %s", err, d.logs)
	}
	return d, nil
}

func startInProcess() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	d := &daemon{url: "http://" + ln.Addr().String()}
	d.stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if herr := hs.Shutdown(ctx); err == nil {
			err = herr
		}
		if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	}
	if err := waitHealthy(d.url, nil); err != nil {
		_ = d.stop()
		return nil, err
	}
	return d, nil
}

// waitHealthy polls /healthz for up to 30 seconds, giving up early if
// exited (when non-nil) is closed.
func waitHealthy(url string, exited <-chan struct{}) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return errors.New("exited before serving")
		default:
		}
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("no answer on /healthz within 30s")
}
