// Summary seeding: the incremental session (internal/session) retains,
// per procedure context, the fixed-point ⟨C,I⟩→⟨C,E⟩ transfer together
// with the per-context measurements, warnings and callee-context edges,
// all in the canonical table-independent encoding of canon.go. A later
// run over an equivalent procedure closure resolves the summary into its
// own fresh table and installs the result without solving anything: the
// context returns in O(1) during the fixed-point rounds, and the metrics
// pass re-injects the stored measurements and walks the stored callee
// keys so the demand closure of the metrics pass is reproduced exactly.
//
// Soundness of the warm result (the warm ≡ cold argument, detailed in
// DESIGN.md): the session seeds a context only when the procedure's whole
// transitive callee closure is textually unchanged, and a context's
// fixed-point result is a function of its inputs ⟨C_p, I_p, ghosts⟩ and
// that closure alone. Re-solving a seeded context therefore could not
// change its result, so skipping the solve is exact — and any summary
// whose keys no longer resolve in the current program misses instead of
// mis-resolving.

package core

import (
	"context"
	"sort"

	"mtpa/internal/ir"
	"mtpa/internal/ptgraph"
)

// Summary is the retained fixed-point knowledge of one procedure context,
// fully canonical: it references no table pointers and survives across
// analysis runs and program edits.
type Summary struct {
	Fn  string // procedure name
	Key string // canonical context key (canonizer.ctxKey)

	// The context inputs, re-resolvable into a fresh table (used to
	// materialise contexts demanded by a seeded caller's metrics walk).
	Cp, Ip []CanonEdge
	Ghosts []CanonGhost

	// The fixed-point result: the output graph C′ and created edges E′.
	C, E []CanonEdge

	// Warnings this context's solves emitted (across all rounds and the
	// metrics pass), replayed on seeding so the warm warning set matches
	// the cold one.
	Warnings []SummaryWarning

	// Per-context measurements of the metrics pass.
	Accesses []SummaryAccess
	Pars     []SummaryPar

	// Callees lists the canonical context keys this context demanded
	// during the metrics pass; a seeded context demands them again so the
	// measurement closure is complete even when nothing is solved.
	Callees []string
}

// SummaryWarning is one per-context warning occurrence.
type SummaryWarning struct {
	Ref  InstrRef
	Text string
}

// SummaryAccess is one access measurement, keyed by the access's
// per-function ordinal (stable across edits to other procedures).
type SummaryAccess struct {
	Ord  int
	Locs []CanonLoc
}

// SummaryPar is one parallel-construct convergence measurement.
type SummaryPar struct {
	Node       int
	Iterations int
	Threads    int
}

// Seeder supplies retained summaries to an analysis run. Lookup is probed
// on every newly created context; LookupKey materialises contexts a
// seeded caller demands. Implementations must return summaries only when
// they are valid for the current program (the session checks the
// procedure's dependency hash), and must give the same answer for a key
// throughout one run; the engine additionally rejects any summary that
// does not resolve cleanly into the current table, or whose callee
// closure the seeder does not hold in full.
type Seeder interface {
	Lookup(fn, key string) *Summary
	LookupKey(key string) *Summary
}

// SeedStats reports summary-seeding outcomes of one run.
type SeedStats struct {
	Hits   int
	Misses int
	// HitsByFunc counts seeded contexts per procedure (nil when no
	// context was seeded).
	HitsByFunc map[string]int
}

// seedState is a summary resolved into the current table, attached to its
// seeded context entry.
type seedState struct {
	sum    *Summary
	access []*AccessSample // CtxID filled at injection time
	pars   []seedPar
}

type seedPar struct {
	node       *ir.Node
	iterations int
	threads    int
}

// ctxWarn is one per-context warning record, harvested into summaries.
type ctxWarn struct {
	in   *ir.Instr
	text string
}

// warnRec buffers a per-context warning produced under speculation.
type warnRec struct {
	ctx  *ctxEntry
	in   *ir.Instr
	text string
}

// calleeRec buffers a callee-context edge produced under speculation.
type calleeRec struct {
	ctx    *ctxEntry
	callee *ctxEntry
}

// AnalyzeWithSeeder is AnalyzeContext with a summary seeder attached:
// contexts whose canonical key hits the seeder return their retained
// fixed-point result without being solved. With a nil seeder it is
// exactly AnalyzeContext.
func AnalyzeWithSeeder(ctx context.Context, prog *ir.Program, opts Options, seeder Seeder) (*Result, error) {
	return analyze(ctx, prog, opts, seeder, nil)
}

// AnalyzeWithSeederFI is AnalyzeWithSeeder with a caller-precomputed
// flow-insensitive graph (see AnalyzeContextFI): the tiered session path
// serves the graph as its tier-0 answer and shares it with the seeded
// refinement's Budget degradations. (Seeding and budgets are mutually
// exclusive by session policy, so in practice fi is a no-op there — the
// parameter keeps the sharing invariant uniform across entry points.)
func AnalyzeWithSeederFI(ctx context.Context, prog *ir.Program, opts Options, seeder Seeder, fi *ptgraph.Graph) (*Result, error) {
	return analyze(ctx, prog, opts, seeder, fi)
}

// SeedStats reports the summary-seeding outcomes of the run (zero value
// for runs without a seeder).
func (r *Result) SeedStats() SeedStats {
	a := r.analysis
	if a == nil {
		return SeedStats{}
	}
	return SeedStats{Hits: a.seedHits, Misses: a.seedMisses, HitsByFunc: a.seedHitsByFn}
}

// canon returns the run's lazily created canonizer, taking over the one
// BlockFootprints built for the same program when there is one.
func (a *Analysis) canon() *canonizer {
	if a.cn == nil {
		if a.cn = takeCanonizer(a.prog); a.cn == nil {
			a.cn = newCanonizer(a.prog)
		}
	}
	return a.cn
}

// trySeed probes the seeder for a freshly created context. It always
// computes and stores the canonical context key (the harvest needs it),
// and on a hit resolves the whole summary all-or-nothing: result graphs,
// measurements, par nodes and warning instructions. Any resolution
// failure is a miss — the context is then solved from scratch, which is
// always correct.
func (a *Analysis) trySeed(e *ctxEntry) {
	if a.seeder == nil || a.opts.DisableContextCache {
		return
	}
	cn := a.canon()
	key, ok := cn.ctxKey(e.fn, e.Cp, e.Ip, e.ghostSrc)
	if !ok {
		return
	}
	e.canonKey = key
	sum := a.seeder.Lookup(e.fn.Name, key)
	if sum == nil || !a.calleesSeedable(sum) {
		a.seedMisses++
		return
	}
	st := a.resolveSummary(sum)
	if st == nil {
		a.seedMisses++
		return
	}
	C, cok := cn.resolveGraph(sum.C)
	E, eok := cn.resolveGraph(sum.E)
	if !cok || !eok {
		a.seedMisses++
		return
	}
	e.seeded = st
	e.result.C = C
	e.result.E = E
	e.result.version = 1
	a.seedHits++
	if a.seedHitsByFn == nil {
		a.seedHitsByFn = map[string]int{}
	}
	a.seedHitsByFn[e.fn.Name]++
	if a.seedByKey == nil {
		a.seedByKey = map[string]*ctxEntry{}
	}
	a.seedByKey[key] = e

	// Replay the context's warnings: record them per-context (the harvest
	// of this run re-emits them) and emit globally new ones, preserving
	// the run-wide once-per-instruction deduplication.
	for _, w := range sum.Warnings {
		in, ok := cn.resolveInstr(w.Ref)
		if !ok {
			continue
		}
		e.recordWarn(in, w.Text)
		if !a.warnedUnk[in] {
			a.warnedUnk[in] = true
			a.warnings = append(a.warnings, w.Text)
		}
	}
}

// calleesSeedable reports whether the seeder holds a summary for every
// context key in sum's callee closure. A seeded context's metrics walk
// demands those keys (applySeed); one the seeder lacks would be skipped,
// and with it that context's measurements unless some other solve
// happens to demand it — so a summary whose closure is incomplete is
// taken as a miss and its context solved. The check only reads the
// seeder, so it interns nothing into the table.
func (a *Analysis) calleesSeedable(sum *Summary) bool {
	seen := map[string]bool{}
	var walk func(sum *Summary) bool
	walk = func(sum *Summary) bool {
		for _, key := range sum.Callees {
			if a.seedByKey[key] != nil || a.seedClosed[key] || seen[key] {
				continue
			}
			seen[key] = true
			cs := a.seeder.LookupKey(key)
			if cs == nil || a.canon().fnByName[cs.Fn] == nil || !walk(cs) {
				return false
			}
		}
		return true
	}
	if !walk(sum) {
		return false
	}
	// Every key reached is now known to have a complete closure.
	if a.seedClosed == nil {
		a.seedClosed = map[string]bool{}
	}
	for key := range seen {
		a.seedClosed[key] = true
	}
	return true
}

// resolveSummary resolves a summary's measurements into the current
// table, all-or-nothing.
func (a *Analysis) resolveSummary(sum *Summary) *seedState {
	cn := a.canon()
	st := &seedState{sum: sum}
	for _, acc := range sum.Accesses {
		id, ok := cn.accID[accOrdKey{fn: sum.Fn, ord: acc.Ord}]
		if !ok {
			return nil
		}
		s := &AccessSample{AccID: id}
		for _, l := range acc.Locs {
			lid, ok := cn.resolveLoc(l)
			if !ok {
				return nil
			}
			s.Locs = append(s.Locs, lid)
		}
		st.access = append(st.access, s)
	}
	for _, p := range sum.Pars {
		n, ok := cn.resolveNode(sum.Fn, p.Node)
		if !ok {
			return nil
		}
		st.pars = append(st.pars, seedPar{node: n, iterations: p.Iterations, threads: p.Threads})
	}
	return st
}

// applySeed handles analyzeContext for a seeded entry. During the
// fixed-point rounds the retained result simply stands in for the solve.
// During the metrics pass the stored measurements are injected under the
// current context id and the stored callee keys are demanded, so every
// context the cold metrics pass would have visited is visited here too.
// With RecordPoints the seed is ignored for the metrics pass (the
// per-point facts must come from a real solve) and applySeed reports
// !done to fall through.
func (x *exec) applySeed(e *ctxEntry) (done bool, err error) {
	a := x.a
	if !a.metricsOn {
		e.doneRound = a.round
		return true, nil
	}
	if a.opts.RecordPoints {
		return false, nil
	}
	e.metricsDone = true
	for _, s := range e.seeded.access {
		a.metrics.access[accKey{acc: s.AccID, ctx: e.id}] = &AccessSample{AccID: s.AccID, CtxID: e.id, Locs: s.Locs}
	}
	for _, p := range e.seeded.pars {
		a.metrics.par[parKey{node: p.node, ctx: e.id}] = &ParSample{
			NodeID: p.node.ID, FnName: p.node.Fn.Name, CtxID: e.id,
			Iterations: p.iterations, Threads: p.threads,
		}
	}
	for _, key := range e.seeded.sum.Callees {
		ce, err := x.materializeSeed(key)
		if err != nil {
			return true, err
		}
		if ce == nil {
			continue
		}
		if err := x.analyzeContext(ce); err != nil {
			return true, err
		}
	}
	return true, nil
}

// materializeSeed interns the context named by a stored canonical key,
// resolving its inputs from the summary store. A key that is already
// materialised returns its entry; a key the store no longer holds, or
// whose inputs do not resolve, is skipped (nil) — its measurements came
// from a closure the session has since invalidated, so a real solve
// elsewhere covers it.
func (x *exec) materializeSeed(key string) (*ctxEntry, error) {
	a := x.a
	if e, ok := a.seedByKey[key]; ok {
		return e, nil
	}
	sum := a.seeder.LookupKey(key)
	if sum == nil {
		return nil, nil
	}
	cn := a.canon()
	fn, ok := cn.fnByName[sum.Fn]
	if !ok {
		return nil, nil
	}
	Cp, cok := cn.resolveGraph(sum.Cp)
	Ip, iok := cn.resolveGraph(sum.Ip)
	ghostSrc, gok := cn.resolveGhosts(sum.Ghosts)
	if !cok || !iok || !gok {
		return nil, nil
	}
	e, err := x.getContext(fn, Cp, Ip, ghostSrc)
	if err != nil {
		return nil, err
	}
	if e.seeded == nil && e.result.version == 0 && !e.metricsDone && e.doneRound == 0 {
		// getContext created a fresh entry but trySeed did not take (a
		// resolution asymmetry); solving it cold inside the metrics pass
		// would not reproduce the rounds fixed point, so skip it.
		return nil, nil
	}
	return e, nil
}

// recordWarn stores one per-context warning occurrence (deduplicated per
// instruction within the context).
func (e *ctxEntry) recordWarn(in *ir.Instr, text string) {
	if e.warned == nil {
		e.warned = map[*ir.Instr]bool{}
	}
	if e.warned[in] {
		return
	}
	e.warned[in] = true
	e.warnRecs = append(e.warnRecs, ctxWarn{in: in, text: text})
}

// addCallee records a metrics-pass callee-context edge (deduplicated).
func (e *ctxEntry) addCallee(callee *ctxEntry) {
	if e.calleeSeen == nil {
		e.calleeSeen = map[*ctxEntry]bool{}
	}
	if e.calleeSeen[callee] {
		return
	}
	e.calleeSeen[callee] = true
	e.callees = append(e.callees, callee)
}

// recordCallee records the callee-context edge of one call during the
// metrics pass (buffered under speculation).
func (x *exec) recordCallee(ctx *ctxEntry, callee *ctxEntry) {
	a := x.a
	if !a.metricsOn || a.seeder == nil || ctx == nil {
		return
	}
	if x.spec != nil {
		x.spec.buf.callees = append(x.spec.buf.callees, calleeRec{ctx: ctx, callee: callee})
		return
	}
	ctx.addCallee(callee)
}

// ExportSummaries harvests one summary per metrics-complete context for
// the session's store. It returns nil when nothing trustworthy can be
// harvested: runs without a seeder (the per-context warning and callee
// records are only kept when one is attached), degraded runs (budget
// fallbacks are not fixed-point results) and ablation runs with the
// context cache disabled.
func (r *Result) ExportSummaries() []*Summary {
	a := r.analysis
	if a == nil || a.seeder == nil || len(r.Degraded) > 0 || r.Opts.DisableContextCache {
		return nil
	}
	var out []*Summary
	for _, e := range a.ctxList {
		if !e.metricsDone || e.degraded {
			continue
		}
		if e.seeded != nil {
			out = append(out, e.seeded.sum)
			continue
		}
		if s := a.encodeSummary(e); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// encodeSummary renders one solved context as a canonical summary, or nil
// if anything fails to encode.
func (a *Analysis) encodeSummary(e *ctxEntry) *Summary {
	cn := a.canon()
	if e.canonKey == "" {
		key, ok := cn.ctxKey(e.fn, e.Cp, e.Ip, e.ghostSrc)
		if !ok {
			return nil
		}
		e.canonKey = key
	}
	sum := &Summary{Fn: e.fn.Name, Key: e.canonKey}
	var ok bool
	if sum.Cp, ok = cn.encodeGraph(e.Cp); !ok {
		return nil
	}
	if sum.Ip, ok = cn.encodeGraph(e.Ip); !ok {
		return nil
	}
	if sum.Ghosts, ok = cn.encodeGhosts(e.ghostSrc); !ok {
		return nil
	}
	if sum.C, ok = cn.encodeGraph(e.result.C); !ok {
		return nil
	}
	if sum.E, ok = cn.encodeGraph(e.result.E); !ok {
		return nil
	}
	for _, w := range e.warnRecs {
		ref, ok := cn.encodeInstr(w.in)
		if !ok {
			return nil
		}
		sum.Warnings = append(sum.Warnings, SummaryWarning{Ref: ref, Text: w.text})
	}
	for _, s := range a.samplesOf(e.id) {
		acc := SummaryAccess{Ord: cn.accOrd[s.AccID]}
		for _, l := range s.Locs {
			cl, ok := cn.encodeLoc(l)
			if !ok {
				return nil
			}
			acc.Locs = append(acc.Locs, cl)
		}
		sum.Accesses = append(sum.Accesses, acc)
	}
	for _, p := range a.parsOf(e.id) {
		sum.Pars = append(sum.Pars, SummaryPar{Node: p.NodeID, Iterations: p.Iterations, Threads: p.Threads})
	}
	for _, ce := range e.callees {
		if ce.canonKey == "" {
			key, ok := cn.ctxKey(ce.fn, ce.Cp, ce.Ip, ce.ghostSrc)
			if !ok {
				return nil
			}
			ce.canonKey = key
		}
		sum.Callees = append(sum.Callees, ce.canonKey)
	}
	sort.Strings(sum.Callees)
	return sum
}

// samplesOf returns the access samples recorded for one context, in
// deterministic access order.
func (a *Analysis) samplesOf(ctxID int) []*AccessSample {
	var out []*AccessSample
	for k, s := range a.metrics.access {
		if k.ctx == ctxID {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AccID < out[j].AccID })
	return out
}

// parsOf returns the par samples recorded for one context, in
// deterministic node order.
func (a *Analysis) parsOf(ctxID int) []*ParSample {
	var out []*ParSample
	for k, s := range a.metrics.par {
		if k.ctx == ctxID {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	return out
}
