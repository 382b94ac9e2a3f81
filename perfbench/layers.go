package main

// layerMetric is one per-layer figure of a traced run.
type layerMetric struct {
	name, unit string
	value      float64
}

// layerMetrics derives the per-layer figures of a traced run from its
// spans and counters. Times are self times per op unless named
// otherwise; counts are per call of the layer (the base is given with
// each). A layer a workload never calls reads 0.
func layerMetrics(rec *recorder, spans map[string]spanTotals, opMs, untracedOpsPerSec float64) []layerMetric {
	ops := float64(max(rec.ops, 1))
	c := rec.counters
	self := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			t += spans[n].SelfMs
		}
		return t
	}
	wallPer := func(name string) float64 { return ratio(spans[name].WallMs, float64(spans[name].Count)) }
	ms := func(name, span string) layerMetric { return layerMetric{name, "ms", self(span) / ops} }
	per := func(name, unit, num, den string) layerMetric { return layerMetric{name, unit, ratio(c[num], c[den])} }
	hitRatio := func(name, hits, misses string) layerMetric {
		return layerMetric{name, "frac", ratio(c[hits], c[hits]+c[misses])}
	}
	count := func(name string) layerMetric { return layerMetric{name, "count", c[name]} }
	overhead := 0.0
	if untracedOpsPerSec > 0 {
		overhead = 1 - rec.opsPerSec()/untracedOpsPerSec
	}
	sessionCalls := float64(spans["session.stage"].Count)
	return []layerMetric{
		// frontend: parser, lexer, sem and types.
		ms("frontend.parse_ms", "frontend.parse"),
		ms("frontend.check_ms", "frontend.check"),
		{"frontend.lines_per_ms", "lines/ms", ratio(c["frontend.lines"], self("frontend.parse", "frontend.check"))},
		// ir: lowering to the parallel flow graph.
		ms("ir.lower_ms", "ir.lower"),
		{"ir.instrs", "count", c["ir.instrs"] / ops},
		// flowinsens: the tier-0 answer; per call.
		ms("flowinsens.solve_ms", "flowinsens.solve"),
		per("flowinsens.iterations", "count", "flowinsens.iterations", "flowinsens.calls"),
		per("flowinsens.edges", "count", "flowinsens.edges", "flowinsens.calls"),
		// core: the fixpoint and the packages it drives; counts per
		// engine result.
		ms("core.analyze_ms", "core.analyze"),
		{"core.share", "frac", ratio(self("core.analyze", "session.run"), opMs)},
		per("core.contexts", "count", "core.contexts", "core.results"),
		per("core.rounds", "count", "core.rounds", "core.rounds_n"),
		per("core.proc_analyses", "count", "core.proc_analyses", "core.results"),
		per("core.memo_hits", "count", "core.memo_hits", "core.results"),
		per("core.memo_misses", "count", "core.memo_misses", "core.results"),
		hitRatio("core.memo_hit_ratio", "core.memo_hits", "core.memo_misses"),
		count("core.fastpath_runs"),
		{"core.alloc_mb", "MiB", ratio(c["core.alloc_bytes"], float64(spans["core.analyze"].Count)) / (1 << 20)},
		// race: the race client; races per detection.
		ms("race.detect_ms", "race.detect"),
		{"race.races", "count", ratio(c["race.races"], float64(spans["race.detect"].Count)+c["race.queries"])},
		// session: incremental sessions and their artifact store.
		{"session.update_ms", "ms", ratio(spans["session.stage"].WallMs+spans["flowinsens.solve"].WallMs+spans["session.run"].WallMs, sessionCalls)},
		ms("session.stage_ms", "session.stage"),
		ms("session.run_ms", "session.run"),
		{"session.store_ms", "ms", self("store.get", "store.put") / ops},
		{"session.run_alloc_mb", "MiB", ratio(c["session.run_alloc_bytes"], sessionCalls) / (1 << 20)},
		per("session.procs_parsed", "count", "session.procs_parsed", "session.updates"),
		per("session.procs_reused", "count", "session.procs_reused", "session.updates"),
		per("session.seed_hits", "count", "session.seed_hits", "session.updates"),
		per("session.seed_misses", "count", "session.seed_misses", "session.updates"),
		hitRatio("session.seed_hit_ratio", "session.seed_hits", "session.seed_misses"),
		count("session.cold_compiles"),
		per("store.hit_ratio.ast", "frac", "store.hits.ast", "store.probes.ast"),
		per("store.hit_ratio.res", "frac", "store.hits.res", "store.probes.res"),
		per("store.hit_ratio.sum", "frac", "store.hits.sum", "store.probes.sum"),
		per("store.len", "count", "store.len", "store.stores"),
		// server: mtpad's HTTP API, per request of each kind.
		{"server.update_ms", "ms", wallPer("server.update")},
		{"server.refinement_wait_ms", "ms", wallPer("server.refinement_wait")},
		{"server.query_ms", "ms", wallPer("server.query")},
		count("server.rejected_429"),
		count("server.timeouts"),
		count("server.refinements_cancelled"),
		// runtime: the Go collector and allocator over the measured ops.
		{"runtime.gc_cpu_frac", "frac", ratio(rec.rt.gcCPU, rec.rt.busyCPU)},
		{"runtime.alloc_mb_per_op", "MiB", float64(rec.rt.allocBytes) / (1 << 20) / ops},
		{"runtime.gc_cycles_per_op", "count", float64(rec.rt.gcCycles) / ops},
		// The cost of tracing itself: traced against untraced ops_per_s.
		{"trace.overhead_frac", "frac", overhead},
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
