package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"pchls/internal/bench"
	"pchls/internal/core"
	"pchls/internal/gen"
	"pchls/internal/server"
)

// spanMetrics maps each per-layer timing metric to the span it summarizes
// (the median span duration) and the unit it is reported in.
var spanMetrics = []struct {
	metric, span, unit string
}{
	{"bench.byname_us", "bench.byname", "us"},
	{"cdfg.parse_json_us", "cdfg.parse_json", "us"},
	{"cdfg.mincut_ms", "cdfg.mincut", "ms"},
	{"gen.instance_ms", "gen.instance", "ms"},
	{"sched.pasap_us", "sched.pasap", "us"},
	{"sched.palap_us", "sched.palap", "us"},
	{"sched.windows_ms", "sched.windows", "ms"},
	{"sched.sdc_us", "sched.sdc", "us"},
	{"compat.build_ms", "compat.build", "ms"},
	{"core.synthesize_ms", "core.synthesize", "ms"},
	{"core.design_json_us", "core.design_json", "us"},
	{"bind.build_us", "bind.build", "us"},
	{"verify.check_us", "verify.check", "us"},
	{"explore.pareto_ms", "explore.pareto", "ms"},
	{"power.lifetime_us", "power.lifetime", "us"},
	{"cache.key_us", "cache.key", "us"},
}

// counterMetrics lists the per-layer metrics a workload computes itself,
// with their units.
var counterMetrics = []struct{ metric, unit string }{
	{"sched.full_runs", "count/op"},
	{"sched.pinned_runs", "count/op"},
	{"sched.sdc_derivations", "count/op"},
	{"compat.patches", "count/op"},
	{"core.window_cache_hit_ratio", "ratio"},
	{"core.window_invalidations", "count/op"},
	{"core.full_invalidations", "count/op"},
	{"core.fallbacks", "count/op"},
	{"core.profile_probes", "count/op"},
	{"core.decisions", "count/op"},
	{"core.locked_ratio", "ratio"},
	{"core.regions", "count/op"},
	{"core.region_repairs", "count/op"},
	{"core.partition_fallbacks", "count/op"},
	{"core.cut_edges", "count/op"},
	{"core.boundary_transfers", "count/op"},
	{"core.shared_cross_region", "count/op"},
	{"core.bound_tightenings", "count/op"},
	{"cache.hit_ratio", "ratio"},
	{"cache.coalesced_ratio", "ratio"},
	{"server.hit_us_p50", "us"},
	{"server.miss_ms_p50", "ms"},
	{"server.hit_latency_share", "ratio"},
	{"server.miss_latency_share", "ratio"},
	{"server.scheduler_runs_per_miss", "count"},
	{"server.rejected", "count"},
	{"serve.repeat_share", "ratio"},
}

// perLayer derives the per-layer metrics of a traced run from its untraced
// phase, its traced phase and the spans. Layers the workload's ops never
// reach are measured by one companion probe on the workload's own inputs
// so that every metric is a measurement.
func perLayer(w workload, plain, traced *phase, tr *tracer) map[string]metric {
	companion(w, tr, traced)
	out := map[string]metric{}
	for _, m := range spanMetrics {
		us, _ := tr.medianUS(m.span)
		if m.unit == "ms" {
			us /= 1000
		}
		out[m.metric] = metric{us, m.unit}
	}
	for _, m := range counterMetrics {
		out[m.metric] = metric{traced.layer[m.metric].Value, m.unit}
	}
	out["runtime.gc_cycles_per_op"] = metric{ratio(float64(plain.gcCycles), float64(plain.attempted)), "count/op"}
	out["trace.overhead_ratio"] = metric{1 - traced.opsPerSecond()/plain.opsPerSecond(), "ratio"}
	out["trace.ops_per_s_untraced"] = metric{plain.opsPerSecond(), "1/s"}
	out["trace.ops_per_s_traced"] = metric{traced.opsPerSecond(), "1/s"}
	return out
}

// companionReps is how many times a companion probe repeats a cheap call.
const companionReps = 5

// companion measures the layers the traced phase did not reach on the
// workload's sample input: it looks the input up as a built-in benchmark,
// generates an instance of its size, explores a one-cell front around it,
// runs the op-level probes the workload skips, and serves it six times
// through an in-process daemon's handler, reading the server and cache
// metrics from the responses' status and X-Pchls-Cache headers as
// serve-mix does. Its spans sit under a root span named "companion".
func companion(w workload, tr *tracer, traced *phase) {
	in := w.sample()
	missing := map[string]bool{}
	for _, m := range spanMetrics {
		if _, n := tr.medianUS(m.span); n == 0 {
			missing[m.span] = true
		}
	}
	op := tr.nextOp()
	root := tr.start("companion", 0, op)
	defer tr.end(root)
	call := func(name string, fn func()) {
		if !missing[name] {
			return
		}
		for i := 0; i < companionReps; i++ {
			id := tr.start(name, root, op)
			fn()
			tr.end(id)
		}
	}
	name := in.name
	if name == "" {
		name = "hal"
	}
	call("bench.byname", func() { _, _ = bench.ByName(name) })
	call("gen.instance", func() {
		_ = gen.NewInstance(1, gen.InstanceConfig{Graph: gen.GraphConfig{Nodes: in.g.N()}})
	})
	call("explore.pareto", func() {
		_, _ = paretoReference(in.g, in.lib, []int{in.cons.Deadline}, []float64{in.cons.PowerMax})
	})
	in.design, _ = core.Synthesize(in.g, in.lib, in.cons, core.Config{})
	for i := 0; i < companionReps; i++ {
		probe(tr, op, in, probeSet{byName: true, parse: true, key: true, sched: true, cutParts: 2,
			bind: true, lifetime: true, designJSON: true, check: true, only: missing})
	}
	if _, ok := traced.layer["server.hit_us_p50"]; ok {
		return
	}
	h := server.New(server.Config{}).Handler()
	body := mustJSON(map[string]any{"graph": in.g, "deadline": in.cons.Deadline, "power_max": in.cons.PowerMax, "single_pass": in.singlePass})
	st := serveStats{byOutcome: map[string][]float64{}}
	for i := 0; i <= companionReps; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body))
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		runs, _ := strconv.ParseInt(rec.Header().Get("X-Pchls-Scheduler-Runs"), 10, 64)
		st.note(&serveReq{repeat: i > 0}, &response{rec.Code, rec.Body.Bytes()}, rec.Header().Get("X-Pchls-Cache"), runs, d)
	}
	st.into(traced.layer)
}
