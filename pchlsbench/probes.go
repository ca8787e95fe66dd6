package main

import (
	"encoding/json"
	"sync"

	"pchls/internal/bench"
	"pchls/internal/bind"
	"pchls/internal/cache"
	"pchls/internal/cdfg"
	"pchls/internal/compat"
	"pchls/internal/core"
	"pchls/internal/explore"
	"pchls/internal/library"
	"pchls/internal/sched"
	"pchls/internal/verify"
)

// regime names the code path a synthesis took, read from its design's
// work counters: the window derivation (exhaustive scheduler pairs, or SDC
// bounds) and the decomposition (none, weakly connected components, or a
// min-cut of a connected graph). Whether the incremental engine ran is not
// visible in the counters of an SDC run, so the label leaves it out.
func regime(d *core.Design) string {
	st := d.Stats
	windows := "exhaustive"
	if st.SDCDerivations > 0 {
		windows = "sdc"
	}
	split := "mono"
	switch {
	case st.CutEdges > 0:
		split = "mincut"
	case st.Regions > 1:
		split = "components"
	}
	return windows + "/" + split
}

// cutParts is the part count of a design stitched from a min-cut, and 0
// for any other design.
func cutParts(d *core.Design) int {
	if d == nil || d.Stats.CutEdges == 0 {
		return 0
	}
	return int(d.Stats.Regions)
}

// verifyDesign checks d with the engine-independent validator against the
// constraints the benchmark asked for (not the ones the design reports).
func verifyDesign(d *core.Design, cons core.Constraints) error {
	in := core.VerifyInput(d)
	in.Deadline = cons.Deadline
	in.PowerMax = cons.PowerMax
	return verify.Check(in)
}

// probeInput is one op's input as the layer probes see it.
type probeInput struct {
	name       string // built-in benchmark name, if the graph is one
	g          *cdfg.Graph
	lib        *library.Library
	cons       core.Constraints
	singlePass bool
	graphJSON  []byte       // the graph as a request carries it
	design     *core.Design // the op's design, if it produced one
}

// probeSet selects the probes a workload runs per op; the calls its op
// already makes are left out.
type probeSet struct {
	byName, parse, key, sched, bind, lifetime, designJSON, check bool
	// cutParts, when above 0, times a balanced cut of the graph into that
	// many parts.
	cutParts int
	// only, when non-nil, restricts the probes to these span names.
	only map[string]bool
}

// probe times single calls into the layers below the op's entry point. It
// runs under a root span named "probe" that carries the op's id, so the
// op span's self time excludes it.
func probe(tr *tracer, op int, in probeInput, ps probeSet) {
	if tr == nil {
		return
	}
	root := tr.start("probe", 0, op)
	defer tr.end(root)
	call := func(name string, fn func()) {
		if ps.only != nil && !ps.only[name] {
			return
		}
		id := tr.start(name, root, op)
		fn()
		tr.end(id)
	}
	if ps.byName && in.name != "" {
		call("bench.byname", func() { _, _ = bench.ByName(in.name) })
	}
	if ps.parse {
		if in.graphJSON == nil {
			in.graphJSON, _ = json.Marshal(in.g)
		}
		call("cdfg.parse_json", func() { _, _ = cdfg.ParseJSON(in.graphJSON) })
	}
	if ps.key {
		call("cache.key", func() { _ = cache.SynthesizeKey(in.g, in.lib, in.cons, in.singlePass) })
	}
	if ps.sched {
		probeSched(call, in)
	}
	if ps.cutParts > 0 {
		call("cdfg.mincut", func() { _, _, _ = in.g.PartitionBalanced(ps.cutParts) })
	}
	d := in.design
	if d == nil {
		return
	}
	if ps.bind {
		call("bind.build", func() { _, _ = bind.Build(d.Graph, d.Schedule, d.FUs, d.FUOf, bind.DefaultCostModel()) })
	}
	if ps.check {
		call("verify.check", func() { _ = verifyDesign(d, in.cons) })
	}
	if ps.designJSON {
		call("core.design_json", func() { _, _ = d.JSON() })
	}
	if ps.lifetime {
		if b, err := explore.DefaultBattery(in.g, in.lib, "kibam"); err == nil {
			prof := d.Schedule.Profile()
			call("power.lifetime", func() { _, _ = b.Lifetime(prof, 1<<20) })
		}
	}
}

// probeSched times one pasap and one palap pass under the fastest uniform
// binding and the op's cap, one SDC bound sweep, and — only where the op's
// design shows that synthesis used them (no SDC derivations) — the
// exhaustive windows and a from-scratch compatibility graph over them.
func probeSched(call func(string, func()), in probeInput) {
	g, lib, cons := in.g, in.lib, in.cons
	bnd := sched.UniformFastest(lib)
	opts := sched.Options{PowerMax: cons.PowerMax}
	call("sched.pasap", func() { _, _ = sched.PASAP(g, bnd, opts) })
	call("sched.palap", func() { _, _ = sched.PALAP(g, bnd, cons.Deadline, opts) })

	topo, err := g.TopoOrder()
	if err != nil {
		return
	}
	delays := make([]int, g.N())
	fixed := make([]int, g.N())
	for _, n := range g.Nodes() {
		delays[n.ID] = bnd(n).Delay
		fixed[n.ID] = -1
	}
	var out sched.SDCBounds
	call("sched.sdc", func() { sched.DeriveSDCBounds(g, topo, cons.Deadline, delays, fixed, nil, nil, &out) })

	if in.design == nil || in.design.Stats.SDCDerivations > 0 {
		return
	}
	var ws []sched.Window
	call("sched.windows", func() { ws, err = sched.Windows(g, bnd, cons.Deadline, opts) })
	if ws == nil && err == nil { // the windows call was filtered out
		ws, err = sched.Windows(g, bnd, cons.Deadline, opts)
	}
	if err != nil {
		return
	}
	// Every module gets the node's fastest-binding window where its power
	// fits under the cap: the compatibility build sees classic-sized
	// candidate sets without a scheduler pair per candidate.
	wf := func(v cdfg.NodeID, mi int) (sched.Window, bool) {
		return ws[v], cons.PowerMax <= 0 || lib.Module(mi).Power <= cons.PowerMax
	}
	call("compat.build", func() { _, _ = compat.Build(g, lib, wf) })
}

// engineTally accumulates the work counters of the designs a phase
// produced; safe for concurrent use.
type engineTally struct {
	mu        sync.Mutex
	designs   int
	locked    int
	decisions int
	st        core.Stats
}

func (e *engineTally) add(d *core.Design) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.designs++
	if d.Locked {
		e.locked++
	}
	e.decisions += len(d.Decisions)
	e.st = e.st.Add(d.Stats)
}

// into writes the per-design averages of the counters into layer.
func (e *engineTally) into(layer map[string]metric) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := float64(e.designs)
	per := func(name string, v int64) { layer[name] = metric{ratio(float64(v), n), "count/op"} }
	st := e.st
	per("sched.full_runs", st.SchedulerRuns)
	per("sched.pinned_runs", st.IncrementalRuns)
	per("sched.sdc_derivations", st.SDCDerivations)
	per("compat.patches", st.CompatPatches)
	per("core.window_invalidations", st.WindowInvalidations)
	per("core.full_invalidations", st.FullInvalidations)
	per("core.fallbacks", st.Fallbacks)
	per("core.profile_probes", st.ProfileProbes)
	per("core.decisions", int64(e.decisions))
	per("core.regions", st.Regions)
	per("core.region_repairs", st.RegionRepairs)
	per("core.partition_fallbacks", st.PartitionFallbacks)
	per("core.cut_edges", st.CutEdges)
	per("core.boundary_transfers", st.BoundaryTransfers)
	per("core.shared_cross_region", st.SharedCrossRegion)
	per("core.bound_tightenings", st.BoundTightenings)
	layer["core.window_cache_hit_ratio"] = metric{ratio(float64(st.WindowCacheHits), float64(st.WindowCacheHits+st.WindowCacheMisses)), "ratio"}
	layer["core.locked_ratio"] = metric{ratio(float64(e.locked), n), "ratio"}
	layer["core.designs"] = metric{n, "count"}
}
