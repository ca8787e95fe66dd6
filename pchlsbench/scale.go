package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// scaleMix follows the BenchmarkScaling instance recipe: generated preset
// graphs of 100 to 1000 computation nodes, deadline 1.5x the fastest-ASAP
// length, cap 0.7x the unconstrained ASAP peak (loosened by 20% steps in
// set-up only if the point is infeasible). An op is one single-pass
// Synthesize with the auto Config, then verify.Check. The tiers cross
// every auto threshold of the engine. One caller runs a closed loop of
// whole passes.
//
// The instances are the published scaling tiers (generator seed 1000 +
// nodes, as in BenchmarkScaling); the workload seed shuffles the tier
// order of every pass. Synthesis time of one generated instance varies
// two- to three-fold between generator seeds, so six seed-drawn instances
// would make ops_per_s a property of the seed rather than of the engine.
type scaleMix struct {
	seed  int64
	tiers []scaleInstance
	// passArea and passFeasible describe the first complete pass.
	passArea     float64
	passFeasible int
	passDone     bool
}

type scaleTier struct {
	name    string
	preset  gen.Preset
	nodes   int
	connect bool
}

var scaleTiers = []scaleTier{
	{"layered-n100", gen.PresetLayered, 100, false},
	{"layered-n300", gen.PresetLayered, 300, false},
	{"blocks-n300", gen.PresetBlocks, 300, false},
	{"blocks-n1000", gen.PresetBlocks, 1000, false},
	{"layered-n1000-connected", gen.PresetLayered, 1000, true},
	{"mixed-n1000-connected", gen.PresetMixed, 1000, true},
}

type scaleInstance struct {
	tier      scaleTier
	g         *cdfg.Graph
	lib       *library.Library
	cons      core.Constraints
	loosened  int     // 20% cap loosenings set-up needed
	area      float64 // area of the set-up probe's design
	regime    string  // code path of the set-up probe's design
	graphJSON []byte  // filled on first use by the traced phase
}

func (w *scaleMix) setup(seed int64, _ int, tr *tracer) error {
	if err := w.generate(seed, tr); err != nil {
		return err
	}
	return w.probeFeasible()
}

// generate derives every tier's instance and constraint point.
func (w *scaleMix) generate(seed int64, tr *tracer) error {
	w.seed = seed
	w.tiers = w.tiers[:0]
	for _, tier := range scaleTiers {
		cfg, err := gen.PresetConfig(tier.preset, tier.nodes)
		if err != nil {
			return err
		}
		cfg.Connect = tier.connect
		s := tr.start("gen.instance", 0, 0)
		inst := gen.NewInstance(int64(1000+tier.nodes), gen.InstanceConfig{Graph: cfg})
		tr.end(s)
		asap, err := sched.ASAP(inst.Graph, sched.UniformFastest(inst.Library))
		if err != nil {
			return fmt.Errorf("%s: %w", tier.name, err)
		}
		w.tiers = append(w.tiers, scaleInstance{
			tier: tier, g: inst.Graph, lib: inst.Library,
			cons: core.Constraints{Deadline: asap.Length() + asap.Length()/2, PowerMax: asap.PeakPower() * 0.7},
		})
	}
	return nil
}

// probeFeasible synthesizes every tier once, loosening an infeasible cap
// by 20% steps (dropping it after three), and keeps the design's area as
// the reference the ops must reproduce.
func (w *scaleMix) probeFeasible() error {
	for i := range w.tiers {
		in := &w.tiers[i]
		for {
			d, err := core.Synthesize(in.g, in.lib, in.cons, core.Config{})
			if err == nil {
				in.area, in.regime = d.Area(), regime(d)
				break
			}
			if !errors.Is(err, core.ErrInfeasible) || in.cons.PowerMax <= 0 {
				return fmt.Errorf("%s: feasibility probe: %w", in.tier.name, err)
			}
			in.loosened++
			in.cons.PowerMax *= 1.2
			if in.loosened > 3 {
				in.cons.PowerMax = 0
			}
		}
	}
	return nil
}

// order returns the tier order of the pass-th pass.
func (w *scaleMix) order(pass int) []int {
	r := rand.New(rand.NewSource(w.seed*7919 + int64(pass)))
	return r.Perm(len(w.tiers))
}

func (w *scaleMix) inputs() inputInfo {
	h := sha256.New()
	fmt.Fprintf(h, "scale-mix\n")
	tiers := make([]map[string]any, 0, len(w.tiers))
	nodes := []int{}
	for _, in := range w.tiers {
		fmt.Fprintf(h, "%s T=%d P=%g\n%s%s", in.tier.name, in.cons.Deadline, in.cons.PowerMax, in.g.Text(), in.lib.Text())
		nodes = append(nodes, in.g.N())
		tiers = append(tiers, map[string]any{
			"tier": in.tier.name, "nodes": in.g.N(), "edges": in.g.E(), "components": len(in.g.Components()),
			"regime": in.regime, "deadline": in.cons.Deadline, "power_max": in.cons.PowerMax, "loosened": in.loosened,
		})
	}
	for pass := 0; pass < 4; pass++ {
		fmt.Fprintf(h, "%v\n", w.order(pass))
	}
	lo, hi := minMax(nodes)
	return inputInfo{
		Digest: fmt.Sprintf("sha256:%x", h.Sum(nil)),
		Properties: map[string]any{
			"points_per_pass": len(w.tiers),
			"nodes_min":       lo,
			"nodes_max":       hi,
			"tiers":           tiers,
			"caller":          "one closed-loop caller, whole passes; engine pool at GOMAXPROCS",
		},
	}
}

func (w *scaleMix) run(b budget, tr *tracer) *phase {
	var t tally
	var eng engineTally
	var probeTime time.Duration
	mark := startPhase()
	for pass := 0; pass == 0 || b.more(t.attempted); pass++ {
		area, feasible := 0.0, 0
		for _, i := range w.order(pass) {
			in := &w.tiers[i]
			mark.cal.hold()
			op := tr.nextOp()
			span := tr.start("op", 0, op)
			start := time.Now()
			d, err := w.op(in, tr, span, op)
			elapsed := time.Since(start)
			tr.end(span)
			t.record(elapsed, err)
			if err != nil {
				mark.cal.release()
				continue
			}
			area += d.Area()
			feasible++
			eng.add(d)
			if tr != nil {
				ps := time.Now()
				if in.graphJSON == nil {
					in.graphJSON, _ = json.Marshal(in.g)
				}
				probe(tr, op, probeInput{g: in.g, lib: in.lib, cons: in.cons, singlePass: true, graphJSON: in.graphJSON, design: d},
					probeSet{parse: true, key: true, sched: true, cutParts: cutParts(d), bind: true, lifetime: true, designJSON: true})
				probeTime += time.Since(ps)
			}
			mark.cal.release()
		}
		if !w.passDone {
			w.passArea, w.passFeasible, w.passDone = area, feasible, true
		}
	}
	ph := mark.finish(&t, probeTime)
	eng.into(ph.layer)
	return ph
}

// op synthesizes one tier's instance and checks the design, which must
// also reproduce the set-up probe's area.
func (w *scaleMix) op(in *scaleInstance, tr *tracer, parent, op int) (*core.Design, error) {
	s := tr.start("core.synthesize", parent, op)
	d, err := core.Synthesize(in.g, in.lib, in.cons, core.Config{})
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", in.tier.name, err)
	}
	s = tr.start("verify.check", parent, op)
	err = verifyDesign(d, in.cons)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: design rejected: %v", in.tier.name, err)
	}
	if d.Area() != in.area {
		return nil, fmt.Errorf("%s: area %g differs from the set-up probe's %g", in.tier.name, d.Area(), in.area)
	}
	return d, nil
}

func (w *scaleMix) sample() probeInput {
	in := w.tiers[0]
	return probeInput{g: in.g, lib: in.lib, cons: in.cons, singlePass: true}
}

func (w *scaleMix) reset() error { return nil }

// qor reports the first complete pass. Set-up loosens each tier's cap
// until it is feasible, so an infeasible op is a failure here.
func (w *scaleMix) qor() (float64, float64) {
	return w.passArea, float64(w.passFeasible) / float64(len(w.tiers))
}

func (w *scaleMix) close() {}
