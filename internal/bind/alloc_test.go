//go:build !race

// Allocation budgets for datapath construction. AllocsPerRun counts are
// not meaningful under the race detector, so these run in the race-free
// CI lane only.

package bind_test

import (
	"testing"

	"pchls/internal/bind"
	"pchls/internal/core"
	"pchls/internal/gen"
	"pchls/internal/sched"
)

// stitchedDesign synthesizes the layered n=1000 connected scaling tier
// (about 1400 nodes, min-cut partitioned and stitched) at its published
// constraint point.
func stitchedDesign(t *testing.T) *core.Design {
	t.Helper()
	cfg, err := gen.PresetConfig(gen.PresetLayered, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Connect = true
	inst := gen.NewInstance(2000, gen.InstanceConfig{Graph: cfg})
	asap, err := sched.ASAP(inst.Graph, sched.UniformFastest(inst.Library))
	if err != nil {
		t.Fatal(err)
	}
	cons := core.Constraints{Deadline: asap.Length() + asap.Length()/2, PowerMax: asap.PeakPower() * 0.7}
	d, err := core.Synthesize(inst.Graph, inst.Library, cons, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Stats.Regions < 2 {
		t.Fatalf("design was not stitched (%d regions)", d.Stats.Regions)
	}
	return d
}

// TestBuildStitchedDesignAllocs pins the allocation count of one Build on
// a stitched design: the scratch buffers, grown once to their final size,
// and the returned datapath with one flat array behind all register value
// lists (14 on this design; the map-based Build allocated per producer,
// per operand port and per register, 1553). A reused Scratch evaluates the
// same design with none.
func TestBuildStitchedDesignAllocs(t *testing.T) {
	d := stitchedDesign(t)
	cm := bind.DefaultCostModel()
	var dp *bind.Datapath
	got := testing.AllocsPerRun(5, func() {
		var err error
		if dp, err = bind.Build(d.Graph, d.Schedule, d.FUs, d.FUOf, cm); err != nil {
			t.Fatal(err)
		}
	})
	if dp.TotalArea() != d.Area() {
		t.Fatalf("Build area %g, design area %g", dp.TotalArea(), d.Area())
	}
	const budget = 20
	if got > budget {
		t.Fatalf("Build on %d nodes allocates %.0f/run, budget %d", d.Graph.N(), got, budget)
	}
	t.Logf("Build on %d nodes: %.0f allocs/run", d.Graph.N(), got)

	var sc bind.Scratch
	if _, err := sc.Eval(d.Graph, d.Schedule, d.FUs, d.FUOf, cm); err != nil {
		t.Fatal(err)
	}
	got = testing.AllocsPerRun(5, func() {
		if _, err := sc.Eval(d.Graph, d.Schedule, d.FUs, d.FUOf, cm); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("reused Scratch.Eval allocates %.1f/run, want 0", got)
	}
}
