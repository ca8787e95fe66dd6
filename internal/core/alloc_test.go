//go:build !race

// Allocation-regression tests for the synthesize hot path. AllocsPerRun
// counts are not meaningful under the race detector, so these run in the
// race-free CI lane only.

package core

import (
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// TestBestDecisionSteadyStateAllocs pins the allocation count of one warm
// bestDecision iteration on a large benchmark: the flat window table, the
// scheduler arena and the lookup tables must hold — the only allocations
// left are the dirty-subset scheduler pair behind WindowsDirty (schedule
// shells, start arrays, the window slice) plus cache entries for
// candidates the last commit invalidated.
func TestBestDecisionSteadyStateAllocs(t *testing.T) {
	lib := library.Table1()
	g := bench.Elliptic()
	asap, err := sched.ASAP(g, sched.UniformFastest(lib))
	if err != nil {
		t.Fatal(err)
	}
	cons := Constraints{Deadline: asap.Length() + 3, PowerMax: asap.PeakPower() * 0.8}
	st, err := newState(g, lib, cons, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.refineInitialModules(); err != nil {
		t.Fatal(err)
	}
	// Advance into the warm regime: a few committed decisions with their
	// post-commit probes, exactly as Synthesize drives the loop.
	for i := 0; i < 6; i++ {
		dec, ok := st.bestDecision()
		if !ok {
			t.Fatalf("step %d: no decision", i)
		}
		st.commit(dec)
		probe, err := st.currentPASAP()
		if err != nil {
			t.Fatal(err)
		}
		st.noteProbe(dec, probe)
	}
	if !st.eng.warm {
		t.Fatal("engine not warm after 6 commits")
	}
	got := testing.AllocsPerRun(20, func() {
		if _, ok := st.bestDecision(); !ok {
			t.Fatal("no decision")
		}
	})
	// A repeated warm iteration is fully served from the flat window
	// table, the override cache and the scheduler arena: zero allocations.
	// The pre-optimization map-of-maps path allocated several hundred per
	// iteration; a small budget leaves headroom for runtime noise only.
	const max = 8
	if got > max {
		t.Fatalf("warm bestDecision allocates %.1f/run, budget %d", got, max)
	}
	t.Logf("warm bestDecision: %.1f allocs/run", got)
}

// TestShiftMergeRejectedTrialAllocs pins the allocation count of rejected
// merge trials on a stitched design at steady state: zero. The state is
// rebuilt from a min-cut design whose stitch already ran every merge pass
// to its fixpoint, so every shift-merge and plain merge trial is rejected
// and rolled back — through re-timing, the trial evaluation (every check
// of finish plus the exact area) and the engine rebuild — in buffers the
// state owns. Each trial used to build and discard a full Design.
func TestShiftMergeRejectedTrialAllocs(t *testing.T) {
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
	cons := Constraints{Deadline: asap.Length() + asap.Length()/2, PowerMax: asap.PeakPower() * 0.7}
	d, err := Synthesize(inst.Graph, inst.Library, cons, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Stats.Regions < 2 {
		t.Fatalf("design was not stitched (%d regions)", d.Stats.Regions)
	}
	all := make([]cdfg.NodeID, d.Graph.N())
	for i := range all {
		all[i] = cdfg.NodeID(i)
	}
	// The commit log's instance indices predate the stitch's merges.
	whole := *d
	whole.Decisions = nil
	st, err := stitchState(d.Graph, d.Library, cons, Config{}, [][]cdfg.NodeID{all}, nil, []*Design{&whole}, Stats{})
	if err != nil {
		t.Fatal(err)
	}
	area, err := st.evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if area != d.Area() {
		t.Fatalf("evaluate: area %g, design area %g", area, d.Area())
	}
	for name, pass := range map[string]func() bool{
		"shiftMergePass": st.shiftMergePass,
		"mergePass":      func() bool { n := len(st.fus); st.mergePass(); return len(st.fus) != n },
		"evaluate":       func() bool { _, err := st.evaluate(); return err != nil },
	} {
		if pass() { // warm-up: grows every buffer once
			t.Fatalf("%s changed the fixpoint design", name)
		}
		got := testing.AllocsPerRun(2, func() {
			if pass() {
				t.Fatalf("%s changed the fixpoint design", name)
			}
		})
		if got != 0 {
			t.Errorf("%s: %.1f allocs/run, want 0", name, got)
		}
	}
}
