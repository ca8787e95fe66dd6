package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pchls/internal/cdfg"
	"pchls/internal/gen"
)

// TestArenaOrderMemo is a differential test of the arena's memoized
// critical-first orders and its recycled reversed schedule shell. One
// arena serves a long mixed sequence of PASAP, PALAP, PASAPDirty and
// WindowsDirty calls whose Delays/Powers tables are single-node overrides
// written in place into one reused buffer — the synthesizer's pattern, in
// which the table's contents change while its address does not — with
// FixedStarts and pins mixed in. Every call must return exactly what the
// same call returns without an arena: the same starts, or the same error.
func TestArenaOrderMemo(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	hits, calls := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		inst := gen.NewInstance(seed, gen.InstanceConfig{
			Graph:   gen.GraphConfig{Nodes: 4 + int(seed%20), MaxWidth: 3},
			Library: gen.LibraryConfig{ModulesPerOp: 3, DelayMax: 3},
		})
		g, lib := inst.Graph, inst.Library
		n := g.N()
		rng := rand.New(rand.NewSource(seed))
		bind := UniformFastest(lib)
		baseD, baseP := make([]int, n), make([]float64, n)
		for _, node := range g.Nodes() {
			m := bind(node)
			baseD[node.ID], baseP[node.ID] = m.Delay, m.Power
		}
		ovD, ovP := slices.Clone(baseD), slices.Clone(baseP)
		fixed := make([]int, n)
		dirty := make([]bool, n)
		arena := NewArena(g)
		var prevEarly *Schedule
		var prevWin []Window

		for step := 0; step < 80; step++ {
			// Rewrite the shared table in place: keep it (a memo hit when
			// the direction saw it last), reset it to the base, or
			// override one node with another candidate module.
			switch rng.Intn(3) {
			case 0:
			case 1:
				copy(ovD, baseD)
				copy(ovP, baseP)
			default:
				copy(ovD, baseD)
				copy(ovP, baseP)
				v := rng.Intn(n)
				cands := lib.Candidates(g.Node(cdfg.NodeID(v)).Op)
				m := lib.Module(cands[rng.Intn(len(cands))])
				ovD[v], ovP[v] = m.Delay, m.Power
			}
			for i := range fixed {
				fixed[i] = -1
			}
			if prevEarly != nil && rng.Intn(3) == 0 {
				v := rng.Intn(n)
				fixed[v] = prevEarly.Start[v] + rng.Intn(2)
			}
			for i := range dirty {
				dirty[i] = rng.Intn(3) == 0
			}
			powerMax := inst.PowerMax
			if rng.Intn(5) == 0 {
				powerMax = 0
			}
			deadline := inst.Deadline + rng.Intn(3)
			opts := Options{PowerMax: powerMax, FixedStarts: fixed, Delays: ovD, Powers: ovP}
			withArena := opts
			withArena.Arena = arena
			hit := arena.fwd.ok && slices.Equal(arena.fwd.delays, ovD)

			var label, want, got string
			switch kind := rng.Intn(4); {
			case kind == 0 || prevEarly == nil:
				label = "PASAP"
				ws, werr := PASAP(g, bind, opts)
				want = outcome(ws, werr)
				got = outcome(PASAP(g, bind, withArena))
				if werr == nil {
					prevEarly = ws
				}
			case kind == 1:
				label = "PALAP"
				hit = arena.bwd.ok && slices.Equal(arena.bwd.delays, ovD)
				want = outcome(PALAP(g, bind, deadline, opts))
				got = outcome(PALAP(g, bind, deadline, withArena))
			case kind == 2:
				label = "PASAPDirty"
				want = outcome(PASAPDirty(g, bind, opts, prevEarly, dirty))
				got = outcome(PASAPDirty(g, bind, withArena, prevEarly, dirty))
			default:
				label = "WindowsDirty"
				if prevWin == nil {
					w, err := Windows(g, bind, deadline, opts)
					if err != nil {
						continue
					}
					prevWin = w
				}
				w, werr := WindowsDirty(g, bind, deadline, opts, prevWin, dirty)
				want = windowsOutcome(w, werr)
				got = windowsOutcome(WindowsDirty(g, bind, deadline, withArena, prevWin, dirty))
			}
			calls++
			if hit {
				hits++
			}
			if got != want {
				t.Fatalf("seed %d step %d %s: with arena %s, without %s", seed, step, label, got, want)
			}
		}
	}
	// The sequence must exercise both memo hits and misses.
	if hits == 0 || hits == calls {
		t.Fatalf("%d memo hits in %d calls: the sequence does not exercise the memo", hits, calls)
	}
	t.Logf("%d calls, %d on a memoized table", calls, hits)
}

// outcome renders a scheduler result for comparison: the start array or
// the error.
func outcome(s *Schedule, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(s.Start)
}

// windowsOutcome renders a window derivation for comparison.
func windowsOutcome(ws []Window, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(ws)
}
