package core

import (
	"math"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// TestEngineWorkCounters pins the engine's work exactly: full scheduler
// runs, pinned incremental runs and window-cache hits for every paper
// benchmark at BenchmarkSynthesize's constraint point (deadline = critical
// path + 3, power cap = 80% of the unconstrained peak, loosened in 10%
// steps until feasible). The counters are deterministic, so any change to
// the evaluation path's work shows up here; the rows of the graphs of 24
// nodes or more equal results/BENCH_synthesize.json.
func TestEngineWorkCounters(t *testing.T) {
	lib := library.Table1()
	for _, tc := range []struct {
		name               string
		full, pinned, hits int64
	}{
		{"hal", 130, 22, 22},
		{"cosine", 1398, 72, 144},
		{"elliptic", 769, 60, 230},
		{"fir16", 973, 50, 43},
		{"ar", 514, 26, 115},
		{"diffeq2", 269, 32, 73},
		{"fft8", 1053, 70, 154},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := bench.ByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			asap, err := sched.ASAP(g, sched.UniformFastest(lib))
			if err != nil {
				t.Fatal(err)
			}
			cons := Constraints{Deadline: asap.Length() + 3, PowerMax: asap.PeakPower() * 0.8}
			d, err := Synthesize(g, lib, cons, Config{})
			for err != nil {
				cons.PowerMax *= 1.1
				if cons.PowerMax > asap.PeakPower()*2 {
					t.Fatalf("no feasible cap found: %v", err)
				}
				d, err = Synthesize(g, lib, cons, Config{})
			}
			s := d.Stats
			if s.SchedulerRuns != tc.full || s.IncrementalRuns != tc.pinned || s.WindowCacheHits != tc.hits {
				t.Errorf("full/pinned/hits = %d/%d/%d, want %d/%d/%d",
					s.SchedulerRuns, s.IncrementalRuns, s.WindowCacheHits, tc.full, tc.pinned, tc.hits)
			}
		})
	}
}

// TestEngineProfileAndReservations white-boxes the incremental
// bookkeeping: after each commit of a real synthesis prefix, the engine's
// profile must equal the from-scratch committedProfile and its
// reservation lists must equal the re-derived ones; after an uncommit the
// profile must return to (numerically) zero deviation.
func TestEngineProfileAndReservations(t *testing.T) {
	lib := library.Table1()
	g := bench.HAL()
	cons := Constraints{Deadline: 17, PowerMax: 20}
	st, err := newState(g, lib, cons, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.refineInitialModules(); err != nil {
		t.Fatal(err)
	}
	check := func(step int) {
		want := committedProfile(st, cons.Deadline)
		for c := range want {
			if math.Abs(st.eng.profile[c]-want[c]) > 1e-9 {
				t.Fatalf("step %d: profile[%d] = %g, want %g", step, c, st.eng.profile[c], want[c])
			}
		}
		if len(st.eng.resv) != len(st.fus) {
			t.Fatalf("step %d: %d reservation lists for %d instances", step, len(st.eng.resv), len(st.fus))
		}
		for f := range st.fus {
			var legacy []interval
			for _, op := range st.fus[f].ops {
				m := st.lib.Module(st.moduleOf[op])
				legacy = append(legacy, interval{st.start[op], st.start[op] + m.Delay})
			}
			got := st.eng.resv[f]
			if len(got) != len(legacy) {
				t.Fatalf("step %d: instance %d has %d reservations, want %d", step, f, len(got), len(legacy))
			}
			for k := range got {
				if got[k] != legacy[k] {
					t.Fatalf("step %d: instance %d reservation %d = %+v, want %+v", step, f, k, got[k], legacy[k])
				}
			}
		}
	}
	var last Decision
	for step := 0; step < 5; step++ {
		dec, ok := st.bestDecision()
		if !ok {
			t.Fatalf("step %d: no decision", step)
		}
		st.commit(dec)
		last = dec
		check(step)
	}
	st.uncommit(last)
	check(-1)
}

// committedProfile re-derives from scratch the per-cycle power drawn by
// the committed operations over [0, horizon).
func committedProfile(st *state, horizon int) []float64 {
	p := make([]float64, horizon)
	for i, c := range st.committed {
		if !c {
			continue
		}
		for cyc := st.start[i]; cyc < st.start[i]+st.delays[i] && cyc < horizon; cyc++ {
			p[cyc] += st.powers[i]
		}
	}
	return p
}

// TestStatsAdd checks the field-wise aggregation used by the sweep
// surfaces.
func TestStatsAdd(t *testing.T) {
	a := Stats{SchedulerRuns: 1, IncrementalRuns: 2, WindowCacheHits: 3, WindowCacheMisses: 4,
		WindowInvalidations: 5, FullInvalidations: 6, Fallbacks: 7, ProfileProbes: 8}
	b := Stats{SchedulerRuns: 10, IncrementalRuns: 20, WindowCacheHits: 30, WindowCacheMisses: 40,
		WindowInvalidations: 50, FullInvalidations: 60, Fallbacks: 70, ProfileProbes: 80}
	got := a.Add(b)
	want := Stats{SchedulerRuns: 11, IncrementalRuns: 22, WindowCacheHits: 33, WindowCacheMisses: 44,
		WindowInvalidations: 55, FullInvalidations: 66, Fallbacks: 77, ProfileProbes: 88}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	if s := got.String(); s == "" {
		t.Fatal("String() returned empty")
	}
}
