//go:build !race

// Allocation-regression tests for the scheduler hot path. AllocsPerRun
// counts are not meaningful under the race detector (the runtime inserts
// extra allocations), so these run in the race-free CI lane only.

package sched

import (
	"testing"

	"pchls/internal/bench"
)

// TestPASAPSteadyStateAllocs pins the steady-state allocation count of a
// full PASAP run with arena and tables: the returned Schedule shell and
// its Start slice, nothing else. A regression here multiplies by the
// ~10^3 scheduler runs of every synthesis.
func TestPASAPSteadyStateAllocs(t *testing.T) {
	g := bench.Elliptic()
	opts, bind := hotOptions(g, 20)
	// Warm the arena (topo order, profile, order buffers).
	if _, err := PASAP(g, bind, opts); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := PASAP(g, bind, opts); err != nil {
			t.Fatal(err)
		}
	})
	const max = 2 // Schedule struct + Start slice
	if got > max {
		t.Fatalf("PASAP steady state allocates %.1f/run, budget %d", got, max)
	}
}

// TestPASAPMemoMissAllocs pins the same budget when the critical-first
// order memo misses on every run: the Delays table alternates between
// two single-node overrides, so each run recomputes the order and copies
// the table into the memo's recycled buffer.
func TestPASAPMemoMissAllocs(t *testing.T) {
	g := bench.Elliptic()
	opts, bind := hotOptions(g, 20)
	tables := [2][]int{opts.Delays, append([]int(nil), opts.Delays...)}
	v := g.N() / 2
	tables[1][v]++
	run := 0
	pasap := func() {
		opts.Delays = tables[run%2]
		run++
		if _, err := PASAP(g, bind, opts); err != nil {
			t.Fatal(err)
		}
	}
	pasap()
	pasap()
	got := testing.AllocsPerRun(50, pasap)
	const max = 2 // Schedule struct + Start slice
	if got > max {
		t.Fatalf("PASAP with a missed order memo allocates %.1f/run, budget %d", got, max)
	}
}

// TestPALAPSteadyStateAllocs pins the steady-state allocation count of a
// full PALAP run: the forward Schedule shell and its Start slice. The
// reversed graph, all conversion buffers and the reversed run's schedule
// shell live in the arena.
func TestPALAPSteadyStateAllocs(t *testing.T) {
	g := bench.Elliptic()
	opts, bind := hotOptions(g, 20)
	if _, err := PALAP(g, bind, 40, opts); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := PALAP(g, bind, 40, opts); err != nil {
			t.Fatal(err)
		}
	})
	const max = 2 // Schedule struct + Start slice
	if got > max {
		t.Fatalf("PALAP steady state allocates %.1f/run, budget %d", got, max)
	}
}

// TestWindowsDirtySteadyStateAllocs pins the warm-path window
// re-derivation: one pasap + one palap pair plus the returned window
// slice.
func TestWindowsDirtySteadyStateAllocs(t *testing.T) {
	g := bench.Elliptic()
	opts, bind := hotOptions(g, 20)
	prev, err := Windows(g, bind, 40, opts)
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, g.N())
	if _, err := WindowsDirty(g, bind, 40, opts, prev, dirty); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := WindowsDirty(g, bind, 40, opts, prev, dirty); err != nil {
			t.Fatal(err)
		}
	})
	const max = 5 // pasap (2) + palap (2) + the []Window result
	if got > max {
		t.Fatalf("WindowsDirty steady state allocates %.1f/run, budget %d", got, max)
	}
}
