package sched

import (
	"slices"

	"pchls/internal/cdfg"
)

// Arena is per-synthesis scratch storage for the schedulers. A single
// synthesis runs pasap/palap hundreds to thousands of times over the same
// graph; without an arena every run reallocates its topological-order
// buffers, its power profile, the reversed graph of the palap pass, and
// the pin/fixed conversion slices. An Arena, passed via Options.Arena,
// caches the graph-invariant artifacts (topological orders, the reversed
// graph) and recycles the per-run buffers, making the steady-state
// scheduler hot path allocation-free apart from the returned Schedule.
//
// An Arena is bound to one graph and is NOT safe for concurrent use: it
// must be owned by a single scheduler caller (the synthesizer gives each
// state its own). Schedulers silently ignore an arena whose graph does
// not match, so a misrouted arena can never corrupt results.
type Arena struct {
	g   *cdfg.Graph
	rev *cdfg.Graph // lazily built reverse of g, for palap

	topo  []cdfg.NodeID // cached topological order of g
	rtopo []cdfg.NodeID // cached topological order of rev

	// criticalFirstOrder scratch, and the memoized order of each
	// direction (fwd for g, bwd for rev).
	prio     []int
	indeg    []int
	ready    []cdfg.NodeID
	fwd, bwd orderMemo

	// pasapPinned scratch.
	profile  []float64
	fixedIDs []cdfg.NodeID

	// palapPinned scratch (distinct from the buffers the nested pasap run
	// on the reversed graph uses). rsched is the reversed run's schedule
	// shell: palap converts it to the forward frame and drops it before
	// the next run, so its Start buffer is recycled.
	rbase  []float64
	rfixed []int
	rpin   []int
	rsched Schedule

	// WindowsDirty pin scratch.
	pin []int
}

// NewArena returns an arena bound to g. All buffers are grown lazily.
func NewArena(g *cdfg.Graph) *Arena { return &Arena{g: g} }

// owns reports whether the arena's cached artifacts apply to g.
func (a *Arena) owns(g *cdfg.Graph) bool {
	return a != nil && (g == a.g || (a.rev != nil && g == a.rev))
}

// topoFor returns the cached topological order of g (computing it once),
// or a fresh one when g is foreign to the arena.
func (a *Arena) topoFor(g *cdfg.Graph) ([]cdfg.NodeID, error) {
	switch {
	case a != nil && g == a.g:
		if a.topo == nil {
			t, err := g.TopoOrder()
			if err != nil {
				return nil, err
			}
			a.topo = t
		}
		return a.topo, nil
	case a != nil && a.rev != nil && g == a.rev:
		if a.rtopo == nil {
			t, err := g.TopoOrder()
			if err != nil {
				return nil, err
			}
			a.rtopo = t
		}
		return a.rtopo, nil
	}
	return g.TopoOrder()
}

// orderMemo is one memoized critical-first order: the order computed
// from the delay table delays. The order is a function of the graph and
// the delays alone, so a later run under an equal table reuses it.
type orderMemo struct {
	ok     bool
	delays []int
	order  []cdfg.NodeID
}

// memoFor returns the order memo of g (one per direction), or nil when g
// is foreign to the arena.
func (a *Arena) memoFor(g *cdfg.Graph) *orderMemo {
	switch {
	case a == nil:
		return nil
	case g == a.g:
		return &a.fwd
	case a.rev != nil && g == a.rev:
		return &a.bwd
	}
	return nil
}

// lookup returns the memoized order when it was computed from a table
// equal to delays (never for a nil table).
func (m *orderMemo) lookup(delays []int) ([]cdfg.NodeID, bool) {
	if m == nil || !m.ok || delays == nil || !slices.Equal(m.delays, delays) {
		return nil, false
	}
	return m.order, true
}

// reverseOf returns the cached reversed graph of g (building it once), or
// a fresh reversal when g is foreign to the arena.
func (a *Arena) reverseOf(g *cdfg.Graph) *cdfg.Graph {
	if a != nil && g == a.g {
		if a.rev == nil {
			a.rev = g.Reverse()
		}
		return a.rev
	}
	return g.Reverse()
}

// The grow helpers resize a recycled buffer to n elements without
// clearing: every caller fully overwrites the returned slice.

func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growIDs(buf *[]cdfg.NodeID, n int) []cdfg.NodeID {
	if cap(*buf) < n {
		*buf = make([]cdfg.NodeID, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
