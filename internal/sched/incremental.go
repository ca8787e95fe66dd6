package sched

import (
	"errors"
	"fmt"

	"pchls/internal/cdfg"
)

// ErrStale is returned (wrapped) by the dirty-subset schedulers when a
// clean node can no longer be replayed at its previous start time — the
// caller's dirty set was too small and the full scheduler must be rerun.
var ErrStale = errors.New("pinned placement no longer consistent")

// pinsFrom builds the pin slice for a dirty-subset run: dirty nodes get
// -1 (full placement search), clean nodes are pinned to prev(i). With an
// arena the slice is the recycled a.pin buffer, so it is only valid until
// the next pinsFrom call; the schedulers read it during the run but never
// retain it.
func pinsFrom(a *Arena, n int, prev func(i int) int, dirty []bool) []int {
	var pin []int
	if a != nil {
		pin = growInts(&a.pin, n)
	} else {
		pin = make([]int, n)
	}
	for i := range pin {
		if dirty == nil || dirty[i] {
			pin[i] = -1
		} else {
			pin[i] = prev(i)
		}
	}
	return pin
}

// PASAPDirty recomputes the power-constrained ASAP schedule after a
// localized change. prev must be the result of a previous PASAP run under
// compatible options; nodes with dirty[i] == false are replayed at
// prev.Start[i] without a placement search (their power still shapes the
// profile seen by later nodes), while dirty nodes — and nodes in
// opts.Fixed — are placed exactly as PASAP places them. When every clean
// node would land on its previous start anyway the result is identical to
// a full PASAP run; when a replayed placement turns out to be
// inconsistent (precedence, power, horizon, or a missed earlier slot in
// the unconstrained case) an error wrapping ErrStale is returned and the
// caller should fall back to the full scheduler.
func PASAPDirty(g *cdfg.Graph, bind Binding, opts Options, prev *Schedule, dirty []bool) (*Schedule, error) {
	if prev == nil {
		return nil, fmt.Errorf("sched: pasap dirty: nil previous schedule")
	}
	return pasapPinned(g, bind, opts, pinsFrom(opts.arenaFor(g), g.N(), func(i int) int { return prev.Start[i] }, dirty), nil)
}

// PALAPDirty is the as-late-as-possible analogue of PASAPDirty: clean
// nodes are replayed at prev.Start[i] (forward time frame), dirty nodes
// are placed exactly as PALAP places them.
func PALAPDirty(g *cdfg.Graph, bind Binding, deadline int, opts Options, prev *Schedule, dirty []bool) (*Schedule, error) {
	if prev == nil {
		return nil, fmt.Errorf("sched: palap dirty: nil previous schedule")
	}
	return palapPinned(g, bind, deadline, opts, pinsFrom(opts.arenaFor(g), g.N(), func(i int) int { return prev.Start[i] }, dirty))
}

// WindowsDirty re-derives the power-feasible mobility windows for a dirty
// subset of nodes without re-scheduling the clean ones: clean nodes are
// pinned to their previous Early/Late starts, dirty nodes get the full
// placement search of the underlying pasap/palap pair. prev must be the
// window set of a previous Windows (or WindowsDirty) call under
// compatible options. An error wrapping ErrStale means the dirty set was
// too small to absorb the change and the caller must fall back to the
// full Windows derivation.
func WindowsDirty(g *cdfg.Graph, bind Binding, deadline int, opts Options, prev []Window, dirty []bool) ([]Window, error) {
	if len(prev) != g.N() {
		return nil, fmt.Errorf("sched: windows dirty: %d previous windows for %d nodes", len(prev), g.N())
	}
	a := opts.arenaFor(g)
	early, err := pasapPinned(g, bind, opts, pinsFrom(a, g.N(), func(i int) int { return prev[i].Early }, dirty), nil)
	if err != nil {
		return nil, err
	}
	if deadline > 0 && early.Length() > deadline {
		return nil, fmt.Errorf("sched: windows: pasap length %d exceeds deadline %d: %w", early.Length(), deadline, ErrDeadline)
	}
	late, err := palapPinned(g, bind, deadline, opts, pinsFrom(a, g.N(), func(i int) int { return prev[i].Late }, dirty))
	if err != nil {
		return nil, err
	}
	ws := make([]Window, g.N())
	for i := range ws {
		ws[i] = Window{Early: early.Start[i], Late: late.Start[i]}
	}
	return ws, nil
}
