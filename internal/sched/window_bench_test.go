package sched

import (
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/library"
)

// hotOptions builds the synthesizer-style options for g: a bound arena,
// precomputed delay/power tables and a FixedStarts buffer, which is what
// the synthesize loop passes on every run.
func hotOptions(g *cdfg.Graph, powerMax float64) (Options, Binding) {
	bind := UniformFastest(library.Table1())
	n := g.N()
	delays := make([]int, n)
	powers := make([]float64, n)
	for _, node := range g.Nodes() {
		m := bind(node)
		delays[node.ID] = m.Delay
		powers[node.ID] = m.Power
	}
	fixed := make([]int, n)
	for i := range fixed {
		fixed[i] = -1
	}
	return Options{
		PowerMax:    powerMax,
		FixedStarts: fixed,
		Delays:      delays,
		Powers:      powers,
		Arena:       NewArena(g),
	}, bind
}

// BenchmarkWindowPair measures one override pasap+palap pair — the unit
// of work the synthesizer's V1 loop runs to score a (node, module)
// candidate — on elliptic through one arena. Each iteration writes the
// next candidate's single-node override into one reused pair of tables,
// cycling through every (node, non-fastest module) candidate in node
// order as the synthesizer's window derivation does, so the order memo
// sees the same mix of equal-delay hits and misses.
func BenchmarkWindowPair(b *testing.B) {
	g := bench.Elliptic()
	lib := library.Table1()
	opts, bind := hotOptions(g, 20)
	baseD, baseP := opts.Delays, opts.Powers
	ovD := append([]int(nil), baseD...)
	ovP := append([]float64(nil), baseP...)
	opts.Delays, opts.Powers = ovD, ovP
	type candidate struct {
		v cdfg.NodeID
		m *library.Module
	}
	var cands []candidate
	for _, node := range g.Nodes() {
		fastest := bind(node)
		for _, mi := range lib.Candidates(node.Op) {
			if m := lib.Module(mi); m != fastest {
				cands = append(cands, candidate{node.ID, m})
			}
		}
	}
	if len(cands) == 0 {
		b.Fatal("elliptic has no override candidates")
	}
	const deadline = 40
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cands[i%len(cands)]
		copy(ovD, baseD)
		copy(ovP, baseP)
		ovD[c.v], ovP[c.v] = c.m.Delay, c.m.Power
		if _, err := PASAP(g, bind, opts); err != nil {
			b.Fatal(err)
		}
		if _, err := PALAP(g, bind, deadline, opts); err != nil {
			b.Fatal(err)
		}
	}
}
