package pchls

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"pchls/internal/cdfg"
	"pchls/internal/gen"
)

// TestGraphRoundTripKeepsOperandOrder: a graph written as .cdfg text or as
// JSON and parsed back keeps every node's Preds order — the operand order
// Eval reads and the mux-port order of the datapath — so it evaluates the
// same and synthesizes to the same design bytes. Source-grouped edge
// output used to lose that order whenever a node's operands were added in
// descending source order.
func TestGraphRoundTripKeepsOperandOrder(t *testing.T) {
	// The explicit case: s = a - b with b's edge declared first, so s's
	// operands are (b, a) and it computes b - a.
	g := cdfg.New("sub")
	a := g.MustAddNode("a", cdfg.Input)
	b := g.MustAddNode("b", cdfg.Input)
	s := g.MustAddNode("s", cdfg.Sub)
	o := g.MustAddNode("o", cdfg.Output)
	g.MustAddEdge(b, s)
	g.MustAddEdge(a, s)
	g.MustAddEdge(s, o)
	for _, rt := range roundTrips(t, g) {
		out, err := rt.g.EvalOutputs(map[cdfg.NodeID]int64{a: 5, b: 3})
		if err != nil {
			t.Fatal(err)
		}
		if out["o"] != -2 {
			t.Errorf("%s round trip: o = %d, want b - a = -2", rt.name, out["o"])
		}
	}

	designsDiffer := 0
	for seed := int64(0); seed < 200; seed++ {
		inst := gen.NewInstance(seed, gen.InstanceConfig{Graph: gen.GraphConfig{Nodes: 20}})
		want := designBytes(t, inst.Graph, inst)
		inputs := map[cdfg.NodeID]int64{}
		rng := rand.New(rand.NewSource(seed))
		for _, id := range inst.Graph.Sources() {
			inputs[id] = rng.Int63n(2001) - 1000
		}
		wantVals, err := inst.Graph.Eval(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, rt := range roundTrips(t, inst.Graph) {
			for id := 0; id < inst.Graph.N(); id++ {
				v := cdfg.NodeID(id)
				if !reflect.DeepEqual(rt.g.Preds(v), inst.Graph.Preds(v)) {
					t.Fatalf("seed %d %s round trip: node %q preds %v, want %v",
						seed, rt.name, inst.Graph.Node(v).Name, rt.g.Preds(v), inst.Graph.Preds(v))
				}
			}
			vals, err := rt.g.Eval(inputs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(vals, wantVals) {
				t.Fatalf("seed %d %s round trip: Eval differs", seed, rt.name)
			}
			if !bytes.Equal(designBytes(t, rt.g, inst), want) {
				designsDiffer++
				t.Errorf("seed %d %s round trip: design bytes differ", seed, rt.name)
			}
		}
	}
	t.Logf("design bytes differ after %d of 400 round trips", designsDiffer)
}

type roundTrip struct {
	name string
	g    *cdfg.Graph
}

// roundTrips returns g written and re-parsed as .cdfg text and as JSON.
func roundTrips(t *testing.T, g *cdfg.Graph) []roundTrip {
	t.Helper()
	fromText, err := cdfg.ParseString(g.Text())
	if err != nil {
		t.Fatal(err)
	}
	js, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := cdfg.ParseJSON(js)
	if err != nil {
		t.Fatal(err)
	}
	return []roundTrip{{"text", fromText}, {"json", fromJSON}}
}

// designBytes synthesizes g single-pass at the instance's constraint point
// and returns the design JSON, or nil when infeasible.
func designBytes(t *testing.T, g *cdfg.Graph, inst gen.Instance) []byte {
	t.Helper()
	d, err := Synthesize(g, inst.Library, Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}, Config{})
	if errors.Is(err, ErrInfeasible) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	js, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}
