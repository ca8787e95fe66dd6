package bind

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pchls/internal/cdfg"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// pipelineGraph: i1,i2 -> m(*) -> a(+) <- i3 ; a -> o(xpt).
func pipelineGraph(t *testing.T) *cdfg.Graph {
	t.Helper()
	g := cdfg.New("pipe")
	i1 := g.MustAddNode("i1", cdfg.Input)
	i2 := g.MustAddNode("i2", cdfg.Input)
	i3 := g.MustAddNode("i3", cdfg.Input)
	m := g.MustAddNode("m", cdfg.Mul)
	a := g.MustAddNode("a", cdfg.Add)
	o := g.MustAddNode("o", cdfg.Output)
	g.MustAddEdge(i1, m)
	g.MustAddEdge(i2, m)
	g.MustAddEdge(m, a)
	g.MustAddEdge(i3, a)
	g.MustAddEdge(a, o)
	return g
}

func TestLifetimes(t *testing.T) {
	g := pipelineGraph(t)
	s, err := sched.ASAP(g, sched.UniformFastest(library.Table1()))
	if err != nil {
		t.Fatal(err)
	}
	// i1,i2,i3 end at 1; m runs 1-2, ends 3; a runs 3, ends 4; o runs 4.
	lts := Lifetimes(g, s)
	byProducer := map[string]Lifetime{}
	for _, lt := range lts {
		byProducer[g.Node(lt.Producer).Name] = lt
	}
	if len(lts) != 5 { // i1,i2,i3,m,a (o produces nothing storable)
		t.Fatalf("%d lifetimes, want 5", len(lts))
	}
	if lt := byProducer["i1"]; lt.Birth != 1 || lt.LastUse != 1 {
		t.Errorf("i1 lifetime = %+v", lt)
	}
	if lt := byProducer["i3"]; lt.Birth != 1 || lt.LastUse != 3 {
		t.Errorf("i3 lifetime = %+v", lt)
	}
	if lt := byProducer["m"]; lt.Birth != 3 || lt.LastUse != 3 {
		t.Errorf("m lifetime = %+v", lt)
	}
	if lt := byProducer["a"]; lt.Birth != 4 || lt.LastUse != 4 {
		t.Errorf("a lifetime = %+v", lt)
	}
}

func TestLifetimeOverlaps(t *testing.T) {
	a := Lifetime{Birth: 1, LastUse: 3}
	b := Lifetime{Birth: 3, LastUse: 5}
	c := Lifetime{Birth: 4, LastUse: 4}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("touching intervals should overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Fatal("disjoint intervals reported overlapping")
	}
}

func TestLeftEdgePacksDisjointIntervals(t *testing.T) {
	lts := []Lifetime{
		{Producer: 0, Birth: 1, LastUse: 2},
		{Producer: 1, Birth: 3, LastUse: 4},
		{Producer: 2, Birth: 5, LastUse: 6},
	}
	regs := LeftEdge(lts)
	if len(regs) != 1 {
		t.Fatalf("disjoint chain needs %d registers, want 1", len(regs))
	}
	if len(regs[0].Values) != 3 {
		t.Fatalf("register holds %v", regs[0].Values)
	}
}

func TestLeftEdgeParallelIntervals(t *testing.T) {
	lts := []Lifetime{
		{Producer: 0, Birth: 1, LastUse: 5},
		{Producer: 1, Birth: 2, LastUse: 4},
		{Producer: 2, Birth: 3, LastUse: 3},
	}
	regs := LeftEdge(lts)
	if len(regs) != 3 {
		t.Fatalf("nested intervals need %d registers, want 3", len(regs))
	}
}

func TestLeftEdgeEmpty(t *testing.T) {
	if regs := LeftEdge(nil); len(regs) != 0 {
		t.Fatalf("LeftEdge(nil) = %v", regs)
	}
}

func TestQuickLeftEdgeOptimal(t *testing.T) {
	// Property: left-edge register count equals the maximum interval
	// overlap (optimal for interval graphs), and no register holds two
	// overlapping values.
	f := func(seed int64, szRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%30) + 1
		lts := make([]Lifetime, n)
		for i := range lts {
			birth := rng.Intn(20)
			lts[i] = Lifetime{Producer: cdfg.NodeID(i), Birth: birth, LastUse: birth + rng.Intn(8)}
		}
		regs := LeftEdge(lts)
		if len(regs) != MaxOverlap(lts) {
			return false
		}
		byProducer := map[cdfg.NodeID]Lifetime{}
		for _, lt := range lts {
			byProducer[lt.Producer] = lt
		}
		for _, r := range regs {
			for i := 0; i < len(r.Values); i++ {
				for j := i + 1; j < len(r.Values); j++ {
					if byProducer[r.Values[i]].Overlaps(byProducer[r.Values[j]]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLeftEdgeMatchesReferenceOnWideBirthRanges checks the counting sort
// of left-edge where the birth range is far wider than the number of
// values, negative births included, against a direct left-edge: values in
// (birth, producer) order, each to the lowest-index register whose last
// occupant dies before it is born. Producers arrive shuffled.
func TestLeftEdgeMatchesReferenceOnWideBirthRanges(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		span := []int{20, 1 << 10, 1 << 16}[seed%3]
		lts := make([]Lifetime, n)
		for i, p := range rng.Perm(n) {
			birth := rng.Intn(span) - span/2
			if i > 0 && rng.Intn(4) == 0 {
				birth = lts[i-1].Birth // shared births exercise the tie-break
			}
			lts[i] = Lifetime{Producer: cdfg.NodeID(p), Birth: birth, LastUse: birth + rng.Intn(span/4+1)}
		}
		got := LeftEdge(lts)
		want := referenceLeftEdge(lts)
		if len(got) != len(want) {
			t.Fatalf("seed %d (span %d): %d registers, reference %d", seed, span, len(got), len(want))
		}
		for r := range want {
			if !slices.Equal(got[r].Values, want[r].Values) {
				t.Fatalf("seed %d (span %d): register %d holds %v, reference %v", seed, span, r, got[r].Values, want[r].Values)
			}
		}
	}
}

func referenceLeftEdge(lifetimes []Lifetime) []Register {
	sorted := slices.Clone(lifetimes)
	slices.SortFunc(sorted, func(a, b Lifetime) int {
		if a.Birth != b.Birth {
			return cmp.Compare(a.Birth, b.Birth)
		}
		return cmp.Compare(a.Producer, b.Producer)
	})
	var regs []Register
	var last []int
	for _, lt := range sorted {
		r := slices.IndexFunc(last, func(l int) bool { return l < lt.Birth })
		if r < 0 {
			regs = append(regs, Register{})
			last = append(last, 0)
			r = len(regs) - 1
		}
		regs[r].Values = append(regs[r].Values, lt.Producer)
		last[r] = lt.LastUse
	}
	return regs
}

// buildTrivial makes one FU per node.
func buildTrivial(t *testing.T, g *cdfg.Graph, s *sched.Schedule, lib *library.Library) (*Datapath, []FU, []int) {
	t.Helper()
	var fus []FU
	fuOf := make([]int, g.N())
	for _, n := range g.Nodes() {
		m, err := lib.Fastest(n.Op)
		if err != nil {
			t.Fatal(err)
		}
		fuOf[n.ID] = len(fus)
		fus = append(fus, FU{Module: m, Ops: []cdfg.NodeID{n.ID}})
	}
	d, err := Build(g, s, fus, fuOf, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return d, fus, fuOf
}

func TestBuildTrivialBinding(t *testing.T) {
	g := pipelineGraph(t)
	lib := library.Table1()
	s, _ := sched.ASAP(g, sched.UniformFastest(lib))
	d, _, _ := buildTrivial(t, g, s, lib)
	// FU area: 3 inputs (16), mult par (339), add (87), output (16).
	wantFU := 3*16.0 + 339 + 87 + 16
	if d.FUArea != wantFU {
		t.Errorf("FU area = %g, want %g", d.FUArea, wantFU)
	}
	if len(d.Registers) == 0 {
		t.Error("no registers allocated")
	}
	if d.TotalArea() != d.FUArea+d.RegArea+d.MuxArea {
		t.Error("area breakdown inconsistent")
	}
	// One op per FU: no FU muxes needed.
	if d.FUMuxInputs != 0 {
		t.Errorf("trivial binding has %d FU mux inputs", d.FUMuxInputs)
	}
}

func TestBuildSharedFUNeedsMux(t *testing.T) {
	// Two adds at different cycles sharing one adder, with four distinct
	// input registers -> muxes appear.
	g := cdfg.New("share")
	i1 := g.MustAddNode("i1", cdfg.Input)
	i2 := g.MustAddNode("i2", cdfg.Input)
	a1 := g.MustAddNode("a1", cdfg.Add)
	a2 := g.MustAddNode("a2", cdfg.Add)
	o1 := g.MustAddNode("o1", cdfg.Output)
	o2 := g.MustAddNode("o2", cdfg.Output)
	g.MustAddEdge(i1, a1)
	g.MustAddEdge(i2, a2)
	g.MustAddEdge(a1, a2) // serialize a1 -> a2
	g.MustAddEdge(a1, o1)
	g.MustAddEdge(a2, o2)
	lib := library.Table1()
	s, err := sched.ASAP(g, sched.UniformFastest(lib))
	if err != nil {
		t.Fatal(err)
	}
	addMod, _ := lib.Lookup(library.NameAdd)
	inMod, _ := lib.Lookup(library.NameInput)
	outMod, _ := lib.Lookup(library.NameOutput)
	fus := []FU{
		{Module: inMod, Ops: []cdfg.NodeID{i1}},
		{Module: inMod, Ops: []cdfg.NodeID{i2}},
		{Module: addMod, Ops: []cdfg.NodeID{a1, a2}}, // shared adder
		{Module: outMod, Ops: []cdfg.NodeID{o1}},
		{Module: outMod, Ops: []cdfg.NodeID{o2}},
	}
	fuOf := make([]int, g.N())
	fuOf[i1], fuOf[i2] = 0, 1
	fuOf[a1], fuOf[a2] = 2, 2
	fuOf[o1], fuOf[o2] = 3, 4
	d, err := Build(g, s, fus, fuOf, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if d.FUMuxInputs == 0 {
		t.Error("shared adder with distinct sources should need FU muxes")
	}
	if d.MuxArea == 0 {
		t.Error("mux area is zero despite muxes")
	}
	rep := d.Report(g)
	for _, want := range []string{"FU0", "add", "registers:", "area:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestBuildRejectsBadBindings(t *testing.T) {
	g := pipelineGraph(t)
	lib := library.Table1()
	s, _ := sched.ASAP(g, sched.UniformFastest(lib))
	addMod, _ := lib.Lookup(library.NameAdd)

	// Wrong length fuOf.
	if _, err := Build(g, s, nil, []int{0}, DefaultCostModel()); !errors.Is(err, ErrBinding) {
		t.Errorf("short fuOf: %v", err)
	}
	// Out-of-range FU index.
	fuOf := make([]int, g.N())
	for i := range fuOf {
		fuOf[i] = 5
	}
	if _, err := Build(g, s, []FU{{Module: addMod}}, fuOf, DefaultCostModel()); !errors.Is(err, ErrBinding) {
		t.Errorf("out-of-range fu: %v", err)
	}
	// Module does not implement op.
	_, fus, fuOfGood := func() (*Datapath, []FU, []int) {
		d, f, fo := buildTrivial(t, g, s, lib)
		return d, f, fo
	}()
	m, _ := g.Lookup("m")
	fus[fuOfGood[m.ID]].Module = addMod
	if _, err := Build(g, s, fus, fuOfGood, DefaultCostModel()); !errors.Is(err, ErrBinding) {
		t.Errorf("wrong module: %v", err)
	}
}

func TestBuildRejectsTimeOverlapOnSharedFU(t *testing.T) {
	g := cdfg.New("clash")
	i1 := g.MustAddNode("i1", cdfg.Input)
	i2 := g.MustAddNode("i2", cdfg.Input)
	a1 := g.MustAddNode("a1", cdfg.Add)
	a2 := g.MustAddNode("a2", cdfg.Add)
	g.MustAddEdge(i1, a1)
	g.MustAddEdge(i2, a2)
	lib := library.Table1()
	s, _ := sched.ASAP(g, sched.UniformFastest(lib))
	addMod, _ := lib.Lookup(library.NameAdd)
	inMod, _ := lib.Lookup(library.NameInput)
	fus := []FU{
		{Module: inMod, Ops: []cdfg.NodeID{i1}},
		{Module: inMod, Ops: []cdfg.NodeID{i2}},
		{Module: addMod, Ops: []cdfg.NodeID{a1, a2}}, // both at cycle 1: clash
	}
	fuOf := []int{0, 1, 2, 2}
	if _, err := Build(g, s, fus, fuOf, DefaultCostModel()); !errors.Is(err, ErrBinding) {
		t.Fatalf("overlapping shared ops accepted: %v", err)
	}
}

func TestBuildRejectsFUOfMismatch(t *testing.T) {
	g := pipelineGraph(t)
	lib := library.Table1()
	s, _ := sched.ASAP(g, sched.UniformFastest(lib))
	_, fus, fuOf := buildTrivial(t, g, s, lib)
	// FU 0 claims op it doesn't own.
	fus[0].Ops = append(fus[0].Ops, 1)
	if _, err := Build(g, s, fus, fuOf, DefaultCostModel()); !errors.Is(err, ErrBinding) {
		t.Fatalf("fuOf mismatch accepted: %v", err)
	}
}

func TestMaxOverlap(t *testing.T) {
	lts := []Lifetime{
		{Birth: 0, LastUse: 10},
		{Birth: 2, LastUse: 3},
		{Birth: 3, LastUse: 5},
		{Birth: 11, LastUse: 12},
	}
	if got := MaxOverlap(lts); got != 3 {
		t.Fatalf("MaxOverlap = %d, want 3", got)
	}
	if MaxOverlap(nil) != 0 {
		t.Fatal("MaxOverlap(nil) != 0")
	}
}

func TestDefaultCostModel(t *testing.T) {
	cm := DefaultCostModel()
	if cm.RegisterArea <= 0 || cm.MuxInputArea <= 0 {
		t.Fatalf("bad defaults: %+v", cm)
	}
	if cm.RegisterArea >= 87 {
		t.Fatalf("register area %g should be well below the smallest adder", cm.RegisterArea)
	}
}
