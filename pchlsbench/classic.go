package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/explore"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// classicGrid is the paper's own evaluation: the six Figure 2 curves plus
// fir16, ar, diffeq2 and fft8 at their fastest-ASAP length + 3, each swept
// over P< = 5..150 in steps of 5 with the Table 1 library. An op is one
// SynthesizeBest call (the default of the pchls CLI and /v1/synthesize),
// then verify.Check and Design.JSON. One caller runs a closed loop; the
// seed shuffles the point order of every pass.
type classicGrid struct {
	lib    *library.Library
	points []classicPoint
	seed   int64
	// first holds each point's first outcome; later passes must repeat it
	// byte for byte.
	first []*pointOutcome
	// passArea and passFeasible are filled when the first pass completes.
	passArea     float64
	passFeasible int
	passDone     bool
}

type classicPoint struct {
	bench string
	g     *cdfg.Graph
	cons  core.Constraints
}

type pointOutcome struct {
	feasible bool
	area     float64
	sum      [32]byte // sha256 of the design JSON
}

// classicExtra are the benchmarks beyond Figure 2, each run at its
// fastest-ASAP length plus this slack.
var classicExtra = []string{"fir16", "ar", "diffeq2", "fft8"}

const classicSlack = 3

func (w *classicGrid) setup(seed int64, _ int, _ *tracer) error {
	w.seed = seed
	w.lib = library.Table1()
	type curve struct {
		name     string
		deadline int
	}
	var curves []curve
	for _, s := range explore.Figure2Specs() {
		curves = append(curves, curve{s.Benchmark, s.Deadline})
	}
	for _, name := range classicExtra {
		g, err := bench.ByName(name)
		if err != nil {
			return err
		}
		asap, err := sched.ASAP(g, sched.UniformFastest(w.lib))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		curves = append(curves, curve{name, asap.Length() + classicSlack})
	}
	pmin, pmax, step := explore.DefaultGrid()
	w.points = w.points[:0]
	for _, c := range curves {
		g, err := bench.ByName(c.name)
		if err != nil {
			return err
		}
		for p := pmin; p <= pmax+1e-9; p += step {
			w.points = append(w.points, classicPoint{bench: c.name, g: g, cons: core.Constraints{Deadline: c.deadline, PowerMax: p}})
		}
	}
	w.first = make([]*pointOutcome, len(w.points))
	return nil
}

// order returns the point order of the pass-th pass.
func (w *classicGrid) order(pass int) []int {
	r := rand.New(rand.NewSource(w.seed*7919 + int64(pass)))
	return r.Perm(len(w.points))
}

func (w *classicGrid) inputs() inputInfo {
	h := sha256.New()
	fmt.Fprintf(h, "classic-grid\n%s", w.lib.Text())
	graphs := map[string]bool{}
	curves := map[string]bool{}
	nodes := []int{}
	// Each curve's code path, from one single-pass synthesis at its
	// deadline without a cap.
	regimes := map[string]int{}
	for _, p := range w.points {
		if c := fmt.Sprintf("%s/%d", p.bench, p.cons.Deadline); !curves[c] {
			curves[c] = true
			r := "error"
			if d, err := core.Synthesize(p.g, w.lib, core.Constraints{Deadline: p.cons.Deadline}, core.Config{}); err == nil {
				r = regime(d)
			}
			regimes[r]++
		}
		fmt.Fprintf(h, "%s T=%d P=%g\n", p.bench, p.cons.Deadline, p.cons.PowerMax)
		if !graphs[p.bench] {
			graphs[p.bench] = true
			fmt.Fprintf(h, "%s", p.g.Text())
			nodes = append(nodes, p.g.N())
		}
	}
	for pass := 0; pass < 4; pass++ {
		fmt.Fprintf(h, "%v\n", w.order(pass))
	}
	lo, hi := minMax(nodes)
	return inputInfo{
		Digest: fmt.Sprintf("sha256:%x", h.Sum(nil)),
		Properties: map[string]any{
			"points_per_pass": len(w.points),
			"curves":          len(curves),
			"nodes_min":       lo,
			"nodes_max":       hi,
			"regimes":         regimes,
			"library":         "table1",
			"caller":          "one closed-loop caller",
		},
	}
}

func (w *classicGrid) run(b budget, tr *tracer) *phase {
	var t tally
	var eng engineTally
	var probeTime time.Duration
	mark := startPhase()
	for pass := 0; ; pass++ {
		area, feasible, complete := 0.0, 0, true
		for _, i := range w.order(pass) {
			if !b.more(t.attempted) && w.passDone {
				complete = false
				break
			}
			p := &w.points[i]
			mark.cal.hold()
			op := tr.nextOp()
			span := tr.start("op", 0, op)
			start := time.Now()
			d, out, err := w.op(p, tr, span, op)
			elapsed := time.Since(start)
			tr.end(span)
			if err == nil {
				err = w.compare(i, out)
			}
			t.record(elapsed, err)
			if err != nil {
				mark.cal.release()
				continue
			}
			if out.feasible {
				area += out.area
				feasible++
				eng.add(d)
			}
			if tr != nil {
				ps := time.Now()
				probe(tr, op, probeInput{name: p.bench, g: p.g, lib: w.lib, cons: p.cons, design: d},
					probeSet{byName: true, parse: true, key: true, sched: true, bind: true, lifetime: true})
				probeTime += time.Since(ps)
			}
			mark.cal.release()
		}
		if complete && !w.passDone {
			w.passArea, w.passFeasible, w.passDone = area, feasible, true
		}
		if !complete || !b.more(t.attempted) {
			break
		}
	}
	ph := mark.finish(&t, probeTime)
	eng.into(ph.layer)
	return ph
}

// op synthesizes one point and checks the design. An infeasible point is
// a completed answer; any other error fails the op.
func (w *classicGrid) op(p *classicPoint, tr *tracer, parent, op int) (*core.Design, pointOutcome, error) {
	s := tr.start("core.synthesize", parent, op)
	d, err := core.SynthesizeBest(p.g, w.lib, p.cons, core.Config{})
	tr.end(s)
	if errors.Is(err, core.ErrInfeasible) {
		return nil, pointOutcome{}, nil
	}
	if err != nil {
		return nil, pointOutcome{}, fmt.Errorf("%s T=%d P=%g: %v", p.bench, p.cons.Deadline, p.cons.PowerMax, err)
	}
	s = tr.start("verify.check", parent, op)
	err = verifyDesign(d, p.cons)
	tr.end(s)
	if err != nil {
		return nil, pointOutcome{}, fmt.Errorf("%s T=%d P=%g: design rejected: %v", p.bench, p.cons.Deadline, p.cons.PowerMax, err)
	}
	s = tr.start("core.design_json", parent, op)
	body, err := d.JSON()
	tr.end(s)
	if err != nil {
		return nil, pointOutcome{}, fmt.Errorf("%s T=%d P=%g: %v", p.bench, p.cons.Deadline, p.cons.PowerMax, err)
	}
	return d, pointOutcome{feasible: true, area: d.Area(), sum: sha256.Sum256(body)}, nil
}

// compare checks an outcome against the point's first one: synthesis is
// deterministic, so every pass must reproduce the same bytes.
func (w *classicGrid) compare(i int, out pointOutcome) error {
	if w.first[i] == nil {
		w.first[i] = &out
		return nil
	}
	f := w.first[i]
	if f.feasible != out.feasible || f.area != out.area || !bytes.Equal(f.sum[:], out.sum[:]) {
		p := w.points[i]
		return fmt.Errorf("%s T=%d P=%g: result differs from the first pass", p.bench, p.cons.Deadline, p.cons.PowerMax)
	}
	return nil
}

func (w *classicGrid) sample() probeInput {
	p := w.points[len(w.points)-1]
	return probeInput{name: p.bench, g: p.g, lib: w.lib, cons: p.cons}
}

func (w *classicGrid) reset() error { return nil }

func (w *classicGrid) qor() (float64, float64) {
	return w.passArea, float64(w.passFeasible) / float64(len(w.points))
}

func (w *classicGrid) close() {}

func minMax(xs []int) (int, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
