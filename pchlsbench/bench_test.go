package main

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/library"
)

// halDesign synthesizes hal at T=17 under the cap p; nil if infeasible.
func halDesign(t *testing.T, p float64) (*core.Design, core.Constraints) {
	t.Helper()
	g, err := bench.ByName("hal")
	if err != nil {
		t.Fatal(err)
	}
	cons := core.Constraints{Deadline: 17, PowerMax: p}
	d, err := core.SynthesizeBest(g, library.Table1(), cons, core.Config{Workers: 1})
	if errors.Is(err, core.ErrInfeasible) {
		return nil, cons
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyDesign(d, cons); err != nil {
		t.Fatalf("unmodified design rejected: %v", err)
	}
	return d, cons
}

// withStart returns a copy of d with node v starting at cycle c.
func withStart(d *core.Design, v, c int) *core.Design {
	m := *d
	m.Schedule = d.Schedule.Clone()
	m.Schedule.Start[v] = c
	return &m
}

// failRatio records each error as one op and returns the tally's failed
// share, the way a phase derives fail_ratio.
func failRatio(errs ...error) float64 {
	var t tally
	for _, err := range errs {
		t.record(time.Millisecond, err)
	}
	return float64(t.failed) / float64(t.attempted)
}

func TestDesignCheckCatchesMovedStart(t *testing.T) {
	d, cons := halDesign(t, 12)
	// Past T: move the op that finishes last so it ends after the deadline.
	last := cdfg.NodeID(0)
	for v := range d.Schedule.Start {
		if d.Schedule.End(cdfg.NodeID(v)) > d.Schedule.End(last) {
			last = cdfg.NodeID(v)
		}
	}
	late := withStart(d, int(last), cons.Deadline)
	if r := failRatio(verifyDesign(d, cons), verifyDesign(late, cons)); r <= 0 {
		t.Errorf("a start moved past T left fail_ratio at %g", r)
	}

	// Over P<: under the tightest feasible cap, move one op (within T)
	// onto cycles where it pushes the profile over the cap.
	var over *core.Design
	for p := 5.0; over == nil && p <= 12; p++ {
		if d, cons = halDesign(t, p); d != nil {
			over = overCap(d, cons)
		}
	}
	if over == nil {
		t.Fatal("no single move pushes hal over a cap of 5..12")
	}
	if r := failRatio(verifyDesign(d, cons), verifyDesign(over, cons)); r <= 0 {
		t.Errorf("a start moved over P< left fail_ratio at %g", r)
	}
}

// overCap returns d with one op moved so that some cycle's power exceeds
// the cap while the op still ends by T, or nil if no such move exists.
func overCap(d *core.Design, cons core.Constraints) *core.Design {
	s := d.Schedule
	prof := s.Profile()
	for v := range s.Start {
		for c := 0; c+s.Delay[v] <= cons.Deadline; c++ {
			for k := c; k < c+s.Delay[v] && k < len(prof); k++ {
				own := k >= s.Start[v] && k < s.Start[v]+s.Delay[v]
				if !own && prof[k]+s.Power[v] > cons.PowerMax {
					return withStart(d, v, c)
				}
			}
		}
	}
	return nil
}

// serveFixture is a serve-mix with two keys: one with a reference and one
// without.
func serveFixture(t *testing.T) *serveMix {
	t.Helper()
	var w serveMix
	if err := w.generate(1, 200, nil); err != nil {
		t.Fatal(err)
	}
	hal := w.keys[0]
	if err := hal.reference(w.lib); err != nil {
		t.Fatal(err)
	}
	w.keys = []*serveKey{hal, w.keys[w.hot]}
	w.firsts = make([]atomic.Pointer[response], len(w.keys))
	return &w
}

func flipped(b []byte) []byte {
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 0x01
	return c
}

func TestBodyCheckCatchesFlippedByte(t *testing.T) {
	w := serveFixture(t)
	ref := w.keys[0].ref
	single := &serveReq{path: "/v1/synthesize", keys: []int32{0}}
	good := w.check(single, ref)
	bad := w.check(single, &response{ref.status, flipped(ref.body)})
	if good != nil {
		t.Fatalf("reference body rejected: %v", good)
	}
	if r := failRatio(good, bad); r <= 0 {
		t.Errorf("a flipped byte against the reference left fail_ratio at %g", r)
	}

	// A key without a reference is held to its first body.
	first := &response{200, []byte(`{"graph":"x"}`)}
	inline := &serveReq{path: "/v1/synthesize", keys: []int32{1}}
	errs := []error{w.check(inline, first), w.check(inline, &response{200, flipped(first.body)})}
	if errs[0] != nil {
		t.Fatalf("first body rejected: %v", errs[0])
	}
	if r := failRatio(errs...); r <= 0 {
		t.Errorf("a flipped byte against the first body left fail_ratio at %g", r)
	}

	// A batch item is held to the same reference.
	batch := &serveReq{path: "/v1/batch", keys: []int32{0, 0}}
	item := func(body []byte) string {
		return fmt.Sprintf(`{"status":%d,"cache":"hit","body":%q}`, ref.status, base64.StdEncoding.EncodeToString(body))
	}
	okBody := []byte(`{"results":[` + item(ref.body) + `,` + item(ref.body) + `]}`)
	badBody := []byte(`{"results":[` + item(ref.body) + `,` + item(flipped(ref.body)) + `]}`)
	errs = []error{w.check(batch, &response{200, okBody}), w.check(batch, &response{200, badBody})}
	if errs[0] != nil {
		t.Fatalf("batch of reference bodies rejected: %v", errs[0])
	}
	if r := failRatio(errs...); r <= 0 {
		t.Errorf("a flipped byte in a batch item left fail_ratio at %g", r)
	}

	// Refused requests are failures too.
	if err := w.check(single, &response{429, []byte(`{"error":"overloaded"}`)}); err == nil {
		t.Error("a 429 response passed the check")
	}
}

// digests generates every workload's inputs for a seed, without the
// set-up work that runs the engine.
func digests(t *testing.T, seed int64) map[string]string {
	t.Helper()
	var c classicGrid
	if err := c.setup(seed, 1, nil); err != nil {
		t.Fatal(err)
	}
	var s scaleMix
	if err := s.generate(seed, nil); err != nil {
		t.Fatal(err)
	}
	var v serveMix
	if err := v.generate(seed, 2000, nil); err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"classic-grid": c.inputs().Digest,
		"scale-mix":    s.inputs().Digest,
		"serve-mix":    v.inputs().Digest,
	}
}

func TestInputDigestFollowsSeed(t *testing.T) {
	a, b, c := digests(t, 1), digests(t, 1), digests(t, 2)
	for name := range workloads {
		if a[name] != b[name] {
			t.Errorf("%s: same seed, digests %s and %s", name, a[name], b[name])
		}
		if a[name] == c[name] {
			t.Errorf("%s: seeds 1 and 2 share digest %s", name, a[name])
		}
	}
}

// TestTailRungIsFixed checks that latency_ms_tail reports the workload's
// own percentile however few samples a run has, and says how many lie
// beyond it.
func TestTailRungIsFixed(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v := percentile(xs, 95); math.Abs(v-949.05) > 1e-9 {
		t.Errorf("p95 = %g, want 949.05", v)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if n := minOpsFor(75); n != 40 {
		t.Errorf("minOpsFor(75) = %d, want 40", n)
	}
	if n := minOpsFor(99.9); n != 10000 {
		t.Errorf("minOpsFor(99.9) = %d, want 10000", n)
	}

	// 30 samples leave three beyond p90: still p90, and the record says so.
	ph := &phase{attempted: 30, elapsed: time.Second, scaled: time.Second, layer: map[string]metric{}}
	for i := 0; i < 30; i++ {
		ph.samples = append(ph.samples, opSample{time.Second, float64(i), float64(i)})
	}
	var rec record
	m := endToEnd(ph, 90, 1, 1, 1, 1, &rec)
	if got := m["latency_ms_tail"].Value; math.Abs(got-26.1) > 1e-9 {
		t.Errorf("tail of 0..29 at p90 = %g, want 26.1", got)
	}
	if want := "p90 over 30 samples (3 beyond it)"; rec.Tail != want {
		t.Errorf("record tail %q, want %q", rec.Tail, want)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// workloads equal to what the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if got, want := wl, workloadNames(); !equalSorted(got, want) {
		t.Errorf("workloads %v, benchmark runs %v", got, want)
	}

	ph := &phase{samples: []opSample{{time.Second, 1, 1}}, attempted: 1, elapsed: time.Second, scaled: time.Second, layer: map[string]metric{}}
	var rec record
	e2e := endToEnd(ph, 99, 1, 1, 1, 1, &rec)
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit || better(m.Name) != m.Better {
			t.Errorf("end_to_end %s (%s, %s): benchmark reports %+v, better %q", m.Name, m.Unit, m.Better, got, better(m.Name))
		}
	}
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("benchmark reports %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}

	units := map[string]string{"runtime.gc_cycles_per_op": "count/op", "trace.overhead_ratio": "ratio",
		"trace.ops_per_s_untraced": "1/s", "trace.ops_per_s_traced": "1/s"}
	for _, m := range spanMetrics {
		units[m.metric] = m.unit
	}
	for _, m := range counterMetrics {
		units[m.metric] = m.unit
	}
	for _, m := range spec.PerLayer {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("per_layer %s (%s): benchmark reports unit %q", m.Name, m.Unit, u)
		}
	}
	if len(units) != len(spec.PerLayer) {
		t.Errorf("benchmark reports %d per-layer metrics, BENCHMARK.json lists %d", len(units), len(spec.PerLayer))
	}
}

func equalSorted(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// calNode is a heap object with a pointer, so the collector has to trace
// a live set built of them.
type calNode struct {
	next *calNode
	pad  [6]int
}

// calAlternating alternates, for d, 100 ms blocks of ops that allocate
// about 4 MB of pointer-linked garbage each (keeping a live set of about
// 64 MB) with blocks of ops that spin on arithmetic and allocate nothing,
// and calibrates after every block the way the calibrator does. It returns,
// per pair of blocks, the kernel rate after allocating over the rate after
// not, with the waits for the collector and the GC overlaps of all slots.
func calAlternating(d time.Duration) (ratios []float64, waits int, overlaps uint64) {
	live := make([][]*calNode, 16)
	sink := 0
	block := func(alloc bool) calRun {
		for i, end := 0, time.Now().Add(100*time.Millisecond); time.Now().Before(end); i++ {
			if alloc {
				chunk := make([]*calNode, 64<<10)
				for j := range chunk {
					chunk[j] = &calNode{}
					if j > 0 {
						chunk[j].next = chunk[j-1]
					}
				}
				live[i%len(live)] = chunk
				continue
			}
			x := uint64(i) | 1
			for j := 0; j < 1<<18; j++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sink += int(x & 1)
		}
		r := calRate(calSlice)
		if r.gcWait >= gcWaitFloor {
			waits++
		}
		overlaps += r.overlap
		return r
	}
	for end := time.Now().Add(d); time.Now().Before(end); {
		quiet, heavy := block(false), block(true)
		ratios = append(ratios, heavy.rate/quiet.rate)
	}
	_ = sink
	return ratios, waits, overlaps
}

// TestCalibrationIgnoresAllocation shows that the scale factor does not
// follow the workload's allocation rate: calibrations right after
// allocation-heavy ops must read like their neighbours after
// allocation-free ones (1 inside the 95% confidence interval of the median
// rate ratio), and no GC cycle may end inside a slot. It runs the same
// blocks with the guard off first, to show the bias the guard removes.
// Slot-to-slot noise on a shared machine is large, so it needs long runs
// and runs only when PCHLSBENCH_CALIB_CHECK gives the seconds per mode:
//
//	PCHLSBENCH_CALIB_CHECK=60 go test -run CalibrationIgnoresAllocation -v .
func TestCalibrationIgnoresAllocation(t *testing.T) {
	secs, err := strconv.Atoi(os.Getenv("PCHLSBENCH_CALIB_CHECK"))
	if err != nil || secs < 1 {
		t.Skip("set PCHLSBENCH_CALIB_CHECK to the seconds per mode (60 is enough) to run the calibration check")
	}
	defer func(g bool) { calGuard = g }(calGuard)
	for _, guard := range []bool{false, true} {
		calGuard = guard
		ratios, waits, overlaps := calAlternating(time.Duration(secs) * time.Second)
		lo, m, hi := medianCI(ratios)
		t.Logf("guard=%v: kernel rate after allocating / after not, over %d pairs: median %.3f (95%% CI %.3f..%.3f); %d slots waited for a mark phase; %d GC cycles ended inside a slot",
			guard, len(ratios), m, lo, hi, waits, overlaps)
		if guard && (lo > 1 || hi < 1 || overlaps > 0) {
			t.Errorf("with the guard the kernel rate still follows the allocation rate (median ratio %.3f, CI %.3f..%.3f, %d GC overlaps)", m, lo, hi, overlaps)
		}
	}
}

// medianCI returns the median of xs with the order statistics that bound
// its 95% confidence interval (ranks n/2 -+ 0.98 sqrt(n)).
func medianCI(xs []float64) (lo, med, hi float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	h := 0.98 * math.Sqrt(float64(n))
	l, u := int(math.Floor(float64(n)/2-h)), int(math.Ceil(float64(n)/2+h))
	return s[max(l, 0)], median(s), s[min(u, n-1)]
}
