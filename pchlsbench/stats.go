package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// opSample is one attempted op.
type opSample struct {
	end    time.Duration // completion, since the phase started
	ms     float64       // wall latency in milliseconds
	scaled float64       // latency in reference milliseconds (calib.go)
}

// phase is what one timed phase of a workload measured.
type phase struct {
	samples   []opSample
	attempted int
	failed    int
	// failures describes the first failed ops.
	failures []string
	// elapsed is the phase's wall time less its calibrations, scaled the
	// same in reference time; probe is the part of elapsed a caller of the
	// traced phase spent in layer probes, which its ops_per_s excludes.
	elapsed time.Duration
	scaled  time.Duration
	probe   time.Duration
	// allocBytes and gcCycles are the runtime.MemStats deltas of the phase.
	allocBytes uint64
	gcCycles   uint32
	// cal describes the phase's calibrations.
	cal calSummary
	// notes are the workload's observations for the report.
	notes []string
	// layer holds the per-layer values the workload computes itself
	// (engine counters, cache outcomes), keyed by metric name.
	layer map[string]metric
}

// opsPerSecond is the phase's completed ops per second of op time (probes
// excluded), in reference time.
func (p *phase) opsPerSecond() float64 {
	scale := p.scaled.Seconds() / p.elapsed.Seconds()
	return float64(p.attempted) / ((p.elapsed - p.probe).Seconds() * scale)
}

// budget is how long a phase runs: until its deadline, and past it while
// it has fewer than minOps ops (ten samples beyond the workload's tail
// percentile), but never beyond twice its length. A phase that stops at
// that limit short of minOps still reports its fixed tail percentile, and
// the report says how many samples lie beyond it.
type budget struct {
	deadline, limit time.Time
	minOps          int
}

func newBudget(d time.Duration, minOps int) budget {
	now := time.Now()
	return budget{deadline: now.Add(d), limit: now.Add(2 * d), minOps: minOps}
}

// more reports whether a phase that has attempted ops ops goes on.
func (b budget) more(ops int) bool {
	now := time.Now()
	return now.Before(b.deadline) || (ops < b.minOps && now.Before(b.limit))
}

// maxFailures bounds how many failure messages a phase keeps.
const maxFailures = 50

// tally collects per-op outcomes; safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	start     time.Time
	samples   []opSample
	attempted int
	failed    int
	failures  []string
}

// record notes one attempted op that took d. A non-nil err marks it
// failed.
func (t *tally) record(d time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.start.IsZero() {
		t.start = time.Now().Add(-d)
	}
	t.samples = append(t.samples, opSample{end: time.Since(t.start), ms: float64(d) / float64(time.Millisecond)})
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < maxFailures {
			t.failures = append(t.failures, err.Error())
		}
	}
}

// phaseMark opens a phase: a runtime.MemStats snapshot and a running
// calibrator. Ops run between cal.hold and cal.release.
type phaseMark struct {
	alloc uint64
	gc    uint32
	start time.Time
	cal   *calibrator
}

func startPhase() phaseMark {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phaseMark{alloc: ms.TotalAlloc, gc: ms.NumGC, start: time.Now(), cal: startCalibrator()}
}

// finish closes a phase: it stops the calibrator, stamps the elapsed time
// and memory deltas, scales every latency and moves the tally into a
// phase.
func (m phaseMark) finish(t *tally, probe time.Duration) *phase {
	end := time.Since(m.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	held := m.cal.finish()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.samples {
		s := &t.samples[i]
		s.end += t.start.Sub(m.start)
		s.scaled = s.ms * m.cal.scale(s.end-time.Duration(s.ms*float64(time.Millisecond)/2))
	}
	return &phase{
		samples:    t.samples,
		attempted:  t.attempted,
		failed:     t.failed,
		failures:   t.failures,
		elapsed:    end - held,
		scaled:     m.cal.scaledElapsed(end),
		probe:      probe,
		allocBytes: ms.TotalAlloc - m.alloc,
		gcCycles:   ms.NumGC - m.gc,
		cal:        m.cal.summary(),
		layer:      map[string]metric{},
	}
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (NaN for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// samplesBeyond is how many of n samples lie above the p-th percentile.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// minOpsFor is the sample count that leaves ten samples beyond the p-th
// percentile.
func minOpsFor(p float64) int {
	return int(math.Ceil(1000/(100-p) - 1e-9))
}

func minMaxFloat(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies returns every op's wall latency in milliseconds, or with
// scaled its latency in reference milliseconds.
func (p *phase) latencies(scaled bool) []float64 {
	xs := make([]float64, len(p.samples))
	for i, s := range p.samples {
		xs[i] = s.ms
		if scaled {
			xs[i] = s.scaled
		}
	}
	return xs
}
