package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Machine speed on a shared virtual machine drifts: a single-threaded
// synthesis loop on the two-vCPU machine this benchmark was built on ran
// anywhere from 75 to 135 syntheses per second within one minute, and
// back-to-back runs of a workload differed by 20-50% in throughput. A
// calibrator tracks that drift with a fixed kernel that shares no code
// with pchls, run on every processor while the workload is held, and the
// benchmark reports every time scaled to the kernel's reference speed.
//
// The workload's own background work must not reach the kernel: a GC mark
// phase or sweep still running when a calibration starts takes processor
// time from it, which lowers the scale factor the more the workload
// allocates and so hides part of an allocation regression (measured: the
// kernel ran 10-17% slower right after allocation-heavy ops, and as fast
// as after allocation-free ones once guarded; TestCalibrationIgnoresAllocation).
// A calibration therefore turns the collector off, which waits for a
// running mark phase to end, then waits until the process uses no
// processor time (the sweep and any other leftover work are done), runs
// the kernel, and turns the collector back on. The waits are the
// workload's own work and count as its time; the run record shows them
// and checks that no GC cycle ended inside a slot.

// calRef is the kernel's rate (runs per second, all processors together)
// that scaled times are expressed against: what the two-vCPU development
// machine (Intel Xeon, Go 1.24) measured in a quiet period. On that
// machine scaled times read close to wall-clock ones.
const calRef = 6000.0

const (
	calEvery  = 500 * time.Millisecond // time between calibrations
	calSlice  = 25 * time.Millisecond  // length of one calibration
	calSmooth = 2 * time.Second        // half-width of the smoothing window
)

// calKernel is the calibration work: xorshift numbers, map inserts and a
// sort over a small array, a mix of the hashing, branching and memory
// traffic synthesis does. It reuses its buffers, so calibrating allocates
// nothing and leaves alloc_mb_per_op and the GC alone.
type calKernel struct {
	xs []int
	m  map[int]int
}

func newCalKernel() *calKernel {
	return &calKernel{xs: make([]int, 2048), m: make(map[int]int, 4096)}
}

func (k *calKernel) run(seed uint64) int {
	clear(k.m)
	x := seed | 1
	for i := range k.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.xs[i] = int(x % 100000)
		k.m[k.xs[i]%4096] += i
	}
	sort.Ints(k.xs)
	return k.xs[len(k.xs)/2] + len(k.m)
}

// calKernels holds one kernel per processor, made once.
var calKernels = func() []*calKernel {
	ks := make([]*calKernel, runtime.GOMAXPROCS(0))
	for i := range ks {
		ks[i] = newCalKernel()
	}
	return ks
}()

// calGuard makes calRate keep the process's own work out of its slot.
// Only the allocation check in the tests turns it off, to show what it
// guards against.
var calGuard = true

// The process is quiet once it used less than a tenth of a processor over
// one settleStep; a calibration waits at most settleMax for that.
const (
	settleStep = 2 * time.Millisecond
	settleMax  = 200 * time.Millisecond
)

// gcCycles returns the number of completed GC cycles.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU returns the processor time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle waits until the process is quiet and reports whether it became
// so within settleMax.
func settle() bool {
	for start := time.Now(); time.Since(start) < settleMax; {
		c := processCPU()
		time.Sleep(settleStep)
		if processCPU()-c < settleStep/10 {
			return true
		}
	}
	return false
}

// calRun is one calibration: the kernel rate; how long it waited for a
// running mark phase to end and then for the process to go quiet, and
// whether it did; and how many GC cycles ended inside its slot (zero with
// the guard on).
type calRun struct {
	rate      float64
	gcWait    time.Duration
	settle    time.Duration
	unsettled bool
	overlap   uint64
}

// calRate runs the kernel on every processor for d, with the collector
// off and the process otherwise quiet, and returns the runs per second of
// all of them together. Calls must not overlap.
func calRate(d time.Duration) calRun {
	var r calRun
	if calGuard {
		w := time.Now()
		old := debug.SetGCPercent(-1) // returns once no mark phase runs
		r.gcWait = time.Since(w)
		defer debug.SetGCPercent(old)
		w = time.Now()
		r.unsettled = !settle()
		r.settle = time.Since(w)
	}
	before := gcCycles()
	r.rate = kernelRate(d)
	r.overlap = gcCycles() - before
	return r
}

// kernelRate runs the kernel on every processor for d and returns the runs
// per second of all of them together.
func kernelRate(d time.Duration) float64 {
	var wg sync.WaitGroup
	counts := make([]int, len(calKernels))
	sinks := make([]int, len(calKernels))
	start := time.Now()
	for p, k := range calKernels {
		wg.Add(1)
		go func(p int, k *calKernel) {
			defer wg.Done()
			for n := 0; time.Since(start) < d; n++ {
				sinks[p] += k.run(uint64(p*7919 + n))
				counts[p]++
			}
		}(p, k)
	}
	wg.Wait()
	el := time.Since(start).Seconds()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / el
}

// setupCalibrations is how many calibrations make one calibration of a
// set-up round (main.go); their median rate scales the round's set-ups.
const setupCalibrations = 4

// medianRate calibrates n times in a row and returns the median rate.
func medianRate(n int) float64 {
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = calRate(calSlice).rate
	}
	return median(rates)
}

// calPoint is one calibration: its time since the phase started, the
// kernel rate, the wall time the workload had been held by then, and the
// calibration's wait for the collector and GC overlap.
type calPoint struct {
	at     time.Duration
	held   time.Duration
	smooth float64 // the rate smoothed over calSmooth (finish)
	calRun
}

// calibrator calibrates every calEvery while a phase runs. Ops run
// between hold and release; a calibration waits for every op in flight
// to end and holds new ones back until it is done.
type calibrator struct {
	gate   sync.RWMutex
	start  time.Time
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	points []calPoint
	held   time.Duration
}

func startCalibrator() *calibrator {
	c := &calibrator{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	c.calibrate()
	go func() {
		defer close(c.done)
		t := time.NewTicker(calEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.calibrate()
			}
		}
	}()
	return c
}

// calibrate takes one calibration. The waits for a running mark phase and
// for the process to go quiet finish the workload's own work, so they are
// not counted as held time.
func (c *calibrator) calibrate() {
	c.gate.Lock()
	defer c.gate.Unlock()
	s := time.Now()
	r := calRate(calSlice)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held += time.Since(s) - r.gcWait - r.settle
	c.points = append(c.points, calPoint{at: time.Since(c.start), held: c.held, calRun: r})
}

// calSummary describes a phase's calibrations for the run record.
type calSummary struct {
	Calibrations int     `json:"calibrations"`
	ScaleMedian  float64 `json:"scale_median"` // kernel rate over calRef
	ScaleMin     float64 `json:"scale_min"`
	ScaleMax     float64 `json:"scale_max"`
	GCWaits      int     `json:"gc_waits"`    // calibrations that waited for a mark phase
	GCWaitMS     float64 `json:"gc_wait_ms"`  // their total wait
	SettleMS     float64 `json:"settle_ms"`   // total wait for the process to go quiet
	Unsettled    int     `json:"unsettled"`   // calibrations that gave up waiting
	GCOverlaps   uint64  `json:"gc_overlaps"` // GC cycles completed inside a slot
}

// gcWaitFloor is the wait below which a calibration found no mark phase
// running (turning the collector off takes microseconds).
const gcWaitFloor = 200 * time.Microsecond

func (c *calibrator) summary() calSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := calSummary{Calibrations: len(c.points)}
	scales := make([]float64, len(c.points))
	for i, p := range c.points {
		scales[i] = p.rate / calRef
		if p.gcWait >= gcWaitFloor {
			s.GCWaits++
		}
		if p.unsettled {
			s.Unsettled++
		}
		s.GCWaitMS += float64(p.gcWait) / float64(time.Millisecond)
		s.SettleMS += float64(p.settle) / float64(time.Millisecond)
		s.GCOverlaps += p.overlap
	}
	s.ScaleMedian = median(scales)
	s.ScaleMin, s.ScaleMax = minMaxFloat(scales)
	return s
}

// hold and release bracket one op.
func (c *calibrator) hold()    { c.gate.RLock() }
func (c *calibrator) release() { c.gate.RUnlock() }

// finish stops calibrating and returns the wall time calibrations held
// the workload; one last calibration then closes the series. The rates
// are then smoothed: each becomes the mean of the raw rates within
// calSmooth of it. One 25 ms slot reads anywhere from 0.4 to 1.05 of the
// reference on a busy shared machine, while ops see the machine's speed
// over seconds, so a raw rate would add more noise than it removes.
func (c *calibrator) finish() time.Duration {
	close(c.stop)
	<-c.done
	c.mu.Lock()
	held := c.held
	c.mu.Unlock()
	c.calibrate()
	c.mu.Lock()
	defer c.mu.Unlock()
	raw := make([]float64, len(c.points))
	for i, p := range c.points {
		raw[i] = p.rate
	}
	for i := range c.points {
		sum, n := 0.0, 0
		for j, q := range c.points {
			if d := q.at - c.points[i].at; d >= -calSmooth && d <= calSmooth {
				sum += raw[j]
				n++
			}
		}
		c.points[i].smooth = sum / float64(n)
	}
	return held
}

// scale returns the factor that turns a wall time measured around time at
// (since the phase started) into reference time: the smoothed kernel rate
// there, interpolated between calibrations, over calRef.
func (c *calibrator) scale(at time.Duration) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := c.points
	i := sort.Search(len(ps), func(i int) bool { return ps[i].at >= at })
	switch {
	case i == 0:
		return ps[0].smooth / calRef
	case i == len(ps):
		return ps[len(ps)-1].smooth / calRef
	}
	a, b := ps[i-1], ps[i]
	f := float64(at-a.at) / float64(b.at-a.at)
	return (a.smooth + f*(b.smooth-a.smooth)) / calRef
}

// scaledElapsed is the phase's wall time up to end, less the calibrations,
// in reference time.
func (c *calibrator) scaledElapsed(end time.Duration) time.Duration {
	c.mu.Lock()
	ps := append([]calPoint(nil), c.points...)
	c.mu.Unlock()
	if len(ps) == 0 {
		return end
	}
	total := 0.0
	prev := calPoint{smooth: ps[0].smooth}
	for _, p := range ps {
		work := (p.at - prev.at) - (p.held - prev.held)
		if p.at >= end {
			work = end - prev.at
		}
		total += float64(work) * (prev.smooth + p.smooth) / 2 / calRef
		if p.at >= end {
			break
		}
		prev = p
	}
	return time.Duration(total)
}
