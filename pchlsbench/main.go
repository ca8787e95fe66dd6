// Command pchlsbench is the pchls benchmark. It runs one named workload
// against the public entry points of the internal/* layers, checks every
// output, and prints each metric by name with its unit and direction.
//
//	bash pchlsbench/run.sh --workload classic-grid --seed 1 --seconds 20 --trace 0
//
// With -trace 0 it reports the end-to-end metrics of one timed phase. With
// -trace 1 it runs an untraced and a traced phase of half the length each
// and reports the per-layer metrics, including the tracing overhead (the
// change in ops_per_s between the two phases). The last line of standard
// output is always one JSON object with the keys correct, attempted,
// failed and metrics; everything above it is the human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named input set. A workload value is set up once and
// then runs one or more timed phases.
type workload interface {
	// setup derives every input from the seed and prepares what the timed
	// phase needs (feasibility probes, reference bytes, a served daemon).
	// tr is nil outside traced runs.
	setup(seed int64, seconds int, tr *tracer) error
	// inputs describes the generated inputs: their digest and measured
	// properties.
	inputs() inputInfo
	// run executes one closed-loop phase within the budget.
	run(b budget, tr *tracer) *phase
	// reset returns the workload to its just-set-up state between two
	// phases (a fresh daemon with a cold cache for serve-mix).
	reset() error
	// qor returns the workload's deterministic quality of results: the
	// summed area of one pass's feasible designs and the feasible share of
	// its points.
	qor() (area, feasibleRatio float64)
	// sample returns one of the workload's inputs, for companion probes.
	sample() probeInput
	close()
}

// inputInfo is what a workload reports about its generated inputs.
type inputInfo struct {
	Digest     string         `json:"digest"`
	Properties map[string]any `json:"properties"`
}

// tailPercentiles fixes, per workload, the percentile latency_ms_tail
// reports, and no run reports another. It is the highest of p99.9, p99,
// p95, p90 and p75 that a run of the default length keeps at least ten
// samples beyond with a margin, except where a higher one was not steady
// between runs: classic-grid's p99 rests on the three slowest of its 300
// points and moved by 12% (quartile distance over median) between runs,
// so it reports p95 (about 60 samples beyond); serve-mix's p99.9 is set by
// the slowest 1% of inline misses, which the seed draws, and moved by 15%,
// so it reports p99 (about 900 beyond). scale-mix completes about 60 ops
// (ten passes of six tiers) in 30 s, so p75, which needs 40, is its rung;
// it falls in the second slowest tier. A run short of samples at its
// deadline goes on for at most twice its length (budget).
var tailPercentiles = map[string]float64{
	"classic-grid": 95,
	"scale-mix":    75,
	"serve-mix":    99,
}

var workloads = map[string]func() workload{
	"classic-grid": func() workload { return &classicGrid{} },
	"scale-mix":    func() workload { return &scaleMix{} },
	"serve-mix":    func() workload { return &serveMix{} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// A run sets its workload up in rounds: each round sets it up until the
// round has lasted setupRound (once at least), and a calibration (the
// median of setupCalibrations) brackets every round. Rounds go on until
// there are minSetups set-ups and either setupRounds rounds or
// setupBudget of set-up time in total. A round's mean set-up time is
// scaled by the mean rate of its two calibrations, and setup_s is the
// median over rounds. The mean, like the kernel's rate, counts the
// moments the machine stalled the process; the median of sub-millisecond
// set-ups skipped them and read 25% (quartile distance over median) apart
// between runs once scaled. Multi-second set-ups run minSetups rounds of
// one.
const (
	minSetups   = 3
	setupRounds = 8
	setupRound  = 100 * time.Millisecond
	setupBudget = time.Second
)

// setupWorkload sets a workload up as above and returns the last one set
// up, with setup_s in reference and in wall-clock seconds. Only the first
// set-up is traced.
func setupWorkload(mk func() workload, seed int64, seconds int, tr *tracer) (workload, float64, float64, error) {
	var w workload
	var scaled, wall []float64
	setups, total := 0, time.Duration(0)
	rate := medianRate(setupCalibrations)
	for round := 0; setups < minSetups || (round < setupRounds && total < setupBudget); round++ {
		var took time.Duration
		n := 0
		for start := time.Now(); n == 0 || time.Since(start) < setupRound; n++ {
			if w != nil {
				w.close()
			}
			w = mk()
			s := time.Now()
			if err := w.setup(seed, seconds, tr); err != nil {
				w.close()
				return nil, 0, 0, err
			}
			d := time.Since(s)
			tr = nil
			took += d
			if d > 50*time.Millisecond {
				runtime.GC() // drop a large set-up's inputs before the next
			}
		}
		next := medianRate(setupCalibrations)
		mean := took.Seconds() / float64(n)
		scaled = append(scaled, mean*(rate+next)/2/calRef)
		wall = append(wall, mean)
		setups += n
		total += took
		rate = next
	}
	return w, median(scaled), median(wall), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pchlsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: every input is derived from it")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced phase and reports per-layer metrics")
	out := fs.String("out", "", "directory for the run record and the trace (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "pchlsbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	w, setup, wallSetup, err := setupWorkload(mk, *seed, *seconds, tr)
	if err != nil {
		fmt.Fprintf(stderr, "pchlsbench: %s setup: %v\n", *name, err)
		return 1
	}
	defer w.close()
	info := w.inputs()

	rec := record{
		Workload: *name,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace,
		Machine:  machineInfo(),
		Inputs:   info,
	}
	var res resultLine
	if *trace == 0 {
		want := tailPercentiles[*name]
		ph := w.run(newBudget(time.Duration(*seconds)*time.Second, minOpsFor(want)), nil)
		area, feas := w.qor()
		res = resultLine{
			Correct:   ph.failed == 0,
			Attempted: ph.attempted,
			Failed:    ph.failed,
			Metrics:   endToEnd(ph, want, setup, wallSetup, area, feas, &rec),
		}
		rec.Failures = ph.failures
		rec.Notes = ph.notes
	} else {
		half := time.Duration(*seconds) * time.Second / 2
		plain := w.run(newBudget(half, 0), nil)
		if err := w.reset(); err != nil {
			fmt.Fprintf(stderr, "pchlsbench: %s reset: %v\n", *name, err)
			return 1
		}
		traced := w.run(newBudget(half, 0), tr)
		res = resultLine{
			Correct:   plain.failed == 0 && traced.failed == 0,
			Attempted: plain.attempted + traced.attempted,
			Failed:    plain.failed + traced.failed,
			Metrics:   perLayer(w, plain, traced, tr),
		}
		rec.Failures = append(plain.failures, traced.failures...)
		rec.Layers = tr.summary()
		rec.Calibration = []calSummary{plain.cal, traced.cal}
		for _, n := range plain.notes {
			rec.Notes = append(rec.Notes, "untraced phase: "+n)
		}
		for _, n := range traced.notes {
			rec.Notes = append(rec.Notes, "traced phase: "+n)
		}
		if *out != "" {
			if err := tr.write(filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))); err != nil {
				fmt.Fprintf(stderr, "pchlsbench: writing trace: %v\n", err)
				return 1
			}
		}
	}
	rec.Result = res
	rec.print(stdout)
	if *out != "" {
		if err := rec.write(filepath.Join(*out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace))); err != nil {
			fmt.Fprintf(stderr, "pchlsbench: writing record: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "pchlsbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEnd derives the end-to-end metrics of an untraced phase. Times are
// in reference time (calib.go); the plain wall-clock figures go into rec.
func endToEnd(ph *phase, tailP, setup, wallSetup, area, feasibleRatio float64, rec *record) map[string]metric {
	scaled := ph.latencies(true)
	tail := percentile(scaled, tailP)
	rec.Tail = fmt.Sprintf("p%g over %d samples (%d beyond it)", tailP, len(scaled), samplesBeyond(len(scaled), tailP))
	wall := ph.latencies(false)
	wallTail := percentile(wall, tailP)
	rec.Calibration = []calSummary{ph.cal}
	ops := float64(ph.attempted)
	rec.Wall = map[string]float64{
		"ops_per_s":       ops / ph.elapsed.Seconds(),
		"latency_ms_p50":  median(wall),
		"latency_ms_tail": wallTail,
		"scale":           ph.elapsed.Seconds() / ph.scaled.Seconds(),
		"setup_s":         wallSetup,
	}
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"ops_per_s":       {ops / ph.scaled.Seconds(), "1/s"},
		"latency_ms_p50":  {median(scaled), "ms"},
		"latency_ms_tail": {tail, "ms"},
		"area_total":      {area, "area"},
		"feasible_ratio":  {feasibleRatio, "ratio"},
		"ok_ratio":        {1 - float64(ph.failed)/ops, "ratio"},
		"alloc_mb_per_op": {float64(ph.allocBytes) / 1e6 / ops, "MB"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
}

// machineInfo records the machine and the build a result came from.
func machineInfo() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), or NaN
// where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// record is everything one run reports, printed above the result line and
// written to the -out directory.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    int                `json:"trace"`
	Machine  map[string]any     `json:"machine"`
	Inputs   inputInfo          `json:"inputs"`
	Tail     string             `json:"tail,omitempty"`
	Wall     map[string]float64 `json:"wall,omitempty"` // the same figures in wall-clock time
	// Calibration describes each timed phase's calibrations (calib.go).
	Calibration []calSummary `json:"calibration"`
	// Notes are workload observations for the report (serve-mix latency
	// split by cache outcome, request rate, stream use).
	Notes    []string       `json:"notes,omitempty"`
	Layers   []layerSummary `json:"layers,omitempty"`
	Failures []string       `json:"failures,omitempty"`
	Result   resultLine     `json:"result"`
}

func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "pchlsbench workload=%s seed=%d seconds=%d trace=%d\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	m, _ := json.Marshal(r.Machine)
	fmt.Fprintf(w, "machine %s\n", m)
	fmt.Fprintf(w, "inputs digest=%s\n", r.Inputs.Digest)
	p, _ := json.Marshal(r.Inputs.Properties)
	fmt.Fprintf(w, "inputs %s\n", p)
	if r.Tail != "" {
		fmt.Fprintf(w, "latency_ms_tail is %s\n", r.Tail)
		wall, _ := json.Marshal(r.Wall)
		fmt.Fprintf(w, "wall-clock figures %s\n", wall)
	}
	for _, c := range r.Calibration {
		b, _ := json.Marshal(c)
		fmt.Fprintf(w, "calibration %s\n", b)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s\n", n)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "%-24s %8s %12s %12s %12s\n", "span", "count", "self_ms", "total_ms", "median_us")
		for _, l := range r.Layers {
			fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f %12.3f\n", l.Name, l.Count, l.SelfMS, l.TotalMS, l.MedianUS)
		}
	}
	for i, f := range r.Failures {
		if i == 10 {
			fmt.Fprintf(w, "... %d more failures\n", len(r.Failures)-i)
			break
		}
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	names := make([]string, 0, len(r.Result.Metrics))
	for n := range r.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Result.Metrics[n]
		fmt.Fprintf(w, "%-32s %16.6g %-8s %s\n", n, m.Value, m.Unit, better(n))
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d fail_ratio=%.6g\n",
		r.Result.Correct, r.Result.Attempted, r.Result.Failed, float64(r.Result.Failed)/math.Max(1, float64(r.Result.Attempted)))
}

func (r *record) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, b)
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// better names the direction in which a metric improves.
func better(name string) string {
	if d, ok := direction[name]; ok {
		return d
	}
	return ""
}

var direction = map[string]string{
	"setup_s":         "lower",
	"ops_per_s":       "higher",
	"latency_ms_p50":  "lower",
	"latency_ms_tail": "lower",
	"area_total":      "lower",
	"feasible_ratio":  "higher",
	"ok_ratio":        "higher",
	"alloc_mb_per_op": "lower",
	"peak_rss_mb":     "lower",
}
