package core

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/library"
	"pchls/internal/runner"
	"pchls/internal/sched"
)

// goldenBenchmarks are the seven paper benchmarks.
var goldenBenchmarks = []string{"hal", "cosine", "elliptic", "fir16", "ar", "diffeq2", "fft8"}

// goldenGrid reproduces, per benchmark, the union of the (T, P<) grid
// points the exploration surfaces in explore/parallel_test.go exercise:
// the Figure 2 power sweep at T = cp+3, the time sweep at P = 0.8*peak,
// and the 3x3 surface grid. The power values are accumulated with the
// same repeated additions the sweep engine uses, so they are
// bit-identical to the explored points.
func goldenGrid(cp int, peak float64) []Constraints {
	var grid []Constraints
	for p := peak / 4; p <= peak*1.25+1e-9; p += peak / 4 {
		grid = append(grid, Constraints{Deadline: cp + 3, PowerMax: p})
	}
	for T := cp; T <= cp+4; T += 2 {
		grid = append(grid, Constraints{Deadline: T, PowerMax: peak * 0.8})
	}
	for _, T := range []int{cp, cp + 2, cp + 5} {
		for _, p := range []float64{peak * 0.5, peak * 0.8, peak * 1.1} {
			grid = append(grid, Constraints{Deadline: T, PowerMax: p})
		}
	}
	return grid
}

// requireSameDesign compares two synthesis outcomes for byte-identical
// equivalence: same error disposition, identical serialized design,
// identical decision log, identical report.
func requireSameDesign(t *testing.T, label string, a, b *Design, aErr, bErr error) {
	t.Helper()
	if (aErr != nil) != (bErr != nil) {
		t.Fatalf("%s: error disposition diverges:\n  first:  %v\n  second: %v", label, aErr, bErr)
	}
	if aErr != nil {
		return
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatalf("%s: first JSON: %v", label, err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatalf("%s: second JSON: %v", label, err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("%s: serialized designs diverge:\n--- first ---\n%s\n--- second ---\n%s", label, aj, bj)
	}
	if !reflect.DeepEqual(a.Decisions, b.Decisions) {
		t.Fatalf("%s: decision logs diverge:\n  first:  %+v\n  second: %+v", label, a.Decisions, b.Decisions)
	}
	if ar, br := a.Report(), b.Report(); ar != br {
		t.Fatalf("%s: reports diverge:\n--- first ---\n%s\n--- second ---\n%s", label, ar, br)
	}
}

// goldenDigestPath is the root package's checked-in digest file. Its
// single/<bench> entries were recorded while the recompute-everything
// evaluation path still existed and agreed with the engine byte for byte.
var goldenDigestPath = filepath.Join("..", "..", "testdata", "golden_digests.txt")

// readSingleDigests returns the single/<bench>/T<deadline>/P<cap> entries
// of the digest file.
func readSingleDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenDigestPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if ok && strings.HasPrefix(name, "single/") {
			want[name] = strings.TrimSpace(sum)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// fullDigest hashes a design the way the root package's golden test does
// for its single/ set: SHA-256 of the JSON, the report and the IEEE-754
// bits of every decision's Cost, or "infeasible".
func fullDigest(t *testing.T, d *Design, err error) string {
	t.Helper()
	if errors.Is(err, ErrInfeasible) {
		return "infeasible"
	}
	if err != nil {
		t.Fatal(err)
	}
	js, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(js)
	h.Write([]byte(d.Report()))
	var b [8]byte
	for _, dec := range d.Decisions {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(dec.Cost))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenEquivalence gates the incremental evaluation engine: for
// every benchmark × (T, P<) grid point exercised by the exploration test
// surfaces, the engine must reproduce the design, report and decision
// costs the recompute-everything path produced, as recorded in the
// single/<bench> digests.
func TestGoldenEquivalence(t *testing.T) {
	want := readSingleDigests(t)
	lib := library.Table1()
	for _, name := range goldenBenchmarks {
		name := name
		t.Run(name, func(t *testing.T) {
			g, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			asap, err := sched.ASAP(g, sched.UniformFastest(lib))
			if err != nil {
				t.Fatal(err)
			}
			for _, cons := range goldenGrid(asap.Length(), asap.PeakPower()) {
				key := fmt.Sprintf("single/%s/T%d/P%g", name, cons.Deadline, cons.PowerMax)
				w, ok := want[key]
				if !ok {
					t.Fatalf("%s: no recorded digest in %s", key, goldenDigestPath)
				}
				d, err := Synthesize(g, lib, cons, Config{})
				if got := fullDigest(t, d, err); got != w {
					t.Errorf("%s: digest %s, want %s", key, got, w)
				}
			}
		})
	}
}

// TestGoldenEquivalenceParallelGrid synthesizes every benchmark × grid
// point concurrently, sharing one graph and one library across all
// workers, and requires the results to be byte-identical to a serial
// rerun. This is the aliasing gate for the scratch-reuse optimizations:
// per-state arenas, flat window tables, the engine's caches and lookup
// slices must never leak between concurrent syntheses. Run under -race
// this emulates what Sweep/ExploreSurface do through runner.Map (the
// facade itself cannot be imported here without a cycle). The designs
// themselves are pinned by the root package's golden digests
// (single/<bench> in testdata/golden_digests.txt).
func TestGoldenEquivalenceParallelGrid(t *testing.T) {
	lib := library.Table1()
	type point struct {
		g    *cdfg.Graph
		name string
		cons Constraints
	}
	var points []point
	for _, name := range goldenBenchmarks {
		g, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		asap, err := sched.ASAP(g, sched.UniformFastest(lib))
		if err != nil {
			t.Fatal(err)
		}
		for _, cons := range goldenGrid(asap.Length(), asap.PeakPower()) {
			points = append(points, point{g: g, name: name, cons: cons})
		}
	}
	type outcome struct {
		json []byte
		err  error
	}
	run := func(workers int) []outcome {
		res, err := runner.Map(context.Background(), len(points), runner.Config{Workers: workers},
			func(_ context.Context, i int) (outcome, error) {
				p := points[i]
				var o outcome
				var d *Design
				if d, o.err = Synthesize(p.g, lib, p.cons, Config{}); o.err == nil {
					if o.json, o.err = d.JSON(); o.err != nil {
						return o, o.err
					}
				}
				return o, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	parallel := run(8)
	serial := run(1)
	for i, p := range points {
		label := fmt.Sprintf("%s T=%d P<=%g", p.name, p.cons.Deadline, p.cons.PowerMax)
		if (parallel[i].err != nil) != (serial[i].err != nil) {
			t.Fatalf("%s: parallel/serial error disposition diverges: %v vs %v", label, parallel[i].err, serial[i].err)
		}
		if !bytes.Equal(parallel[i].json, serial[i].json) {
			t.Fatalf("%s: design differs between parallel and serial run", label)
		}
	}
}
