package pchls

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pchls/internal/core"
	"pchls/internal/explore"
	"pchls/internal/gen"
)

// Golden design digests: SHA-256 of each design for fixed constraint
// points, checked in under testdata/golden_digests.txt. They anchor byte
// identity across engine changes as data rather than as a second engine:
// any change to a schedule, binding, register allocation or area shows up
// as a digest mismatch.
//
// The scale and best sets hash Design.JSON() alone (designDigest):
//   - scale/<tier>: single-pass Synthesize with the auto Config on the
//     BenchmarkScaling tiers that cross the SDC, partition and min-cut
//     thresholds, at their published constraint point (scalingPoint).
//   - best/<bench>/T<deadline>/P<cap>: SynthesizeBest at every cap of the
//     Figure 2 power grid for the six Figure 2 curves plus fir16, ar,
//     diffeq2 and fft8 at their fastest-ASAP length + 3.
//
// The remaining sets also hash the report (which renders the decision
// log) and every decision's Cost bit-exactly (fullDigest):
//   - single/<bench>/T<deadline>/P<cap>: single-pass Synthesize on the
//     seven paper benchmarks over goldenGrid.
//   - unconstrained/<bench>/T<deadline>: single-pass Synthesize without a
//     power cap at the fastest-ASAP length and 4 cycles beyond it.
//   - clique/<bench>/T<deadline>/P<cap>: SynthesizeCliquePartition at the
//     fastest-ASAP length + 3 and 0.8 times the ASAP peak power.
//   - portfolio/hal/T17/P<cap>: SynthesizeBest on hal at four caps.
//   - gen/<seed>: single-pass Synthesize on goldenGenSeeds small generated
//     instances at their own constraint point, with the Config variant
//     goldenGenConfig picks for the seed.
//
// An infeasible point is recorded as the digest "infeasible".
//
// Under the race detector the best/ power grid and the generated instances
// are checked at every goldenRaceStride-th point only, which keeps the test's
// -race time under 30 s on two cores; the plain run checks every point. On
// a mismatch the test logs the freshly computed file; an intended output
// change replaces testdata/golden_digests.txt with it.

const goldenDigestFile = "golden_digests.txt"

// goldenScaleTiers are the scaling tiers with a checked-in digest.
var goldenScaleTiers = []string{
	"layered-n100", "layered-n300", "blocks-n300", "blocks-n1000",
	"layered-n1000-connected", "mixed-n1000-connected",
}

// goldenExtraCurves are the benchmarks beyond Figure 2, each at its
// fastest-ASAP length plus goldenSlack.
var goldenExtraCurves = []string{"fir16", "ar", "diffeq2", "fft8"}

const goldenSlack = 3

// goldenRaceStride thins the best/ power grid and the generated instances
// under the race detector.
const goldenRaceStride = 5

// goldenBenchmarks are the seven paper benchmarks.
var goldenBenchmarks = []string{"hal", "cosine", "elliptic", "fir16", "ar", "diffeq2", "fft8"}

// goldenGenSeeds is the number of generated instances (seeds 0 to
// goldenGenSeeds-1).
const goldenGenSeeds = 200

// goldenGrid is, per benchmark, the union of the (T, P<) points the
// exploration surfaces exercise: the Figure 2 power sweep at T = cp+3, the
// time sweep at P = 0.8*peak and the 3x3 surface grid. The power values
// are accumulated with the same repeated additions the sweep engine uses,
// so they are bit-identical to the explored points. The time sweep and
// the surface share two points; those are listed once.
func goldenGrid(cp int, peak float64) []Constraints {
	var grid []Constraints
	seen := map[Constraints]bool{}
	add := func(c Constraints) {
		if !seen[c] {
			seen[c] = true
			grid = append(grid, c)
		}
	}
	for p := peak / 4; p <= peak*1.25+1e-9; p += peak / 4 {
		add(Constraints{Deadline: cp + 3, PowerMax: p})
	}
	for T := cp; T <= cp+4; T += 2 {
		add(Constraints{Deadline: T, PowerMax: peak * 0.8})
	}
	for _, T := range []int{cp, cp + 2, cp + 5} {
		for _, p := range []float64{peak * 0.5, peak * 0.8, peak * 1.1} {
			add(Constraints{Deadline: T, PowerMax: p})
		}
	}
	return grid
}

// goldenGenInstance is the seed'th small generated instance: 4 to 33
// computation nodes, with the op mix, library richness and voltage levels
// cycling with the seed.
func goldenGenInstance(seed int64) gen.Instance {
	return gen.NewInstance(seed, gen.InstanceConfig{
		Graph: gen.GraphConfig{
			Nodes:       4 + int(seed%30),
			MaxWidth:    2 + int(seed%3),
			EdgeDensity: 0.3 + 0.15*float64(seed%5),
			MulFraction: 0.15 + 0.1*float64(seed%4),
			CmpFraction: 0.1,
		},
		Library: gen.LibraryConfig{
			ModulesPerOp: 1 + int(seed%3),
			DelayMax:     1 + int(seed%4),
			ALUChance:    float64(seed%2) * 0.5,
			Levels:       1 + int(seed%3),
		},
	})
}

// goldenGenConfig cycles the generated instances through the plain search,
// a seeded perturbation, palap-end placement and the skipped area descent.
func goldenGenConfig(seed int64) Config {
	switch seed % 4 {
	case 1:
		return Config{Perturb: core.Perturb{Seed: seed, Jitter: 0.2, ShuffleTies: true}}
	case 2:
		return Config{Perturb: core.Perturb{PlaceLate: true}}
	case 3:
		return Config{SkipAreaDescent: true}
	}
	return Config{}
}

// fastestASAP returns the critical path and peak power of g's ASAP
// schedule under the fastest modules.
func fastestASAP(t *testing.T, g *Graph, lib *Library) (int, float64) {
	t.Helper()
	asap, err := ASAP(g, UniformFastest(lib))
	if err != nil {
		t.Fatal(err)
	}
	return asap.Length(), asap.PeakPower()
}

// goldenCase computes the digests of one group of golden entries.
type goldenCase struct {
	name string
	run  func(t *testing.T) []goldenEntry
}

type goldenEntry struct{ name, digest string }

func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	for _, name := range goldenScaleTiers {
		var tier scalingTier
		for _, st := range scalingTiers {
			if st.name == name {
				tier = st
			}
		}
		if tier.name == "" {
			t.Fatalf("unknown scaling tier %q", name)
		}
		cases = append(cases, goldenCase{"scale/" + name, func(t *testing.T) []goldenEntry {
			g, lib, cons := scalingPoint(t, tier)
			d, err := Synthesize(g, lib, cons, Config{})
			return []goldenEntry{{"scale/" + name, designDigest(t, d, err)}}
		}})
	}
	type curve struct {
		name     string
		deadline int
	}
	var curves []curve
	for _, s := range explore.Figure2Specs() {
		curves = append(curves, curve{s.Benchmark, s.Deadline})
	}
	lib := Table1()
	for _, name := range goldenExtraCurves {
		g, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		asap, err := ASAP(g, UniformFastest(lib))
		if err != nil {
			t.Fatal(err)
		}
		curves = append(curves, curve{name, asap.Length() + goldenSlack})
	}
	pmin, pmax, step := explore.DefaultGrid()
	for _, c := range curves {
		prefix := fmt.Sprintf("best/%s/T%d", c.name, c.deadline)
		cases = append(cases, goldenCase{prefix, func(t *testing.T) []goldenEntry {
			g, err := Benchmark(c.name)
			if err != nil {
				t.Fatal(err)
			}
			var out []goldenEntry
			for i, p := 0, pmin; p <= pmax+1e-9; i, p = i+1, p+step {
				if raceEnabled && i%goldenRaceStride != 0 {
					continue
				}
				d, err := SynthesizeBest(g, lib, Constraints{Deadline: c.deadline, PowerMax: p}, Config{})
				out = append(out, goldenEntry{fmt.Sprintf("%s/P%g", prefix, p), designDigest(t, d, err)})
			}
			return out
		}})
	}
	type paper struct {
		name string
		g    *Graph
		cp   int
		peak float64
	}
	var papers []paper
	for _, name := range goldenBenchmarks {
		g, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		cp, peak := fastestASAP(t, g, lib)
		papers = append(papers, paper{name, g, cp, peak})
	}
	for _, b := range papers {
		cases = append(cases, goldenCase{"single/" + b.name, func(t *testing.T) []goldenEntry {
			var out []goldenEntry
			for _, cons := range goldenGrid(b.cp, b.peak) {
				d, err := Synthesize(b.g, lib, cons, Config{})
				out = append(out, goldenEntry{fmt.Sprintf("single/%s/T%d/P%g", b.name, cons.Deadline, cons.PowerMax), fullDigest(t, d, err)})
			}
			return out
		}})
	}
	cases = append(cases, goldenCase{"unconstrained", func(t *testing.T) []goldenEntry {
		var out []goldenEntry
		for _, b := range papers {
			for _, T := range []int{b.cp, b.cp + 4} {
				d, err := Synthesize(b.g, lib, Constraints{Deadline: T}, Config{})
				out = append(out, goldenEntry{fmt.Sprintf("unconstrained/%s/T%d", b.name, T), fullDigest(t, d, err)})
			}
		}
		return out
	}})
	cases = append(cases, goldenCase{"clique", func(t *testing.T) []goldenEntry {
		var out []goldenEntry
		for _, b := range papers {
			cons := Constraints{Deadline: b.cp + 3, PowerMax: b.peak * 0.8}
			d, err := SynthesizeCliquePartition(b.g, lib, cons, Config{})
			out = append(out, goldenEntry{fmt.Sprintf("clique/%s/T%d/P%g", b.name, cons.Deadline, cons.PowerMax), fullDigest(t, d, err)})
		}
		return out
	}})
	cases = append(cases, goldenCase{"portfolio/hal", func(t *testing.T) []goldenEntry {
		var out []goldenEntry
		for _, p := range []float64{5, 10, 20, 30} {
			d, err := SynthesizeBest(MustBenchmark("hal"), lib, Constraints{Deadline: 17, PowerMax: p}, Config{})
			out = append(out, goldenEntry{fmt.Sprintf("portfolio/hal/T17/P%g", p), fullDigest(t, d, err)})
		}
		return out
	}})
	cases = append(cases, goldenCase{"gen", func(t *testing.T) []goldenEntry {
		var out []goldenEntry
		for seed := int64(0); seed < goldenGenSeeds; seed++ {
			if raceEnabled && seed%goldenRaceStride != 0 {
				continue
			}
			inst := goldenGenInstance(seed)
			d, err := Synthesize(inst.Graph, inst.Library, Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}, goldenGenConfig(seed))
			out = append(out, goldenEntry{fmt.Sprintf("gen/%d", seed), fullDigest(t, d, err)})
		}
		return out
	}})
	return cases
}

// designDigest is the hex SHA-256 of the design's JSON, or "infeasible"
// when synthesis failed with ErrInfeasible.
func designDigest(t *testing.T, d *Design, err error) string {
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
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:])
}

// fullDigest is the hex SHA-256 of the design's JSON, its report and the
// IEEE-754 bits of every decision's Cost, or "infeasible" when synthesis
// failed with ErrInfeasible.
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

// readGoldenDigests parses "name digest" lines.
func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", goldenDigestFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenDigestFile, line)
		}
		want[name] = strings.TrimSpace(sum)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestGoldenDesignDigests(t *testing.T) {
	want := readGoldenDigests(t)
	cases := goldenCases(t)
	got := make([][]goldenEntry, len(cases))
	t.Run("group", func(t *testing.T) {
		for i, c := range cases {
			i, c := i, c
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				got[i] = c.run(t)
				for _, e := range got[i] {
					if w, ok := want[e.name]; !ok {
						t.Errorf("%s: no checked-in digest", e.name)
					} else if e.digest != w {
						t.Errorf("%s: digest %s, want %s", e.name, e.digest, w)
					}
				}
			})
		}
	})
	n := 0
	for _, es := range got {
		n += len(es)
	}
	if !raceEnabled && n != len(want) {
		t.Errorf("%s has %d digests, the test computes %d", goldenDigestFile, len(want), n)
	}
	if t.Failed() {
		var sb strings.Builder
		for _, es := range got {
			for _, e := range es {
				fmt.Fprintf(&sb, "%s %s\n", e.name, e.digest)
			}
		}
		t.Logf("freshly computed %s:\n%s", goldenDigestFile, sb.String())
	}
}
