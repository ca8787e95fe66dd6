package pchls

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pchls/internal/explore"
)

// Golden design digests: SHA-256 of Design.JSON() for fixed constraint
// points, checked in under testdata/golden_digests.txt. They anchor byte
// identity across engine changes as data rather than as a second engine:
// any change to a schedule, binding, register allocation or area shows up
// as a digest mismatch.
//
// Two sets are covered:
//   - scale/<tier>: single-pass Synthesize with the auto Config on the
//     BenchmarkScaling tiers that cross the SDC, partition and min-cut
//     thresholds, at their published constraint point (scalingPoint).
//   - best/<bench>/T<deadline>/P<cap>: SynthesizeBest at every cap of the
//     Figure 2 power grid for the six Figure 2 curves plus fir16, ar,
//     diffeq2 and fft8 at their fastest-ASAP length + 3. An infeasible
//     cap is recorded as the digest "infeasible".
//
// Under the race detector the grid is checked at every goldenRaceStride-th
// cap only, which keeps the test's -race time under 30 s on two cores; the
// plain run checks every cap. On a mismatch the test logs the freshly
// computed file; an intended output change replaces
// testdata/golden_digests.txt with it.

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

// goldenRaceStride thins the power grid under the race detector.
const goldenRaceStride = 5

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
