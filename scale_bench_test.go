package pchls

// Scaling benchmark lane: synthesis wall-time on seeded random graphs of
// 100, 300 and 1000 computation nodes, comparing the scaling engine
// (auto-selected SDC windows, incremental compatibility maintenance,
// hierarchical decomposition — the default Config) against the
// pre-refactor path (exhaustive per-candidate windows, no decomposition).
// scripts/benchcompare gates the scale-mode budgets and the
// legacy-over-scale speedup ratios against results/BENCH_scaling.json.
//
//	go test -bench Scaling -benchtime 1x .

import (
	"context"
	"os"
	"runtime/pprof"
	"testing"

	"pchls/internal/gen"
)

// scalingTier is one (shape, size) point of the lane.
type scalingTier struct {
	name   string
	preset gen.Preset
	nodes  int
	// connect bridges the generated graph into a single weakly-connected
	// component (gen.GraphConfig.Connect). Connected tiers exercise the
	// min-cut decomposition, and their legacy mode is the serial
	// monolithic SDC pass (Partition off) rather than the exhaustive
	// pre-refactor engine — the comparison the min-cut speedup floor is
	// defined against.
	connect bool
}

// scalingTiers is the published tier set; benchcompare's min_speedup map
// keys match the tier names here.
var scalingTiers = []scalingTier{
	{"layered-n100", gen.PresetLayered, 100, false},
	{"layered-n300", gen.PresetLayered, 300, false},
	{"blocks-n300", gen.PresetBlocks, 300, false},
	{"layered-n1000", gen.PresetLayered, 1000, false},
	{"blocks-n1000", gen.PresetBlocks, 1000, false},
	{"layered-n1000-connected", gen.PresetLayered, 1000, true},
	{"mixed-n1000-connected", gen.PresetMixed, 1000, true},
}

// scalingPoint derives the tier's seeded instance and its binding
// constraint point: 50% deadline slack over the fastest-module ASAP
// length, power capped at 70% of the unconstrained ASAP peak. The point
// is deterministic in the tier (fixed seed).
func scalingPoint(tb testing.TB, tier scalingTier) (*Graph, *Library, Constraints) {
	tb.Helper()
	cfg, err := gen.PresetConfig(tier.preset, tier.nodes)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Connect = tier.connect
	inst := gen.NewInstance(int64(1000+tier.nodes), gen.InstanceConfig{Graph: cfg})
	asap, err := ASAP(inst.Graph, UniformFastest(inst.Library))
	if err != nil {
		tb.Fatal(err)
	}
	return inst.Graph, inst.Library, Constraints{
		Deadline: asap.Length() + asap.Length()/2,
		PowerMax: asap.PeakPower() * 0.7,
	}
}

// scalingInstance is scalingPoint verified feasible outside any timer,
// loosening the cap in 20% steps only as a safety valve (the published
// tiers all accept the first point).
func scalingInstance(b *testing.B, tier scalingTier) (*Graph, *Library, Constraints) {
	b.Helper()
	g, lib, cons := scalingPoint(b, tier)
	for tries := 0; ; tries++ {
		if _, err := Synthesize(g, lib, cons, Config{}); err == nil {
			break
		}
		switch {
		case cons.PowerMax <= 0:
			b.Fatalf("%s: unconstrained point infeasible: deadline too tight", tier.name)
		case tries >= 3:
			cons.PowerMax = 0 // latency-only fallback
		default:
			cons.PowerMax *= 1.2
		}
	}
	return g, lib, cons
}

// BenchmarkScaling runs every tier in both engine modes. The legacy mode
// of the n=100 tier doubles as the control: below the auto thresholds
// both modes take the identical code path, so their times must agree.
func BenchmarkScaling(b *testing.B) {
	for _, tier := range scalingTiers {
		modes := []struct {
			tag string
			cfg Config
		}{
			{"scale", Config{}},
			{"legacy", Config{Windows: WindowsExhaustive, Partition: PartitionOff}},
		}
		if tier.connect {
			// Connected tiers measure the min-cut decomposition, whose
			// published floor is against the serial monolithic SDC pass
			// (the previous default for a single-component graph), not
			// the exhaustive engine.
			modes[1].cfg = Config{Partition: PartitionOff}
		}
		g, lib, cons := scalingInstance(b, tier)
		for _, mode := range modes {
			b.Run(tier.name+"/"+mode.tag, func(b *testing.B) {
				// One exhaustive-legacy pass over an n=1000 graph takes
				// ~20 minutes (it is the O(n^3) path this lane exists to
				// retire), so the full-ratio run is opt-in: `make
				// bench-scaling` sets the variable; plain `-bench .`
				// smokes stay fast. The connected tiers' legacy mode is
				// the serial SDC pass (seconds, not minutes) and always
				// runs.
				if mode.tag == "legacy" && tier.nodes >= 1000 && !tier.connect && os.Getenv("PCHLS_SCALING_FULL") == "" {
					b.Skip("legacy n>=1000 tier skipped; set PCHLS_SCALING_FULL=1 (make bench-scaling)")
				}
				b.ReportAllocs()
				var st Stats
				pprof.Do(context.Background(),
					pprof.Labels("graph", tier.name, "mode", mode.tag, "lane", "scaling"),
					func(context.Context) {
						for i := 0; i < b.N; i++ {
							d, err := Synthesize(g, lib, cons, mode.cfg)
							if err != nil {
								b.Fatal(err)
							}
							st = d.Stats
						}
					})
				b.ReportMetric(float64(st.SDCDerivations), "sdc-derivations")
				b.ReportMetric(float64(st.CompatPatches), "compat-patches")
				b.ReportMetric(float64(st.Regions), "regions")
			})
		}
	}
}
