package sim

import (
	"testing"

	"prism5g/internal/mobility"
	"prism5g/internal/ran"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// ulRunConfig is a short urban driving run, the paper's richest-CA setting.
func ulRunConfig(seed uint64, ratio float64) RunConfig {
	return RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Driving,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 30, StepS: 0.1, Seed: seed,
		Direction: trace.DirectionUL, UL: ran.ULConfig{GrantRatio: ratio},
	}
}

// TestULGrantRatioMonotone pins the UL:DL asymmetry knob: at a fixed seed,
// uplink goodput must grow monotonically with the grant ratio, and the
// extremes must differ materially (the knob is not a no-op).
func TestULGrantRatioMonotone(t *testing.T) {
	ratios := []float64{0.2, 0.5, 0.8}
	var means []float64
	for _, r := range ratios {
		_, stats := Run(ulRunConfig(7, r))
		means = append(means, stats.MeanAggMbps)
	}
	for i := 1; i < len(means); i++ {
		if means[i] < means[i-1] {
			t.Fatalf("UL throughput not monotone in grant ratio: ratio %.1f -> %.1f Mbps, ratio %.1f -> %.1f Mbps",
				ratios[i-1], means[i-1], ratios[i], means[i])
		}
	}
	if means[len(means)-1] <= means[0]*1.5 {
		t.Fatalf("grant ratio barely moves UL throughput: %.1f Mbps at 0.2 vs %.1f Mbps at 0.8",
			means[0], means[len(means)-1])
	}
}

// TestULFewerCCs pins the shallow UL CA: an uplink run never activates more
// carriers than the uplink's cap of 2 even when the same campaign's
// downlink runs deeper, and the uplink aggregate stays below the downlink
// one.
func TestULFewerCCs(t *testing.T) {
	cfg := ulRunConfig(11, 0.35)
	trUL, stUL := Run(cfg)

	dl := cfg
	dl.Direction = trace.DirectionDL
	_, stDL := Run(dl)

	if stDL.MaxActiveCCs < 3 {
		t.Skipf("campaign never built deep CA (max %d CCs); pick another seed", stDL.MaxActiveCCs)
	}
	if stUL.MaxActiveCCs > 2 {
		t.Fatalf("UL activated %d CCs; the asymmetric schedule caps at 2", stUL.MaxActiveCCs)
	}
	for i, s := range trUL.Samples {
		if s.NumActiveCCs > 2 {
			t.Fatalf("sample %d: %d active UL CCs (cap 2)", i, s.NumActiveCCs)
		}
	}
	if trUL.Meta.Direction != trace.DirectionUL {
		t.Fatalf("UL trace direction = %q, want %q", trUL.Meta.Direction, trace.DirectionUL)
	}
	if stUL.MeanAggMbps >= stDL.MeanAggMbps {
		t.Fatalf("UL mean %.1f Mbps >= DL mean %.1f Mbps; uplink must be the scarcer link",
			stUL.MeanAggMbps, stDL.MeanAggMbps)
	}
}

// TestDLUnaffectedByULKnobs pins that downlink runs ignore the UL schedule:
// the direction field and UL config must not perturb a single DL byte.
func TestDLUnaffectedByULKnobs(t *testing.T) {
	base := ulRunConfig(13, 0.8)
	base.Direction = trace.DirectionDL
	withKnobs, _ := Run(base)
	plain := base
	plain.UL = ran.ULConfig{}
	ref, _ := Run(plain)
	if len(withKnobs.Samples) != len(ref.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(withKnobs.Samples), len(ref.Samples))
	}
	for i := range ref.Samples {
		if withKnobs.Samples[i] != ref.Samples[i] {
			t.Fatalf("sample %d differs between DL runs with and without UL knobs", i)
		}
	}
}

// TestULBuildDataset pins direction plumbing through the dataset builder:
// every trace of an UL build carries the direction tag and the 2-CC cap.
func TestULBuildDataset(t *testing.T) {
	spec := SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Walking, Gran: Long}
	ds := Build(spec, BuildOpts{
		Traces: 2, SamplesPerTrace: 30, Seed: 3, Modem: ran.ModemX70,
		Direction: trace.DirectionUL,
	})
	if len(ds.Traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(ds.Traces))
	}
	for ti, tr := range ds.Traces {
		if tr.Meta.Direction != trace.DirectionUL {
			t.Fatalf("trace %d direction = %q", ti, tr.Meta.Direction)
		}
		for i, s := range tr.Samples {
			if s.NumActiveCCs > 2 {
				t.Fatalf("trace %d sample %d: %d active UL CCs", ti, i, s.NumActiveCCs)
			}
		}
	}
}
