package experiments

import (
	"math"
	"strings"
	"testing"

	"prism5g/internal/mobility"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
)

func sweepConfig(seed uint64) MLConfig {
	return MLConfig{
		Traces: 3, SamplesPerTrace: 150, Stride: 3,
		Hidden: 8, Epochs: 4, Patience: 3, Seed: seed,
		Models: []string{"LSTM", "Prism5G"},
	}
}

func TestRobustnessSweep(t *testing.T) {
	spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Walking, Gran: sim.Long}
	severities := []float64{0, 0.6}
	res := RobustnessSweep(spec, severities, sweepConfig(7))

	if len(res.Cells) != len(severities)*2 {
		t.Fatalf("got %d cells, want %d", len(res.Cells), len(severities)*2)
	}
	for _, c := range res.Cells {
		if math.IsNaN(c.RMSE) || math.IsInf(c.RMSE, 0) {
			t.Fatalf("%s@%.2f: RMSE %v", c.Model, c.Severity, c.RMSE)
		}
		if c.Severity == 0 {
			if c.Injected != 0 {
				t.Fatalf("clean row reports %d injections", c.Injected)
			}
			if c.DegradationPct != 0 {
				t.Fatalf("clean row reports degradation %v", c.DegradationPct)
			}
		} else {
			if c.Injected == 0 {
				t.Fatalf("%s@%.2f: no faults injected", c.Model, c.Severity)
			}
			if c.Repaired == 0 {
				t.Fatalf("%s@%.2f: nothing repaired", c.Model, c.Severity)
			}
		}
	}
	out := res.Format()
	for _, want := range []string{"Severity", "LSTM", "Prism5G", "0.60"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
	}
}

// The clean row of the sweep is the plain Table 4 protocol: both run the
// same cell function, so the RMSE must match bit for bit.
func TestRobustnessSweepCleanRowMatchesTable4(t *testing.T) {
	spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Walking, Gran: sim.Long}
	cfg := sweepConfig(11)
	cfg.Models = []string{"LSTM"}

	res := RobustnessSweep(spec, []float64{0}, cfg)
	cell, ok := res.Cell(0, "LSTM")
	if !ok {
		t.Fatal("clean cell missing")
	}
	cells := Table4Cell(spec, cfg)
	if len(cells) != 1 {
		t.Fatalf("Table4Cell returned %d cells", len(cells))
	}
	if math.Float64bits(cell.RMSE) != math.Float64bits(cells[0].RMSE) {
		t.Fatalf("clean sweep RMSE %v != Table4 RMSE %v", cell.RMSE, cells[0].RMSE)
	}
	if cell.Retries != 0 || cell.Fallback || cell.SkippedWindows != 0 {
		t.Fatalf("clean row shows interventions: %+v", cell)
	}
}
