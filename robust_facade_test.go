package prism5g_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"prism5g"
)

func TestNewBaselineE(t *testing.T) {
	b := smallBundle(t)
	cfg := prism5g.ModelConfig{Hidden: 8, Epochs: 4, Seed: 1}
	p, err := prism5g.NewBaselineE("LSTM", b, cfg)
	if err != nil || p == nil {
		t.Fatalf("LSTM: %v, %v", p, err)
	}
	p, err = prism5g.NewBaselineE("nope", b, cfg)
	if err == nil {
		t.Fatal("unknown baseline returned no error")
	}
	if p != nil {
		t.Fatal("unknown baseline returned a predictor alongside the error")
	}
	if !strings.Contains(err.Error(), "nope") || !strings.Contains(err.Error(), "LSTM") {
		t.Fatalf("error not self-describing: %v", err)
	}
}

func TestGenerateFaultyDataset(t *testing.T) {
	plan := prism5g.FaultPlanAtSeverity(0.5)
	ds, rep := prism5g.GenerateFaultyDataset(prism5g.OpZ, prism5g.Walking, prism5g.Long, 7, &plan)
	if len(ds.Traces) == 0 || ds.NumSamples() == 0 {
		t.Fatal("empty degraded dataset")
	}
	if rep.Total() == 0 {
		t.Fatalf("severity-0.5 plan injected nothing: %+v", rep)
	}
	// Same seed, nil plan → the identical clean campaign.
	clean, cleanRep := prism5g.GenerateFaultyDataset(prism5g.OpZ, prism5g.Walking, prism5g.Long, 7, nil)
	if cleanRep.Total() != 0 {
		t.Fatalf("nil plan reported injections: %+v", cleanRep)
	}
	ref := prism5g.GenerateDataset(prism5g.OpZ, prism5g.Walking, prism5g.Long, 7)
	if clean.NumSamples() != ref.NumSamples() {
		t.Fatal("nil-plan campaign differs from GenerateDataset")
	}
}

// TrainRobust over a NaN-corrupted, gap-ridden dataset must complete
// without panicking and report its interventions — the PR's acceptance
// scenario.
func TestTrainRobustOnDegradedData(t *testing.T) {
	plan := prism5g.FaultPlanAtSeverity(0.7)
	ds, _ := prism5g.GenerateFaultyDataset(prism5g.OpZ, prism5g.Walking, prism5g.Long, 11, &plan)
	ds.Traces = ds.Traces[:4]

	vrep, rrep := prism5g.RepairDataset(ds)
	if vrep.OK() {
		t.Fatal("severity-0.7 dataset validated clean")
	}
	if rrep.Total() == 0 {
		t.Fatal("repair fixed nothing on a degraded dataset")
	}
	var verr *prism5g.ValidationError
	if !errors.As(vrep.Err(), &verr) {
		t.Fatalf("report error is %T, want *ValidationError", vrep.Err())
	}

	b := prism5g.Prepare(ds, 1)
	cfg := prism5g.ModelConfig{Hidden: 8, Epochs: 4, Seed: 1}
	res := prism5g.TrainRobust(prism5g.NewPrism5G(b, cfg), b)
	if res.Predictor == nil {
		t.Fatal("no predictor returned")
	}
	rmse := prism5g.EvaluateRMSE(res.Predictor, b.Test)
	if math.IsNaN(rmse) || math.IsInf(rmse, 0) {
		t.Fatalf("degraded-data RMSE is %v", rmse)
	}
	// Forecasts stay finite for the QoE layer.
	for _, w := range b.Test[:min(5, len(b.Test))] {
		for i, v := range res.Predictor.Predict(w) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("prediction[%d] = %v", i, v)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestTrainRobustUnrepairedPerCCNaN trains Prism5G on a heavily degraded
// campaign that skips repair. NaN sensor reads reach the per-carrier
// throughput targets, which Prism5G's auxiliary loss backpropagates; the
// window filter must drop those windows, so training converges instead of
// exhausting its retries on NaN gradients.
func TestTrainRobustUnrepairedPerCCNaN(t *testing.T) {
	plan := prism5g.FaultPlanAtSeverity(1)
	ds, _ := prism5g.GenerateFaultyDataset(prism5g.OpZ, prism5g.Driving, prism5g.Long, 7, &plan)
	ds.Traces = ds.Traces[:4]
	b := prism5g.Prepare(ds, 1)
	cfg := prism5g.ModelConfig{Hidden: 8, Epochs: 6, Seed: 1}
	res := prism5g.TrainRobust(prism5g.NewPrism5G(b, cfg), b)
	if res.Report.Diverged {
		t.Fatalf("training diverged on unrepaired data: %v", res.Report)
	}
	if v := res.Report.ValRMSE; math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("validation RMSE is %v", v)
	}
}
