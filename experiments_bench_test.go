// Benchmark harness, part 2: the learning and QoE experiments (paper §6-7).
// These train models, so they dominate the suite's runtime. By default they
// use a reduced-but-faithful configuration; set PRISM5G_PAPER=1 for the
// paper-scale protocol (tens of minutes per bench).
package prism5g_test

import (
	"fmt"
	"os"
	"testing"

	"prism5g/internal/experiments"
	"prism5g/internal/mobility"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// benchMLConfig picks the learning-experiment scale.
func benchMLConfig() experiments.MLConfig {
	if os.Getenv("PRISM5G_PAPER") == "1" {
		return experiments.PaperMLConfig(42)
	}
	cfg := experiments.MLConfig{
		Traces: 8, SamplesPerTrace: 300, Stride: 2,
		Hidden: 16, Epochs: 40, Patience: 10, Seed: 42,
		Models: []string{"Prophet", "LSTM", "Prism5G"},
	}
	return cfg
}

func BenchmarkTable3_FeatureSchema(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Walking, Gran: sim.Long}
		cfg := benchMLConfig()
		prob := experiments.BuildProblem(spec, cfg)
		printRows("Table 3/12: ML feature schema", fmt.Sprintf(
			"dataset %s: %d windows, per-CC features x%d slots + aggregate history\n",
			prob.Spec.Name(), len(prob.Windows), trace.MaxCC))
	}
}

func BenchmarkTable4_PredictionRMSE(b *testing.B) {
	cfg := benchMLConfig()
	for i := 0; i < b.N; i++ {
		out := ""
		for _, g := range []sim.Granularity{sim.Short, sim.Long} {
			res := experiments.Table4(g, cfg)
			out += res.Format() + "\n"
		}
		printRows("Table 4: prediction RMSE (reduced config; PRISM5G_PAPER=1 for full)", out)
	}
}

func BenchmarkTable13_Ablation(b *testing.B) {
	cfg := benchMLConfig()
	cfg.Models = nil
	for i := 0; i < b.N; i++ {
		spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Short}
		r := experiments.Table13Ablation(spec, cfg)
		printRows("Table 13: ablation", fmt.Sprintf(
			"%s: full=%.4f noState=%.4f (+%.1f%%) noFusion=%.4f (+%.1f%%)\n",
			r.Dataset, r.Full,
			r.NoState, 100*(r.NoState/r.Full-1),
			r.NoFusion, 100*(r.NoFusion/r.Full-1)))
	}
}

func BenchmarkTable14_Generalizability(b *testing.B) {
	cfg := benchMLConfig()
	for i := 0; i < b.N; i++ {
		out := ""
		for _, r := range experiments.Table14Generalizability(cfg) {
			out += fmt.Sprintf("%-28s", r.Case)
			for _, m := range []string{"Prophet", "LSTM", "Prism5G"} {
				if v, ok := r.Results[m]; ok {
					out += fmt.Sprintf("  %s=%.4f", m, v)
				}
			}
			out += "\n"
		}
		printRows("Table 14: generalizability", out)
	}
}

func BenchmarkFig17_PredictionSeries(b *testing.B) {
	cfg := benchMLConfig()
	for i := 0; i < b.N; i++ {
		spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long}
		r := experiments.Fig17PredictionSeries(spec, cfg)
		out := fmt.Sprintf("replayed %d points, %d transitions; first 5 points (real vs models):\n",
			len(r.T), len(r.TransitionIdx))
		for j := 0; j < len(r.T) && j < 5; j++ {
			out += fmt.Sprintf("  t=%.0fs real=%4.0f", r.T[j], r.Real[j])
			for _, m := range []string{"Prophet", "LSTM", "Prism5G"} {
				if p, ok := r.Pred[m]; ok {
					out += fmt.Sprintf(" %s=%4.0f", m, p[j])
				}
			}
			out += "\n"
		}
		printRows("Fig 17: prediction series", out)
	}
}

func BenchmarkFig18_TransitionZoom(b *testing.B) {
	cfg := benchMLConfig()
	for i := 0; i < b.N; i++ {
		spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Short}
		r := experiments.Fig17PredictionSeries(spec, cfg)
		tr := r.TransitionRMSE(15)
		out := fmt.Sprintf("%d transitions in replay window\n", len(r.TransitionIdx))
		for _, m := range []string{"Prophet", "LSTM", "Prism5G"} {
			if v, ok := tr[m]; ok {
				out += fmt.Sprintf("%-8s RMSE near transitions %6.0f Mbps, elsewhere %6.0f Mbps\n", m, v[0], v[1])
			}
		}
		printRows("Fig 18/35/36: transition-zone accuracy", out)
	}
}

func BenchmarkRuntime_TrainInfer(b *testing.B) {
	cfg := benchMLConfig()
	for i := 0; i < b.N; i++ {
		out := ""
		for _, r := range experiments.RuntimeComparison(cfg) {
			out += fmt.Sprintf("%-8s train=%v infer=%v/sample\n", r.Model, r.TrainTime.Round(1e6), r.InferPerSample)
		}
		printRows("§6.1: training and inference runtime", out)
	}
}

func BenchmarkFig8_ViVoCAImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8ViVoCAImpact(35, 3)
		out := fmt.Sprintf("no-CA channel %.0f±%.0f Mbps, 4CC channel %.0f±%.0f Mbps\n",
			r.NoCAMean, r.NoCAStd, r.FourCCMean, r.FourCCStd)
		for _, d := range r.NoCA {
			out += fmt.Sprintf("  no-CA run %d: quality deg %.1f%%, stall inc %.1f%%\n", d.TraceID, d.QualityDegPct, d.StallIncPct)
		}
		for _, d := range r.FourCC {
			out += fmt.Sprintf("  4CC   run %d: quality deg %.1f%%, stall inc %.1f%%\n", d.TraceID, d.QualityDegPct, d.StallIncPct)
		}
		printRows("Fig 8: ViVo QoE under CA", out)
	}
}

func BenchmarkFig19_ViVoPredictors(b *testing.B) {
	cfg := benchMLConfig()
	for i := 0; i < b.N; i++ {
		out := fmt.Sprintf("%-12s %10s %10s %12s %10s\n", "Predictor", "AvgQuality", "Stall(s)", "dQuality(%)", "dStall(s)")
		for _, r := range experiments.Fig19ViVoPredictors(cfg) {
			out += fmt.Sprintf("%-12s %10.2f %10.2f %12.1f %10.1f\n",
				r.Predictor, r.AvgQuality, r.StallTimeS, r.DeltaQualityPct, r.DeltaStallPct)
		}
		printRows("Fig 19: ViVo + predictors", out)
	}
}

func BenchmarkFig20_ABRQoE(b *testing.B) {
	cfg := benchMLConfig()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig20ABRPredictors(cfg, 8)
		printRows("Figs 20/21: MPC ABR QoE and stall tails", experiments.FormatABRRows(rows))
	}
}

func BenchmarkFig21_StallTails(b *testing.B) {
	cfg := benchMLConfig()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig20ABRPredictors(cfg, 10)
		out := ""
		var hm, prism experiments.ABRPredictorRow
		for _, r := range rows {
			if r.Predictor == "HarmonicMean" {
				hm = r
			}
			if r.Predictor == "Prism5G" {
				prism = r
			}
		}
		out += fmt.Sprintf("P95 stall: MPC %.1fs vs MPC+Prism5G %.1fs (%.1fs better)\n",
			hm.StallP95, prism.StallP95, hm.StallP95-prism.StallP95)
		out += fmt.Sprintf("P99 stall: MPC %.1fs vs MPC+Prism5G %.1fs\n", hm.StallP99, prism.StallP99)
		printRows("Fig 21: stall-time tail improvement", out)
	}
}

// Ablation benches for the DESIGN.md design choices.

func BenchmarkAblation_EventLeadTime(b *testing.B) {
	// The event feature's causal lead is what lets Prism5G react at
	// transitions; this bench quantifies transition-zone RMSE with the
	// full model (the Table 13 NoState row removes the lead entirely).
	cfg := benchMLConfig()
	cfg.Models = []string{"Prism5G"}
	for i := 0; i < b.N; i++ {
		spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Short}
		r := experiments.Fig17PredictionSeries(spec, cfg)
		tr := r.TransitionRMSE(15)
		v := tr["Prism5G"]
		printRows("Ablation: event lead at transitions", fmt.Sprintf(
			"Prism5G transition RMSE %.0f Mbps vs %.0f elsewhere (ratio %.2f)\n",
			v[0], v[1], v[0]/v[1]))
	}
}

func BenchmarkAblation_AggregateFeaturesOnly(b *testing.B) {
	// Quantifies the value of per-CC features: Prism5G vs the best
	// aggregate-feature baseline on one sub-dataset.
	cfg := benchMLConfig()
	cfg.Models = []string{"LSTM", "Prism5G"}
	for i := 0; i < b.N; i++ {
		spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Short}
		cells := experiments.Table4Cell(spec, cfg)
		out := ""
		for _, c := range cells {
			out += fmt.Sprintf("%-8s RMSE=%.4f\n", c.Model, c.RMSE)
		}
		printRows("Ablation: per-CC vs aggregate-only features", out)
	}
}

func BenchmarkAblation_SharedWeights(b *testing.B) {
	// The paper shares the per-CC RNN weights to cut parameters and pool
	// training signal; this bench compares against independent per-CC
	// RNNs.
	cfg := benchMLConfig()
	cfg.Models = []string{"Prism5G", "Prism5G-Unshared"}
	cfg.Epochs, cfg.Patience = 30, 8 // both variants need room to converge
	for i := 0; i < b.N; i++ {
		spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Short}
		cells := experiments.Table4Cell(spec, cfg)
		out := ""
		for _, c := range cells {
			out += fmt.Sprintf("%-18s RMSE=%.4f (train %v)\n", c.Model, c.RMSE, c.TrainTime.Round(1e8))
		}
		printRows("Ablation: shared vs per-CC RNN weights", out)
	}
}

func BenchmarkAblation_RNNBackbone(b *testing.B) {
	// The paper notes the RNN module is configurable (future work explores
	// other architectures); this bench swaps the LSTM for a GRU.
	cfg := benchMLConfig()
	cfg.Models = []string{"Prism5G", "Prism5G-GRU"}
	cfg.Epochs, cfg.Patience = 30, 8 // the GRU warms up more slowly
	for i := 0; i < b.N; i++ {
		spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Short}
		cells := experiments.Table4Cell(spec, cfg)
		out := ""
		for _, c := range cells {
			out += fmt.Sprintf("%-18s RMSE=%.4f (train %v)\n", c.Model, c.RMSE, c.TrainTime.Round(1e8))
		}
		printRows("Ablation: LSTM vs GRU backbone", out)
	}
}
