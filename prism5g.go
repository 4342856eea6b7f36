// Package prism5g reproduces "Dissecting Carrier Aggregation in 5G
// Networks: Measurement, QoE Implications and Prediction" (ACM SIGCOMM
// 2024) as a self-contained Go library.
//
// It bundles three layers:
//
//   - A measurement substrate: a 4G/5G radio-access-network simulator with
//     carrier aggregation (3GPP band catalog, PHY tables, RRC CA engine,
//     scheduler, mobility and propagation models) that generates the
//     per-component-carrier traces the paper collects with XCAL on
//     commercial networks.
//   - The Prism5G CA-aware throughput predictor and all the paper's
//     baselines (Prophet, LSTM, TCN, Lumos5G/Seq2Seq, GBDT, RF), built on a
//     from-scratch neural-network stack.
//   - The two QoE applications of the paper's use cases: a ViVo-style XR
//     streamer and an MPC adaptive-bitrate video player.
//
// This file is the facade: the few calls most users need. The full
// machinery lives in the internal packages (see DESIGN.md for the map).
//
// Quickstart:
//
//	ds := prism5g.GenerateDataset(prism5g.OpZ, prism5g.Driving, prism5g.Short, 42)
//	bundle := prism5g.Prepare(ds, 1)
//	model := prism5g.NewPrism5G(bundle, prism5g.ModelConfig{})
//	model.Train(bundle.Train, bundle.Val)
//	rmse := prism5g.EvaluateRMSE(model, bundle.Test)
package prism5g

import (
	"fmt"
	"slices"
	"strings"

	"prism5g/internal/experiments"
	"prism5g/internal/mobility"
	"prism5g/internal/predictors"
	"prism5g/internal/qoe"
	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// Re-exported identifiers so downstream code can stay on the facade.
type (
	// Dataset is a set of measurement traces.
	Dataset = trace.Dataset
	// Trace is one measurement run.
	Trace = trace.Trace
	// Window is one supervised learning example.
	Window = trace.Window
	// Scaler is the min-max feature scaler.
	Scaler = trace.Scaler
	// Predictor is any throughput predictor.
	Predictor = predictors.Predictor
	// Operator identifies a mobile operator.
	Operator = spectrum.Operator
	// Mobility is the UE movement pattern.
	Mobility = mobility.Mobility
	// Granularity is the dataset time scale.
	Granularity = sim.Granularity
	// ViVoResult is an XR streaming QoE outcome.
	ViVoResult = qoe.ViVoResult
	// ABRResult is a video-streaming QoE outcome.
	ABRResult = qoe.ABRResult
)

// Re-exported constants.
const (
	// OpX, OpY, OpZ are the three anonymized US operators.
	OpX = spectrum.OpX
	OpY = spectrum.OpY
	OpZ = spectrum.OpZ
	// Stationary, Walking, Driving are the mobility patterns.
	Stationary = mobility.Stationary
	Walking    = mobility.Walking
	Driving    = mobility.Driving
	// Short (10 ms) and Long (1 s) are the dataset granularities.
	Short = sim.Short
	Long  = sim.Long
)

// GenerateDataset builds one of the paper's six ML sub-datasets (Table 11)
// for the operator and mobility at the given granularity, deterministically
// from seed.
func GenerateDataset(op Operator, mob Mobility, gran Granularity, seed uint64) *Dataset {
	return sim.Build(
		sim.SubDatasetSpec{Operator: op, Mobility: mob, Gran: gran},
		sim.DefaultBuildOpts(seed),
	)
}

// GenerateDatasetSized is GenerateDataset with explicit scale — trace count
// and samples per trace — for demos and CI smoke runs that cannot afford
// the paper-sized default (10 traces x 450 samples).
func GenerateDatasetSized(op Operator, mob Mobility, gran Granularity, seed uint64, traces, samplesPerTrace int) *Dataset {
	opts := sim.DefaultBuildOpts(seed)
	opts.Traces = traces
	opts.SamplesPerTrace = samplesPerTrace
	return sim.Build(
		sim.SubDatasetSpec{Operator: op, Mobility: mob, Gran: gran},
		opts,
	)
}

// Bundle is a prepared learning problem: scaled windows split into
// train/validation/test (0.5/0.2/0.3, the paper's ratios) plus the scaler
// for inverting predictions to Mbps.
type Bundle struct {
	Dataset          *Dataset
	Scaler           *Scaler
	Train, Val, Test []Window
}

// Prepare fits the scaler, extracts dense windows (history 10, horizon 10)
// and splits them with the paper's ratios.
func Prepare(ds *Dataset, seed uint64) *Bundle {
	sc := &Scaler{}
	sc.Fit(ds.Traces)
	ws := trace.Windows(ds, sc, trace.DefaultWindowOpts())
	train, val, test := trace.Split(ws, 0.5, 0.2, rng.New(seed))
	return &Bundle{Dataset: ds, Scaler: sc, Train: train, Val: val, Test: test}
}

// ModelConfig tunes model construction; the zero value uses the defaults
// from the paper's setup at a tractable width.
type ModelConfig struct {
	// Hidden is the network width (default 32).
	Hidden int
	// Epochs caps training (default 200 with early stopping).
	Epochs int
	// Seed drives initialization and shuffling.
	Seed uint64
}

func (c ModelConfig) fill() (int, predictors.TrainOpts) {
	hidden := c.Hidden
	if hidden == 0 {
		hidden = 32
	}
	t := predictors.DefaultTrainOpts()
	if c.Epochs != 0 {
		t.Epochs = c.Epochs
	}
	if c.Seed != 0 {
		t.Seed = c.Seed
	}
	return hidden, t
}

// NewPrism5G builds the paper's CA-aware predictor.
func NewPrism5G(b *Bundle, cfg ModelConfig) Predictor {
	hidden, topts := cfg.fill()
	p, _ := experiments.NewModel("Prism5G", b.Dataset, hidden, topts) // a known name never fails
	return p
}

// NewBaseline builds one of the paper's baselines by name: "Prophet",
// "LSTM", "TCN", "Lumos5G", "GBDT", "RF" or "HarmonicMean". Unknown names
// return nil; use NewBaselineE to get the error instead of a nil that
// detonates at first use.
func NewBaseline(name string, b *Bundle, cfg ModelConfig) Predictor {
	p, err := NewBaselineE(name, b, cfg)
	if err != nil {
		return nil
	}
	return p
}

// NewBaselineE is NewBaseline with an explicit error for unknown names.
func NewBaselineE(name string, b *Bundle, cfg ModelConfig) (Predictor, error) {
	if name == "HarmonicMean" {
		return &predictors.HarmonicMean{Horizon: trace.DefaultWindowOpts().Horizon}, nil
	}
	if !slices.Contains(BaselineNames(), name) {
		return nil, fmt.Errorf("prism5g: unknown baseline %q (known: %s)",
			name, strings.Join(append(BaselineNames(), "HarmonicMean"), ", "))
	}
	hidden, topts := cfg.fill()
	return experiments.NewModel(name, b.Dataset, hidden, topts)
}

// BaselineNames lists the supported baseline names in the paper's order.
func BaselineNames() []string {
	return []string{"Prophet", "LSTM", "TCN", "Lumos5G", "GBDT", "RF"}
}

// EvaluateRMSE computes the pooled horizon RMSE (scaled units, the Table 4
// metric) of a predictor over windows.
func EvaluateRMSE(p Predictor, ws []Window) float64 {
	return predictors.Evaluate(p, ws)
}

// SimulateViVo streams the ViVo XR application over a trace with a trained
// predictor ("" or "MovingMean" for stock ViVo, "Ideal" for the oracle).
func SimulateViVo(tr *Trace, sc *Scaler, p Predictor, scaledUp bool) ViVoResult {
	ch := qoe.NewChannel(tr)
	cfg := qoe.DefaultViVoConfig()
	if scaledUp {
		cfg = qoe.ScaledUpViVoConfig()
	}
	var bw qoe.BandwidthPredictor
	switch {
	case p == nil:
		bw = &qoe.MovingMean{K: 10}
	default:
		bw = qoe.NewModelPredictor(p.Name(), p, tr, sc, trace.DefaultWindowOpts())
	}
	return qoe.RunViVo(cfg, ch, bw)
}

// SimulateABR streams the MPC video player over a trace with a trained
// predictor (nil for MPC's stock harmonic-mean estimator).
func SimulateABR(tr *Trace, sc *Scaler, p Predictor) ABRResult {
	ch := qoe.NewChannel(tr)
	cfg := qoe.DefaultABRConfig()
	var bw qoe.BandwidthPredictor
	switch {
	case p == nil:
		bw = &qoe.HarmonicPredictor{K: 5}
	default:
		bw = qoe.NewModelPredictor(p.Name(), p, tr, sc, trace.DefaultWindowOpts())
	}
	return qoe.RunABR(cfg, ch, bw)
}

// UEModems lists the supported handset modem generations (paper Table 5).
func UEModems() []string {
	var out []string
	for _, m := range ran.AllModems() {
		out = append(out, m.String())
	}
	return out
}
