package experiments

import (
	"context"
	"math"

	"prism5g/internal/faults"
	"prism5g/internal/obs"
	"prism5g/internal/predictors"
	"prism5g/internal/qoe"
	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/sim"
	"prism5g/internal/trace"
)

// CellAxes carries the grid axes that modify a cell's campaign beyond the
// sub-dataset spec: fault severity, link direction, the uplink schedule and
// a band lock. The zero value is the clean downlink Table 4 setting, and
// every cell protocol below reduces bit-for-bit to the corresponding
// hard-coded experiment at zero axes — that is the grid-equivalence
// conformance law.
type CellAxes struct {
	Severity  float64
	Direction string
	UL        ran.ULConfig
	BandLock  []string
}

// plan returns the fault plan the axes imply (nil when clean).
func (ax CellAxes) plan() *faults.FaultPlan {
	if ax.Severity <= 0 {
		return nil
	}
	p := faults.PlanAtSeverity(ax.Severity)
	return &p
}

// buildOpts returns the dataset build options for one cell. At zero axes
// they equal BuildProblem's options exactly.
func (ax CellAxes) buildOpts(cfg MLConfig) sim.BuildOpts {
	return sim.BuildOpts{
		Traces: cfg.Traces, SamplesPerTrace: cfg.SamplesPerTrace,
		Seed: cfg.Seed, Modem: ran.ModemX70, Workers: cfg.Workers,
		Faults: ax.plan(), Direction: ax.Direction, UL: ax.UL, BandLock: ax.BandLock,
	}
}

// PredictCellResult is one grid prediction cell: a single model trained and
// evaluated on one sub-dataset under the cell's axes. Unlike CellResult it
// carries no wall-clock fields, so a serialized cell is byte-identical
// across reruns and worker counts.
type PredictCellResult struct {
	Dataset string  `json:"dataset"`
	Model   string  `json:"model"`
	RMSE    float64 `json:"rmse"`
	// Fault-path counters, zero on clean cells.
	Injected       int  `json:"injected,omitempty"`
	Repaired       int  `json:"repaired,omitempty"`
	SkippedWindows int  `json:"skipped_windows,omitempty"`
	Retries        int  `json:"retries,omitempty"`
	Fallback       bool `json:"fallback,omitempty"`
}

// PredictCell trains and evaluates one model on one sub-dataset under the
// cell's axes through runCell. At zero axes the RMSE is bit-identical to
// the model's Table4Cell column (models train independently, so a
// one-model cell equals its slice of the TrainAll batch).
func PredictCell(spec sim.SubDatasetSpec, model string, cfg MLConfig, ax CellAxes) PredictCellResult {
	defer obs.StartSpan("experiments.PredictCell").End()
	res, _ := runCell(spec, []string{model}, cfg, ax)
	return res[0]
}

// runCell is the one experiment cell behind Table4Cell, PredictCell and
// Table13Ablation: it builds the campaign under the axes, windows and
// splits it, trains the models through TrainAll on the valid train/val
// windows and scores each on the test split with EvaluateSkipping.
// Degraded cells (severity > 0) also run the validate-and-repair ingest
// and wrap every model in Resilient. It returns one result and one
// training report per model, in model order.
func runCell(spec sim.SubDatasetSpec, models []string, cfg MLConfig, ax CellAxes) ([]PredictCellResult, []predictors.TrainReport) {
	ds, faultRep := sim.BuildReport(spec, ax.buildOpts(cfg))
	repaired := 0
	if ax.Severity > 0 {
		_, rep := ds.ValidateAndRepair()
		repaired = rep.Total()
	}
	prob := prepareProblem(spec, ds, cfg)
	train, skipTrain := predictors.FilterValid(prob.Train)
	val, skipVal := predictors.FilterValid(prob.Val)
	built := make([]predictors.Predictor, len(models))
	for i, name := range models {
		built[i] = buildModel(name, prob, cfg)
		if ax.Severity > 0 {
			built[i] = predictors.NewResilient(built[i], 10)
		}
	}
	reps, err := predictors.TrainAll(context.Background(), built, train, val, cfg.Workers)
	if err != nil {
		panic(err) // a training crash aborted the run, as in the serial path
	}
	res := make([]PredictCellResult, len(models))
	for i, name := range models {
		rmse, _ := predictors.EvaluateSkipping(built[i], prob.Test)
		res[i] = PredictCellResult{
			Dataset: spec.Name(), Model: name, RMSE: rmse,
			Injected: faultRep.Total(), Repaired: repaired,
			SkippedWindows: skipTrain + skipVal,
			Retries:        reps[i].Retries, Fallback: reps[i].Fallback,
		}
	}
	return res, reps
}

// prepareProblem runs the scaling/windowing/split pipeline every learning
// experiment shares (the back half of BuildProblem) on an already-built
// dataset.
func prepareProblem(spec sim.SubDatasetSpec, ds *trace.Dataset, cfg MLConfig) *Problem {
	sc := &trace.Scaler{}
	sc.Fit(ds.Traces)
	ws := trace.Windows(ds, sc, trace.WindowOpts{History: 10, Horizon: 10, Stride: cfg.Stride})
	train, val, test := trace.Split(ws, 0.5, 0.2, rng.New(cfg.Seed^0x5b1d))
	return &Problem{Spec: spec, Dataset: ds, Scaler: sc, Windows: ws, Train: train, Val: val, Test: test}
}

// QoEEstimators lists the stock bandwidth estimators a QoE cell accepts.
// Grid QoE cells stream with these (cheap, training-free); the trained-model
// QoE comparisons remain the Fig 19/20 experiments.
func QoEEstimators() []string { return []string{"Ideal", "MovingMean", "HarmonicMean"} }

// IsQoEEstimator reports whether QoECell accepts the estimator name.
func IsQoEEstimator(name string) bool {
	for _, e := range QoEEstimators() {
		if e == name {
			return true
		}
	}
	return false
}

// QoEApps lists the application workloads a QoE cell can stream.
func QoEApps() []string { return []string{"vivo", "abr", "cloudgaming"} }

// IsQoEApp reports whether QoECell accepts the app name.
func IsQoEApp(name string) bool {
	for _, a := range QoEApps() {
		if a == name {
			return true
		}
	}
	return false
}

// QoECellResult is one grid QoE cell: an application streamed over every
// trace of the cell's campaign. Quality, StallS and MissRate normalize each
// app's headline metrics so grid summaries can aggregate across apps:
// quality is ViVo's mean level / ABR's mean Mbps / cloud gaming's mean
// encoder Mbps; stall is total stall / stall / late time per session; miss
// rate is the fraction of frames or chunks that blew their deadline.
type QoECellResult struct {
	Dataset   string  `json:"dataset"`
	App       string  `json:"app"`
	Predictor string  `json:"predictor"`
	Sessions  int     `json:"sessions"`
	Quality   float64 `json:"quality"`
	StallS    float64 `json:"stall_s"`
	MissRate  float64 `json:"miss_rate"`
	Injected  int     `json:"injected,omitempty"`
}

// QoECell streams one application over every trace of the cell's campaign
// with a stock bandwidth estimator and averages the session metrics.
// Degraded cells stream the faulted traces as collected (sensor corruption
// and log gaps are what the channel replays); non-finite rate samples are
// zeroed, which is what a player's rate estimator sees during a log gap.
// The app and estimator names must come from QoEApps / QoEEstimators —
// unknown names panic, like buildModel, so config validation must happen
// upstream.
func QoECell(spec sim.SubDatasetSpec, app, estimator string, cfg MLConfig, ax CellAxes) QoECellResult {
	defer obs.StartSpan("experiments.QoECell").End()
	ds, faultRep := sim.BuildReport(spec, ax.buildOpts(cfg))
	res := QoECellResult{Dataset: spec.Name(), App: app, Predictor: estimator, Injected: faultRep.Total()}
	var quality, stall, miss float64
	for ti := range ds.Traces {
		series := ds.Traces[ti].AggSeries()
		for i, v := range series {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				series[i] = 0
			}
		}
		ch := qoe.NewChannelFromSeries(series, ds.StepS)
		var pred qoe.BandwidthPredictor
		switch estimator {
		case "Ideal":
			pred = &qoe.Oracle{Ch: ch}
		case "MovingMean":
			pred = &qoe.MovingMean{K: 10}
		case "HarmonicMean":
			pred = &qoe.HarmonicPredictor{K: 5}
		default:
			panic("experiments: unknown QoE estimator " + estimator)
		}
		switch app {
		case "vivo":
			r := qoe.RunViVo(qoe.DefaultViVoConfig(), ch, pred)
			quality += r.AvgQuality
			stall += r.StallTimeS
			if r.Frames > 0 {
				miss += float64(r.Stalls) / float64(r.Frames)
			}
		case "abr":
			r := qoe.RunABR(qoe.DefaultABRConfig(), ch, pred)
			quality += r.AvgMbps
			stall += r.StallTimeS
			if r.Chunks > 0 {
				miss += float64(r.Stalls) / float64(r.Chunks)
			}
		case "cloudgaming":
			r := qoe.RunCloudGaming(qoe.DefaultCloudGamingConfig(), ch, pred)
			quality += r.AvgBitrateMbps
			stall += r.LateTimeS
			miss += r.MissRate
		default:
			panic("experiments: unknown QoE app " + app)
		}
		res.Sessions++
	}
	if res.Sessions > 0 {
		n := float64(res.Sessions)
		res.Quality = quality / n
		res.StallS = stall / n
		res.MissRate = miss / n
	}
	return res
}
