package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"prism5g/internal/core"
	"prism5g/internal/ml"
	"prism5g/internal/mobility"
	"prism5g/internal/obs"
	"prism5g/internal/par"
	"prism5g/internal/predictors"
	"prism5g/internal/sim"
	"prism5g/internal/trace"
)

// MLConfig scales the learning experiments: the full paper protocol is
// expensive, so tests and default benches use QuickMLConfig while the CLI
// can run PaperMLConfig.
type MLConfig struct {
	// Traces and SamplesPerTrace control dataset size (paper: 10 x
	// 300-600).
	Traces, SamplesPerTrace int
	// Stride thins the sliding windows (1 = paper-dense).
	Stride int
	// Hidden, Epochs, Patience control model training.
	Hidden, Epochs, Patience int
	// Seed drives everything.
	Seed uint64
	// Models lists which predictors to run (nil = all Table 4 columns).
	Models []string
	// Workers bounds every fan-out layer of an experiment — sub-dataset
	// cells, trace generation, model training: 0 = one worker per CPU,
	// 1 = the legacy serial path. Results are byte-identical at any
	// setting; only wall-clock changes.
	Workers int
}

// QuickMLConfig is sized for CI: minutes, not hours.
func QuickMLConfig(seed uint64) MLConfig {
	return MLConfig{
		Traces: 6, SamplesPerTrace: 240, Stride: 2,
		Hidden: 16, Epochs: 25, Patience: 6, Seed: seed,
	}
}

// PaperMLConfig mirrors the paper's dataset scale.
func PaperMLConfig(seed uint64) MLConfig {
	return MLConfig{
		Traces: 10, SamplesPerTrace: 450, Stride: 1,
		Hidden: 32, Epochs: 120, Patience: 15, Seed: seed,
	}
}

func (c MLConfig) trainOpts() predictors.TrainOpts {
	return predictors.TrainOpts{
		Epochs: c.Epochs, Batch: 128, LR: 0.01,
		Patience: c.Patience, Seed: c.Seed,
	}
}

func (c MLConfig) modelNames() []string {
	if len(c.Models) > 0 {
		return c.Models
	}
	return []string{"Prophet", "LSTM", "TCN", "Lumos5G", "Prism5G"}
}

// Problem is one prepared sub-dataset learning problem.
type Problem struct {
	Spec             sim.SubDatasetSpec
	Dataset          *trace.Dataset
	Scaler           *trace.Scaler
	Windows          []trace.Window
	Train, Val, Test []trace.Window
}

// BuildProblem generates and prepares one sub-dataset.
func BuildProblem(spec sim.SubDatasetSpec, cfg MLConfig) *Problem {
	return prepareProblem(spec, sim.Build(spec, CellAxes{}.buildOpts(cfg)), cfg)
}

// KnownModels lists every Table 4 column name NewModel accepts.
func KnownModels() []string {
	return []string{"Prophet", "LSTM", "TCN", "Lumos5G", "GBDT", "RF",
		"Prism5G", "Prism5G-NoState", "Prism5G-NoFusion", "Prism5G-GRU", "Prism5G-Unshared"}
}

// IsKnownModel reports whether NewModel accepts the name; callers should
// check it before launching a run, since an unknown name panics only after
// the dataset has already been built.
func IsKnownModel(name string) bool {
	for _, m := range KnownModels() {
		if m == name {
			return true
		}
	}
	return false
}

// NewModel constructs a predictor by Table 4 column name, forecasting 10
// steps from 10 steps of history: ds is the campaign Prophet fits, hidden
// the network width and topts the optimizer settings, whose Seed also seeds
// the tree ensembles. An unknown name returns an error listing
// KnownModels.
func NewModel(name string, ds *trace.Dataset, hidden int, topts predictors.TrainOpts) (predictors.Predictor, error) {
	opts := core.DefaultOptions()
	opts.Hidden = hidden
	opts.Train = topts
	switch name {
	case "Prophet":
		return predictors.NewProphetPredictor(ds, ml.DefaultProphetOpts()), nil
	case "LSTM":
		return predictors.NewLSTMPredictor(hidden, 10, topts), nil
	case "TCN":
		return predictors.NewTCNPredictor(hidden, 10, topts), nil
	case "Lumos5G":
		return predictors.NewLumos5G(hidden, 10, topts), nil
	case "GBDT":
		return predictors.NewTreePredictor(predictors.KindGBDT, 10, topts.Seed), nil
	case "RF":
		return predictors.NewTreePredictor(predictors.KindRF, 10, topts.Seed), nil
	case "Prism5G":
		return core.New(opts, 10), nil
	case "Prism5G-NoState":
		return core.NewNoState(opts, 10), nil
	case "Prism5G-NoFusion":
		return core.NewNoFusion(opts, 10), nil
	case "Prism5G-GRU":
		opts.Backbone = "gru"
		return core.New(opts, 10), nil
	case "Prism5G-Unshared":
		opts.SharedWeights = false
		return core.New(opts, 10), nil
	}
	return nil, fmt.Errorf("experiments: unknown model %q (known: %s)", name, strings.Join(KnownModels(), ", "))
}

// buildModel is NewModel at the experiment's scale; an unknown name panics.
func buildModel(name string, prob *Problem, cfg MLConfig) predictors.Predictor {
	p, err := NewModel(name, prob.Dataset, cfg.Hidden, cfg.trainOpts())
	if err != nil {
		panic(err)
	}
	return p
}

// CellResult is one (sub-dataset, model) RMSE cell of Table 4.
type CellResult struct {
	Dataset   string
	Model     string
	RMSE      float64
	TrainTime time.Duration
	Epochs    int
}

// Table4Cell trains and evaluates the configured models on one sub-dataset
// through runCell at zero axes; the models train concurrently and results
// keep model order.
func Table4Cell(spec sim.SubDatasetSpec, cfg MLConfig) []CellResult {
	defer obs.StartSpan("experiments.Table4Cell").End()
	res, reps := runCell(spec, cfg.modelNames(), cfg, CellAxes{})
	out := make([]CellResult, len(res))
	for i, r := range res {
		out[i] = CellResult{Dataset: r.Dataset, Model: r.Model, RMSE: r.RMSE,
			TrainTime: reps[i].Duration, Epochs: reps[i].Epochs}
	}
	return out
}

// Table4Result is the full Table 4 grid for one granularity.
type Table4Result struct {
	Gran  sim.Granularity
	Cells []CellResult
}

// Table4 runs the paper's headline comparison over all six sub-datasets at
// one granularity. The (sub-dataset, model) cells are independent, so the
// sub-dataset columns run concurrently (cfg.Workers bounds the pool); each
// cell derives all randomness from cfg.Seed and the grid is assembled in
// sub-dataset order, so the result is byte-identical at any worker count.
func Table4(gran sim.Granularity, cfg MLConfig) Table4Result {
	defer obs.StartSpan("experiments.Table4").End()
	res := Table4Result{Gran: gran}
	specs := sim.AllSubDatasets(gran)
	cells := par.MustMap(context.Background(), len(specs), cfg.Workers, func(i int) []CellResult {
		return Table4Cell(specs[i], cfg)
	})
	for _, c := range cells {
		res.Cells = append(res.Cells, c...)
	}
	return res
}

// ImprovementPct returns Prism5G's RMSE reduction vs the best baseline per
// dataset, keyed by dataset name.
func (r Table4Result) ImprovementPct() map[string]float64 {
	type agg struct {
		prism float64
		best  float64
	}
	m := map[string]*agg{}
	for _, c := range r.Cells {
		a := m[c.Dataset]
		if a == nil {
			a = &agg{prism: -1, best: -1}
			m[c.Dataset] = a
		}
		if c.Model == "Prism5G" {
			a.prism = c.RMSE
		} else if a.best < 0 || c.RMSE < a.best {
			a.best = c.RMSE
		}
	}
	out := map[string]float64{}
	for name, a := range m {
		if a.prism > 0 && a.best > 0 {
			out[name] = 100 * (1 - a.prism/a.best)
		}
	}
	return out
}

// Format renders the result as the paper's Table 4 layout.
func (r Table4Result) Format() string {
	byDataset := map[string]map[string]float64{}
	var datasets []string
	models := map[string]bool{}
	for _, c := range r.Cells {
		if byDataset[c.Dataset] == nil {
			byDataset[c.Dataset] = map[string]float64{}
			datasets = append(datasets, c.Dataset)
		}
		byDataset[c.Dataset][c.Model] = c.RMSE
		models[c.Model] = true
	}
	var order []string
	for _, m := range KnownModels() {
		if models[m] {
			order = append(order, m)
		}
	}
	out := fmt.Sprintf("%-22s", "Dataset ("+r.Gran.String()+")")
	for _, m := range order {
		out += fmt.Sprintf("%12s", m)
	}
	out += fmt.Sprintf("%12s\n", "Improv.(%)")
	impr := r.ImprovementPct()
	sort.Strings(datasets)
	for _, d := range datasets {
		out += fmt.Sprintf("%-22s", d)
		for _, m := range order {
			out += fmt.Sprintf("%12.3f", byDataset[d][m])
		}
		out += fmt.Sprintf("%12.1f\n", impr[d])
	}
	return out
}

// AblationResult is Table 13: the full model vs NoState / NoFusion.
type AblationResult struct {
	Dataset                 string
	Full, NoState, NoFusion float64
}

// Table13Ablation reproduces Table 13 on one sub-dataset through runCell;
// the three model variants train concurrently.
func Table13Ablation(spec sim.SubDatasetSpec, cfg MLConfig) AblationResult {
	defer obs.StartSpan("experiments.Table13Ablation").End()
	res, _ := runCell(spec, []string{"Prism5G", "Prism5G-NoState", "Prism5G-NoFusion"}, cfg, CellAxes{})
	return AblationResult{Dataset: spec.Name(), Full: res[0].RMSE, NoState: res[1].RMSE, NoFusion: res[2].RMSE}
}

// GeneralizabilityResult is Table 14: trace-level splits.
type GeneralizabilityResult struct {
	Case    string
	Results map[string]float64 // model -> RMSE
}

// Table14Generalizability reproduces Table 14 on the OpZ walking long-scale
// sub-dataset: (1) same route, different runs; (2) new routes.
func Table14Generalizability(cfg MLConfig) []GeneralizabilityResult {
	defer obs.StartSpan("experiments.Table14Generalizability").End()
	spec := sim.SubDatasetSpec{Operator: "OpZ", Mobility: mobility.Walking, Gran: sim.Long}
	prob := BuildProblem(spec, cfg)
	models := cfg.modelNames()

	eval := func(train, test []trace.Window) map[string]float64 {
		// Carve a validation slice out of training windows.
		nVal := len(train) / 5
		val := train[:nVal]
		tr := train[nVal:]
		built := make([]predictors.Predictor, len(models))
		for i, name := range models {
			built[i] = buildModel(name, prob, cfg)
		}
		if _, err := predictors.TrainAll(context.Background(), built, tr, val, cfg.Workers); err != nil {
			panic(err)
		}
		out := map[string]float64{}
		for i, name := range models {
			out[name] = predictors.Evaluate(built[i], test)
		}
		return out
	}

	// Case 1: same route, different runs. Traces alternate Run 0/1 per
	// route; hold out Run 1.
	sameRouteTest := func(ti int) bool { return prob.Dataset.Traces[ti].Meta.Run == 1 }
	train1, test1 := trace.SplitByTrace(prob.Windows, sameRouteTest)

	// Case 2: new routes entirely (hold out the last route).
	maxRoute := 0
	for _, t := range prob.Dataset.Traces {
		if t.Meta.Route > maxRoute {
			maxRoute = t.Meta.Route
		}
	}
	newRouteTest := func(ti int) bool { return prob.Dataset.Traces[ti].Meta.Route == maxRoute }
	train2, test2 := trace.SplitByTrace(prob.Windows, newRouteTest)

	return []GeneralizabilityResult{
		{Case: "same-route-different-runs", Results: eval(train1, test1)},
		{Case: "new-routes", Results: eval(train2, test2)},
	}
}

// SeriesResult carries the Fig 17/18 prediction series: real throughput and
// each model's first-point-of-horizon forecast, in Mbps.
type SeriesResult struct {
	Dataset string
	T       []float64
	Real    []float64
	Pred    map[string][]float64
	// TransitionIdx are sample indices where the active-CC count changed
	// (the Z1/Z2 areas).
	TransitionIdx []int
}

// Fig17PredictionSeries trains the configured models and replays one test
// trace, recording the first predicted point of each horizon window (the
// paper's visualization protocol).
func Fig17PredictionSeries(spec sim.SubDatasetSpec, cfg MLConfig) SeriesResult {
	defer obs.StartSpan("experiments.Fig17PredictionSeries").End()
	prob := BuildProblem(spec, cfg)
	res := SeriesResult{Dataset: spec.Name(), Pred: map[string][]float64{}}
	// Train on everything except the last two traces; replay those (two
	// transition-centered traces give the Z1/Z2 areas a robust sample).
	held := map[int]bool{len(prob.Dataset.Traces) - 2: true, len(prob.Dataset.Traces) - 1: true}
	train, _ := trace.SplitByTrace(prob.Windows, func(ti int) bool { return held[ti] })
	nVal := len(train) / 5
	names := cfg.modelNames()
	built := make([]predictors.Predictor, len(names))
	for i, name := range names {
		built[i] = buildModel(name, prob, cfg)
	}
	if _, err := predictors.TrainAll(context.Background(), built, train[nVal:], train[:nVal], cfg.Workers); err != nil {
		panic(err)
	}
	models := map[string]predictors.Predictor{}
	for i, name := range names {
		models[name] = built[i]
	}
	wopts := trace.WindowOpts{History: 10, Horizon: 10, Stride: 1}
	for ti := range prob.Dataset.Traces {
		if !held[ti] {
			continue
		}
		// Every window of the trace, each start once, from one scaled copy.
		tr := &prob.Dataset.Traces[ti]
		for _, w := range trace.Windows(&trace.Dataset{Traces: prob.Dataset.Traces[ti : ti+1]}, prob.Scaler, wopts) {
			w.TraceIdx = ti     // Prophet reads the window's trace by index
			idx := w.Start + 10 // the first horizon sample
			res.T = append(res.T, tr.Samples[idx].T)
			res.Real = append(res.Real, tr.Samples[idx].AggTput)
			for name, m := range models {
				y := m.Predict(w)
				res.Pred[name] = append(res.Pred[name], prob.Scaler.InvertTput(y[0]))
			}
			if idx > 0 && tr.Samples[idx].NumActiveCCs != tr.Samples[idx-1].NumActiveCCs {
				res.TransitionIdx = append(res.TransitionIdx, len(res.T)-1)
			}
		}
	}
	return res
}

// TransitionRMSE computes each model's RMSE restricted to windows around
// transitions (within radius samples) vs away from them — quantifying the
// Fig 18 behaviour.
func (s SeriesResult) TransitionRMSE(radius int) map[string][2]float64 {
	nearTransition := make([]bool, len(s.T))
	for _, ti := range s.TransitionIdx {
		for i := ti - radius; i <= ti+radius; i++ {
			if i >= 0 && i < len(nearTransition) {
				nearTransition[i] = true
			}
		}
	}
	out := map[string][2]float64{}
	for name, pred := range s.Pred {
		var seNear, seFar float64
		var nNear, nFar int
		for i := range pred {
			d := pred[i] - s.Real[i]
			if nearTransition[i] {
				seNear += d * d
				nNear++
			} else {
				seFar += d * d
				nFar++
			}
		}
		var near, far float64
		if nNear > 0 {
			near = sqrt(seNear / float64(nNear))
		}
		if nFar > 0 {
			far = sqrt(seFar / float64(nFar))
		}
		out[name] = [2]float64{near, far}
	}
	return out
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// RuntimeResult captures the §6.1 runtime comparison.
type RuntimeResult struct {
	Model          string
	TrainTime      time.Duration
	InferPerSample time.Duration
}

// RuntimeComparison measures Prism5G vs LSTM training and inference cost
// (the paper reports +34.1% training, +23.2% inference, <1 ms/sample).
func RuntimeComparison(cfg MLConfig) []RuntimeResult {
	defer obs.StartSpan("experiments.RuntimeComparison").End()
	spec := sim.SubDatasetSpec{Operator: "OpZ", Mobility: mobility.Driving, Gran: sim.Long}
	prob := BuildProblem(spec, cfg)
	var out []RuntimeResult
	for _, name := range []string{"LSTM", "Prism5G"} {
		m := buildModel(name, prob, cfg)
		t0 := time.Now()
		m.Train(prob.Train, prob.Val)
		trainT := time.Since(t0)
		t1 := time.Now()
		n := 0
		for _, w := range prob.Test {
			m.Predict(w)
			n++
		}
		var per time.Duration
		if n > 0 {
			per = time.Since(t1) / time.Duration(n)
		}
		out = append(out, RuntimeResult{Model: name, TrainTime: trainT, InferPerSample: per})
	}
	return out
}
