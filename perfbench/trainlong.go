package main

import (
	"math"
	"strings"
	"time"

	"prism5g/internal/core"
	"prism5g/internal/experiments"
	"prism5g/internal/mobility"
	"prism5g/internal/predictors"
	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// trainLongSpec is the sub-dataset of the train-long cell.
var trainLongSpec = sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long}

// trainLongModels train in this order in every cell: Prism5G takes one
// GEMV per sample, LSTM the batched-GEMM path.
var trainLongModels = []string{"Prism5G", "LSTM"}

// pooledCells is how many cells the pooled RMSE covers. It is fixed so the
// quality metrics do not depend on how many cells fit in --seconds.
const pooledCells = 4

// cellOut is one cell's outputs.
type cellOut struct {
	rmse    map[string]float64
	reports map[string]predictors.TrainReport
	prob    *experiments.Problem
	wall    time.Duration
}

// cellConfig derives the next cell's configuration from the run's seed
// stream: cell k is a clean Table 4 cell at QuickMLConfig of the k-th seed
// drawn.
func cellConfig(src *rng.Source) experiments.MLConfig {
	cfg := experiments.QuickMLConfig(src.Uint64())
	cfg.Workers = 0
	return cfg
}

// newCellModel builds a model the way the Table 4 cell protocol does.
func newCellModel(name string, cfg experiments.MLConfig) predictors.Predictor {
	topts := predictors.TrainOpts{Epochs: cfg.Epochs, Batch: 128, LR: 0.01, Patience: cfg.Patience, Seed: cfg.Seed}
	switch name {
	case "Prism5G":
		opts := core.DefaultOptions()
		opts.Hidden = cfg.Hidden
		opts.Train = topts
		return core.New(opts, 10)
	case "LSTM":
		return predictors.NewLSTMPredictor(cfg.Hidden, 10, topts)
	}
	panic("perfbench: no cell model " + name)
}

// runCell is experiments.PredictCell's clean protocol for each model of
// trainLongModels on one shared problem, with a span around every layer
// call: sim.Build, the trace pipeline (scaler fit, windows, split), each
// model's training and evaluation.
func runCell(cfg experiments.MLConfig, tr *tracer) cellOut {
	t0 := time.Now()
	root := tr.start("experiments.cell", 0)
	sp := tr.start("sim.Build", root)
	ds := sim.Build(trainLongSpec, sim.BuildOpts{
		Traces: cfg.Traces, SamplesPerTrace: cfg.SamplesPerTrace,
		Seed: cfg.Seed, Modem: ran.ModemX70, Workers: cfg.Workers,
	})
	tr.end(sp)
	prep := tr.start("trace.prepare", root)
	sp = tr.start("trace.Scaler.Fit", prep)
	sc := &trace.Scaler{}
	sc.Fit(ds.Traces)
	tr.end(sp)
	sp = tr.start("trace.Windows", prep)
	ws := trace.Windows(ds, sc, trace.WindowOpts{History: 10, Horizon: 10, Stride: cfg.Stride})
	tr.end(sp)
	sp = tr.start("trace.Split", prep)
	train, val, test := trace.Split(ws, 0.5, 0.2, rng.New(cfg.Seed^0x5b1d))
	tr.end(sp)
	tr.end(prep)

	out := cellOut{rmse: map[string]float64{}, reports: map[string]predictors.TrainReport{},
		prob: &experiments.Problem{Spec: trainLongSpec, Dataset: ds, Scaler: sc, Windows: ws, Train: train, Val: val, Test: test}}
	for _, name := range trainLongModels {
		m := newCellModel(name, cfg)
		sp = tr.start("predictors.train."+strings.ToLower(name), root)
		out.reports[name] = m.Train(train, val)
		tr.end(sp)
		sp = tr.start("predictors.eval", root)
		out.rmse[name] = predictors.Evaluate(m, test)
		tr.end(sp)
	}
	tr.end(root)
	out.wall = time.Since(t0)
	return out
}

// checkCell applies train-long's output checks to one cell.
func checkCell(rep *report, k int, c cellOut) {
	for _, name := range trainLongModels {
		rep.attempted++
		r, tr := c.rmse[name], c.reports[name]
		switch {
		case math.IsNaN(r) || math.IsInf(r, 0) || r <= 0:
			rep.fail("train-long cell %d %s: RMSE %v is not finite and positive", k, name, r)
		case tr.Epochs < 1:
			rep.fail("train-long cell %d %s: %d epochs", k, name, tr.Epochs)
		case tr.Diverged || tr.Fallback:
			rep.fail("train-long cell %d %s: diverged=%v fallback=%v", k, name, tr.Diverged, tr.Fallback)
		}
	}
}

// runTrainLong repeats the Table 4 cell until --seconds have passed. An
// untraced run times every cell (cell_s) and pools the RMSE of the first
// pooledCells cells. A traced run repeats each cell twice, untraced then
// traced, checks that both give bit-identical RMSEs, and reports the layer
// times of the traced copies.
func runTrainLong(o options, tr *tracer) (*report, error) {
	rep := newReport()
	src := rng.New(o.seed)
	first := cellConfig(rng.New(o.seed))

	// Set-up: build the first cell's dataset five times, which fills the
	// caches and lazy state the timed cells would otherwise pay for.
	var setups []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sim.Build(trainLongSpec, sim.BuildOpts{Traces: first.Traces, SamplesPerTrace: first.SamplesPerTrace,
			Seed: first.Seed, Modem: ran.ModemX70, Workers: first.Workers})
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.e2e["setup_s"] = metric{median(setups), "s"}

	var walls, traced []float64
	perWindow := map[string][]float64{}
	sq := map[string]float64{}
	var fb []float64
	epochs, winRate := map[string][]float64{}, map[string][]float64{}
	start := time.Now()
	k := 0
	// cell runs cell k (and its traced copy) and reports whether there was
	// one to run.
	cell := func() bool {
		done := time.Since(start).Seconds() >= o.seconds
		if done && (o.trace || k >= pooledCells) {
			return false
		}
		defer func() { k++ }()
		cfg := cellConfig(src)
		c := runCell(cfg, nil)
		checkCell(rep, k, c)
		walls = append(walls, c.wall.Seconds())
		epochUS(perWindow, c)
		if k < pooledCells {
			for _, name := range trainLongModels {
				sq[name] += c.rmse[name] * c.rmse[name]
			}
		}
		if !o.trace {
			return true
		}
		ct := runCell(cfg, tr)
		checkCell(rep, k, ct)
		traced = append(traced, ct.wall.Seconds())
		for _, name := range trainLongModels {
			if math.Float64bits(ct.rmse[name]) != math.Float64bits(c.rmse[name]) {
				rep.fail("train-long cell %d %s: traced RMSE %v != untraced %v", k, name, ct.rmse[name], c.rmse[name])
			}
			r := ct.reports[name]
			epochs[name] = append(epochs[name], float64(r.Epochs))
			var epochS float64
			for _, e := range r.EpochStats {
				epochS += e.Duration.Seconds()
			}
			winRate[name] = append(winRate[name], float64(len(ct.prob.Train)*len(r.EpochStats))/epochS)
		}
		fb = append(fb, forwardBackwardUS(cfg, ct.prob.Train))
		return true
	}
	// A cell trains on one thread; like set-up elsewhere, the cells take
	// turns on each CPU so that no run sits wholly on a slower one.
	for more := true; more; {
		if err := onEachCPU(func() { more = more && cell() }); err != nil {
			return nil, err
		}
	}
	fastWall, _ := quartiles(walls)
	rep.e2e["latency_ms"] = metric{fastWall * 1e3, "ms"}
	rep.e2e["throughput_per_s"] = metric{trainRate(perWindow), "1/s"}
	rep.extra["cell_s"] = median(walls)
	if !o.trace {
		n := float64(min(pooledCells, len(walls)))
		for _, name := range trainLongModels {
			rep.extra["rmse_"+strings.ToLower(name)] = math.Sqrt(sq[name] / n)
		}
		rep.extra["cells"] = float64(len(walls))
		return rep, nil
	}

	for _, name := range trainLongModels {
		rep.layer["predictors.epochs."+strings.ToLower(name)] = metric{median(epochs[name]), "count"}
		rep.layer["predictors.train_windows_per_s."+strings.ToLower(name)] = metric{median(winRate[name]), "1/s"}
		rep.layer["predictors.train_s."+strings.ToLower(name)] = metric{median(tr.durations("predictors.train." + strings.ToLower(name))), "s"}
	}
	rep.layer["sim.build_s"] = metric{median(tr.durations("sim.Build")), "s"}
	rep.layer["trace.prepare_ms"] = metric{median(tr.durations("trace.prepare")) * 1e3, "ms"}
	rep.layer["predictors.eval_ms"] = metric{median(tr.durations("predictors.eval")) * 1e3, "ms"}
	rep.layer["core.forward_backward_us"] = metric{median(fb), "us"}
	rep.layer["trace.overhead_pct"] = metric{(median(traced)/median(walls) - 1) * 100, "%"}
	rep.extra["cells"] = float64(len(traced))
	return rep, nil
}

// epochUS appends, per model, the microseconds per training window of
// every epoch the cell ran.
func epochUS(perWindow map[string][]float64, c cellOut) {
	for _, name := range trainLongModels {
		for _, e := range c.reports[name].EpochStats {
			perWindow[name] = append(perWindow[name], float64(e.Duration.Nanoseconds())/1e3/float64(len(c.prob.Train)))
		}
	}
}

// trainRate is windows per second trained through both models, from the
// fastest quarter of each model's epochs.
func trainRate(perWindow map[string][]float64) float64 {
	var us float64
	for _, name := range trainLongModels {
		q1, _ := quartiles(perWindow[name])
		us += q1
	}
	return 1e6 / us
}

// forwardBackwardUS is the median time of one Prism5G forward and backward
// pass on a fresh model, over up to 256 training windows.
func forwardBackwardUS(cfg experiments.MLConfig, ws []trace.Window) float64 {
	m := newCellModel("Prism5G", cfg).(*core.Prism5G)
	n := min(len(ws), 256)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		m.ForwardBackward(ws[i], 1.0/128)
		d[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(d)
}
