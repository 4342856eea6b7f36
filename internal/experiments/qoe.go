package experiments

import (
	"sort"

	"prism5g/internal/mobility"
	"prism5g/internal/obs"
	"prism5g/internal/predictors"
	"prism5g/internal/qoe"
	"prism5g/internal/ran"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/stats"
	"prism5g/internal/trace"
)

// ViVoDelta is one Fig 8 point: QoE change relative to the ideal variant.
type ViVoDelta struct {
	TraceID       int
	QualityDegPct float64
	StallIncPct   float64
}

// ViVoCAImpactResult captures Fig 8: ViVo QoE without CA vs with 4CC CA.
type ViVoCAImpactResult struct {
	NoCA   []ViVoDelta
	FourCC []ViVoDelta
	// Mean channel stats for context (the paper quotes 355±161 vs
	// 700±331 Mbps).
	NoCAMean, NoCAStd     float64
	FourCCMean, FourCCStd float64
}

// Fig8ViVoCAImpact reproduces Fig 8: CA boosts bandwidth but its
// variability makes the bandwidth-adaptive XR application comparatively
// worse off against its own ideal baseline.
func Fig8ViVoCAImpact(seed uint64, runs int) ViVoCAImpactResult {
	defer obs.StartSpan("experiments.Fig8ViVoCAImpact").End()
	var res ViVoCAImpactResult
	var noCAStats, fourCCStats stats.Welford
	for r := 0; r < runs; r++ {
		// Case 1: single mid-band channel (no CA), standard ViVo. The
		// paper's case-1 traces are stationary band-locked runs at a
		// moderate-signal spot (Fig 6), hence the offset start.
		net, start := IdealStart(spectrum.OpZ, mobility.Urban, seed+uint64(r)*71)
		start.X += 100
		trNoCA, _ := sim.Run(sim.RunConfig{
			Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Stationary,
			Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 90, StepS: 0.05,
			Seed: seed + uint64(r)*71, ChannelLock: []string{"n41^b"},
			Start: &start, Net: net,
		})
		for _, v := range trNoCA.AggSeries() {
			noCAStats.Add(v)
		}
		ch := qoe.NewChannel(&trNoCA)
		ideal := qoe.RunViVo(qoe.DefaultViVoConfig(), ch, &qoe.Oracle{Ch: ch})
		actual := qoe.RunViVo(qoe.DefaultViVoConfig(), ch, &qoe.MovingMean{K: 10})
		res.NoCA = append(res.NoCA, ViVoDelta{
			TraceID:       r,
			QualityDegPct: actual.QualityDegradationPct(ideal),
			StallIncPct:   actual.StallIncreasePct(ideal),
		})
		// Case 2: up-to-4CC CA, scaled-up ViVo.
		trCA, _ := sim.Run(sim.RunConfig{
			Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Driving,
			Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 90, StepS: 0.05,
			Seed: seed + uint64(r)*71 + 13,
		})
		for _, v := range trCA.AggSeries() {
			fourCCStats.Add(v)
		}
		ch2 := qoe.NewChannel(&trCA)
		ideal2 := qoe.RunViVo(qoe.ScaledUpViVoConfig(), ch2, &qoe.Oracle{Ch: ch2})
		actual2 := qoe.RunViVo(qoe.ScaledUpViVoConfig(), ch2, &qoe.MovingMean{K: 10})
		res.FourCC = append(res.FourCC, ViVoDelta{
			TraceID:       r,
			QualityDegPct: actual2.QualityDegradationPct(ideal2),
			StallIncPct:   actual2.StallIncreasePct(ideal2),
		})
	}
	res.NoCAMean, res.NoCAStd = noCAStats.Mean(), noCAStats.StdDev()
	res.FourCCMean, res.FourCCStd = fourCCStats.Mean(), fourCCStats.StdDev()
	return res
}

// ViVoPredictorRow is one Fig 19 row: ViVo QoE with one predictor.
type ViVoPredictorRow struct {
	Predictor  string
	AvgQuality float64
	StallTimeS float64
	// DeltaQualityPct / DeltaStallPct compare against the ideal ViVo.
	DeltaQualityPct float64
	DeltaStallPct   float64
}

// Fig19ViVoPredictors reproduces Fig 19: ViVo driven by Prophet, LSTM and
// Prism5G vs the ideal oracle. Models are trained on the short-granularity
// driving sub-dataset and evaluated on held-out traces.
func Fig19ViVoPredictors(cfg MLConfig) []ViVoPredictorRow {
	defer obs.StartSpan("experiments.Fig19ViVoPredictors").End()
	// ViVo sessions need tens of seconds of 10 ms trace, so this
	// experiment builds its own longer-trace variant of the short
	// sub-dataset, trains on the early traces and streams over the
	// held-out tail — the paper's protocol of streaming over the
	// collected traces themselves.
	cfgL := cfg
	cfgL.Traces = 6
	if cfgL.SamplesPerTrace < 1500 {
		cfgL.SamplesPerTrace = 1500 // 15 s per trace at 10 ms
	}
	if cfgL.Stride < 3 {
		cfgL.Stride = 3
	}
	spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Short}
	prob := BuildProblem(spec, cfgL)
	held := map[int]bool{len(prob.Dataset.Traces) - 2: true, len(prob.Dataset.Traces) - 1: true}
	train, _ := trace.SplitByTrace(prob.Windows, func(ti int) bool { return held[ti] })
	nVal := len(train) / 5

	names := []string{"Prophet", "LSTM", "Prism5G"}
	models := map[string]predictors.Predictor{}
	for _, n := range names {
		m := buildModel(n, prob, cfgL)
		m.Train(train[nVal:], train[:nVal])
		models[n] = m
	}

	wopts := trace.WindowOpts{History: 10, Horizon: 10, Stride: 1}
	type acc struct {
		q, s stats.Welford
	}
	accs := map[string]*acc{"Ideal": {}, "MovingMean": {}}
	for _, n := range names {
		accs[n] = &acc{}
	}
	var idealQ, idealS stats.Welford
	for ti := range prob.Dataset.Traces {
		if !held[ti] {
			continue
		}
		tr := prob.Dataset.Traces[ti]
		ch := qoe.NewChannel(&tr)
		cfgV := qoe.ScaledUpViVoConfig()
		ideal := qoe.RunViVo(cfgV, ch, &qoe.Oracle{Ch: ch})
		idealQ.Add(ideal.AvgQuality)
		idealS.Add(ideal.StallTimeS)
		accs["Ideal"].q.Add(ideal.AvgQuality)
		accs["Ideal"].s.Add(ideal.StallTimeS)
		mm := qoe.RunViVo(cfgV, ch, &qoe.MovingMean{K: 10})
		accs["MovingMean"].q.Add(mm.AvgQuality)
		accs["MovingMean"].s.Add(mm.StallTimeS)
		for _, n := range names {
			bw := qoe.NewModelPredictor(n, models[n], &tr, prob.Scaler, wopts)
			r := qoe.RunViVo(cfgV, ch, bw)
			accs[n].q.Add(r.AvgQuality)
			accs[n].s.Add(r.StallTimeS)
		}
	}
	var rows []ViVoPredictorRow
	for _, n := range []string{"Ideal", "MovingMean", "Prophet", "LSTM", "Prism5G"} {
		a := accs[n]
		row := ViVoPredictorRow{
			Predictor:  n,
			AvgQuality: a.q.Mean(),
			StallTimeS: a.s.Mean(),
		}
		if idealQ.Mean() > 0 {
			row.DeltaQualityPct = 100 * (idealQ.Mean() - a.q.Mean()) / idealQ.Mean()
		}
		row.DeltaStallPct = a.s.Mean() - idealS.Mean()
		rows = append(rows, row)
	}
	return rows
}

// ABRPredictorRow is one Fig 20/21 row: MPC streaming QoE with a predictor.
type ABRPredictorRow struct {
	Predictor  string
	AvgMbps    float64
	StallMeanS float64
	StallP90   float64
	StallP95   float64
	StallP99   float64
	Sessions   int
}

// Fig20ABRPredictors reproduces Figs 20/21: MPC video streaming with the
// stock harmonic-mean estimator vs Prophet, LSTM and Prism5G forecasts,
// including the stall-time tail statistics.
func Fig20ABRPredictors(cfg MLConfig, sessions int) []ABRPredictorRow {
	defer obs.StartSpan("experiments.Fig20ABRPredictors").End()
	spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long}
	prob := BuildProblem(spec, cfg)
	names := []string{"Prophet", "LSTM", "Prism5G"}
	// The paper streams over the collected CA traces themselves: train on
	// windows from the early traces, stream sessions over the held-out
	// tail traces (so the channel distribution matches the training one).
	held := map[int]bool{}
	nHeld := len(prob.Dataset.Traces) / 3
	if nHeld < 1 {
		nHeld = 1
	}
	for ti := len(prob.Dataset.Traces) - nHeld; ti < len(prob.Dataset.Traces); ti++ {
		held[ti] = true
	}
	train, _ := trace.SplitByTrace(prob.Windows, func(ti int) bool { return held[ti] })
	nVal := len(train) / 5
	models := map[string]predictors.Predictor{}
	for _, n := range names {
		m := buildModel(n, prob, cfg)
		m.Train(train[nVal:], train[:nVal])
		models[n] = m
	}
	abrCfg := qoe.DefaultABRConfig()
	wopts := trace.WindowOpts{History: 10, Horizon: 10, Stride: 1}

	type acc struct {
		rate   stats.Welford
		stalls []float64
	}
	accs := map[string]*acc{"HarmonicMean": {}}
	for _, n := range names {
		accs[n] = &acc{}
	}
	heldIdx := make([]int, 0, len(held))
	for ti := range held {
		heldIdx = append(heldIdx, ti)
	}
	sort.Ints(heldIdx)
	for sess := 0; sess < sessions; sess++ {
		tr := &prob.Dataset.Traces[heldIdx[sess%len(heldIdx)]]
		ch := qoe.NewChannel(tr)
		hm := qoe.RunABR(abrCfg, ch, &qoe.HarmonicPredictor{K: 5})
		accs["HarmonicMean"].rate.Add(hm.AvgMbps)
		accs["HarmonicMean"].stalls = append(accs["HarmonicMean"].stalls, hm.StallTimeS)
		for _, n := range names {
			bw := qoe.NewModelPredictor(n, models[n], tr, prob.Scaler, wopts)
			r := qoe.RunABR(abrCfg, ch, bw)
			accs[n].rate.Add(r.AvgMbps)
			accs[n].stalls = append(accs[n].stalls, r.StallTimeS)
		}
	}
	var rows []ABRPredictorRow
	for _, n := range []string{"HarmonicMean", "Prophet", "LSTM", "Prism5G"} {
		a := accs[n]
		qs := stats.Quantiles(a.stalls, 0.9, 0.95, 0.99)
		rows = append(rows, ABRPredictorRow{
			Predictor:  n,
			AvgMbps:    a.rate.Mean(),
			StallMeanS: stats.Mean(a.stalls),
			StallP90:   qs[0], StallP95: qs[1], StallP99: qs[2],
			Sessions: len(a.stalls),
		})
	}
	return rows
}
