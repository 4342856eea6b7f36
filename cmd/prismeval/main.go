// Command prismeval runs the paper's learning evaluation: Table 4 (both
// time scales), the Table 13 ablation, Table 14 generalizability, the
// Fig 17/18 transition analysis, the §6.1 runtime comparison and the
// population streaming pipeline. The fault-severity sweep is a scenario
// grid: prismgrid -config examples/grids/robustness.json.
//
// Usage:
//
//	prismeval [-quick] [-seed N] [-workers N]
//	          [-table4|-ablation|-general|-series|-runtime|-population|-all]
//	          [-metrics file] [-journal file] [-pprof addr]
//
// The telemetry flags are off by default; any of them enables the
// process-wide metrics registry (see DESIGN.md "Observability") without
// changing any computed artifact.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"prism5g/internal/experiments"
	"prism5g/internal/mobility"
	"prism5g/internal/obs"
	"prism5g/internal/pop"
	"prism5g/internal/predictors"
	"prism5g/internal/ran"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

func main() {
	quick := flag.Bool("quick", true, "use the small configuration (the paper-scale run takes ~1 h)")
	seed := flag.Uint64("seed", 42, "seed")
	workers := flag.Int("workers", 0, "worker pool size: 0 = one per CPU, 1 = legacy serial; results are identical at any setting")
	doTable4 := flag.Bool("table4", false, "run Table 4 (both granularities)")
	doAblation := flag.Bool("ablation", false, "run the Table 13 ablation")
	doGeneral := flag.Bool("general", false, "run Table 14 generalizability")
	doSeries := flag.Bool("series", false, "run the Fig 17/18 transition analysis")
	doRuntime := flag.Bool("runtime", false, "run the §6.1 runtime comparison")
	doPop := flag.Bool("population", false, "run the population streaming pipeline: pop build -> JSONL spill -> streamed windows -> streamed training")
	doAll := flag.Bool("all", false, "run everything")
	teleFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	tele, err := teleFlags.Start()
	if err != nil {
		log.Fatalf("prismeval: %v", err)
	}
	if addr := tele.PprofAddr(); addr != "" {
		fmt.Printf("pprof: http://%s/debug/pprof/\n", addr)
	}

	cfg := experiments.PaperMLConfig(*seed)
	if *quick {
		cfg = experiments.QuickMLConfig(*seed)
	}
	cfg.Workers = *workers
	if !(*doTable4 || *doAblation || *doGeneral || *doSeries || *doRuntime || *doPop) {
		*doAll = true
	}

	if *doAll || *doTable4 {
		for _, g := range []sim.Granularity{sim.Short, sim.Long} {
			fmt.Printf("== Table 4 (%s scale) ==\n", g)
			res := experiments.Table4(g, cfg)
			fmt.Println(res.Format())
		}
	}
	if *doAll || *doAblation {
		fmt.Println("== Table 13 ablation (OpZ driving) ==")
		for _, g := range []sim.Granularity{sim.Short, sim.Long} {
			spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: g}
			res := experiments.Table13Ablation(spec, cfg)
			fmt.Printf("%-22s full=%.4f noState=%.4f (+%.1f%%) noFusion=%.4f (+%.1f%%)\n",
				res.Dataset, res.Full,
				res.NoState, 100*(res.NoState/res.Full-1),
				res.NoFusion, 100*(res.NoFusion/res.Full-1))
		}
	}
	if *doAll || *doGeneral {
		fmt.Println("\n== Table 14 generalizability (OpZ walking, 1 s scale) ==")
		for _, res := range experiments.Table14Generalizability(cfg) {
			fmt.Printf("%-28s", res.Case)
			for _, m := range []string{"Prophet", "LSTM", "TCN", "Lumos5G", "Prism5G"} {
				if v, ok := res.Results[m]; ok {
					fmt.Printf("  %s=%.4f", m, v)
				}
			}
			fmt.Println()
		}
	}
	if *doAll || *doSeries {
		fmt.Println("\n== Fig 17/18 transition analysis (OpZ driving, 10 ms scale) ==")
		spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Short}
		res := experiments.Fig17PredictionSeries(spec, cfg)
		fmt.Printf("replayed %d prediction points over %d transitions\n", len(res.T), len(res.TransitionIdx))
		tr := res.TransitionRMSE(15)
		fmt.Printf("%-10s %18s %18s\n", "Model", "RMSE@transition", "RMSE elsewhere")
		for _, m := range []string{"Prophet", "LSTM", "TCN", "Lumos5G", "Prism5G"} {
			if v, ok := tr[m]; ok {
				fmt.Printf("%-10s %15.0f M %15.0f M\n", m, v[0], v[1])
			}
		}
	}
	if *doAll || *doRuntime {
		fmt.Println("\n== Runtime (§6.1) ==")
		for _, r := range experiments.RuntimeComparison(cfg) {
			fmt.Printf("%-10s train %-10v infer %v/sample\n", r.Model, r.TrainTime.Round(1e6), r.InferPerSample)
		}
	}
	if *doAll || *doPop {
		fmt.Println("\n== Population streaming pipeline (OpZ urban walking) ==")
		if err := runPopulation(*quick, *seed, *workers); err != nil {
			log.Fatalf("prismeval: population: %v", err)
		}
	}
	if tele.Active() {
		fmt.Println(tele.Summary())
		if err := tele.Close(); err != nil {
			log.Fatalf("prismeval: %v", err)
		}
	}
}

// splitSink routes every everyN-th trace to val and the rest to train —
// the trace-level split a streamed population uses instead of a shuffled
// in-memory one.
type splitSink struct {
	train, val trace.Sink
	everyN     int
	n          int
}

func (s *splitSink) Emit(tr trace.Trace) error {
	i := s.n
	s.n++
	if s.everyN > 0 && i%s.everyN == s.everyN-1 {
		return s.val.Emit(tr)
	}
	return s.train.Emit(tr)
}

func (s *splitSink) Close() error {
	terr := s.train.Close()
	verr := s.val.Close()
	if terr != nil {
		return terr
	}
	return verr
}

// runPopulation exercises the constant-memory population path end to end:
// the population streams through JSONL spill files (never materialized),
// the scaler fits incrementally over the training spill, and the LSTM
// baseline trains from streamed window chunks.
func runPopulation(quick bool, seed uint64, workers int) error {
	popN, dur := 512, 60.0
	if quick {
		popN, dur = 48, 30.0
	}
	dir, err := os.MkdirTemp("", "prismpop")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	trainPath := filepath.Join(dir, "train.jsonl")
	valPath := filepath.Join(dir, "val.jsonl")
	trainSink, err := trace.CreateJSONLSink(trainPath)
	if err != nil {
		return err
	}
	valSink, err := trace.CreateJSONLSink(valPath)
	if err != nil {
		return err
	}
	sink := &splitSink{train: trainSink, val: valSink, everyN: 5}

	cfg := pop.Config{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Walking,
		Modem: ran.ModemX70, Population: popN,
		DurationS: dur, StepS: 1, Seed: seed, Workers: workers,
		Rush: pop.RushProfile{Base: 0.4, Peak: 1, PeakAtS: dur / 2, WidthS: dur / 4},
	}
	rep, err := pop.Build(cfg, sink)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("population %d (%d shards): %d traces spilled, mean %.1f Mbps, deepest cell contention %d UEs\n",
		rep.Population, rep.Shards, rep.Traces, rep.MeanAggMbps, rep.MaxAttached)

	src, err := trace.OpenJSONLSource(trainPath)
	if err != nil {
		return err
	}
	defer src.Close()
	var sc trace.Scaler
	sc.BeginFit()
	for {
		tr, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		sc.ObserveTrace(tr)
	}
	sc.FinishFit()
	if err := src.Reset(); err != nil {
		return err
	}
	valSrc, err := trace.OpenJSONLSource(valPath)
	if err != nil {
		return err
	}
	defer valSrc.Close()

	opts := trace.WindowOpts{History: 10, Horizon: 10, Stride: 1}
	topts := predictors.TrainOpts{Epochs: 30, Batch: 64, LR: 0.01, Patience: 6, Seed: seed}
	m := predictors.NewLSTMPredictor(16, 10, topts)
	trep, err := predictors.TrainLoopStream(m,
		trace.StreamWindows(src, &sc, opts),
		trace.StreamWindows(valSrc, &sc, opts), topts)
	if err != nil {
		return err
	}
	fmt.Printf("streamed training: %d epochs, val RMSE %.4f (scaled), train RMSE %.4f, %v\n",
		trep.Epochs, trep.ValRMSE, trep.TrainRMSE, trep.Duration.Round(1e6))
	return nil
}
