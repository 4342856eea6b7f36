package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"prism5g/internal/mobility"
	"prism5g/internal/pop"
	"prism5g/internal/predictors"
	"prism5g/internal/ran"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// Artifact is one paper table or figure. Run renders its rows to w; the
// learning and QoE entries train at cfg's scale and seed, while the
// measurement entries and Fig 8 keep their own seeds and ignore cfg.
type Artifact struct {
	Name  string // the selector, such as "fig6"
	Title string // the header printed above the rows
	Run   func(w io.Writer, cfg MLConfig) error
}

// Artifacts returns every table and figure the repository renders, in
// paper order: the measurement study (§3–4, the appendices and Fig 8),
// the learning evaluation (§6), the QoE use cases (§7) and the population
// streaming pipeline.
func Artifacts() []Artifact {
	return []Artifact{
		{"fig1", "Fig 1/23: ideal throughput by CC count", func(w io.Writer, _ MLConfig) error {
			for _, op := range spectrum.AllOperators() {
				for _, tech := range []spectrum.Tech{spectrum.LTE, spectrum.NR} {
					for _, r := range Fig1IdealThroughputByCC(op, tech, 42) {
						fmt.Fprintf(w, "%-4s %-3s %dCC %-42s BW=%3.0fMHz mean=%5.0f peak=%5.0f\n",
							r.Operator, r.Tech, r.NumCCs, r.Combo, r.AggBWMHz, r.MeanMbps, r.PeakMbps)
					}
				}
			}
			return nil
		}},
		{"fig2", "Fig 2/24: throughput multimodality", func(w io.Writer, _ MLConfig) error {
			for _, tech := range []spectrum.Tech{spectrum.LTE, spectrum.NR} {
				r := Fig2Multimodality(spectrum.OpZ, tech, 7)
				fmt.Fprintf(w, "%s driving: mean=%.0f std=%.0f peak=%.0f modes=%.0f\n",
					r.Tech, r.Mean, r.Std, r.PeakMbps, r.Modes)
			}
			return nil
		}},
		{"table1", "Table 1: campaign statistics", func(w io.Writer, _ MLConfig) error {
			for _, op := range spectrum.AllOperators() {
				r := Table2ChannelCensus(op, 42)
				fmt.Fprintf(w, "%s: %.0f km / %.0f min, 4G %d ch %d/%d combos, 5G %d ch %d/%d combos\n",
					r.Operator, r.DistanceKM, r.DurationMin,
					r.Channels4G, r.Ordered4G, r.Unique4G,
					r.Channels5G, r.Ordered5G, r.Unique5G)
			}
			return nil
		}},
		{"table2", "Table 2(b)/7: CA combinations", func(w io.Writer, _ MLConfig) error {
			for _, op := range spectrum.AllOperators() {
				r := Table2ChannelCensus(op, 43)
				fmt.Fprintf(w, "%s: 5G up to %d CCs, max agg BW %.0f MHz, top combos %v\n",
					r.Operator, r.Max5GCCs, r.MaxAggBW5GMHz, r.TopCombos5G)
			}
			return nil
		}},
		{"table6", "Tables 2(a)/6: channel plans", func(w io.Writer, _ MLConfig) error {
			for _, op := range spectrum.AllOperators() {
				plan := spectrum.PlanFor(op)
				fmt.Fprintf(w, "%s: %d channels across bands %s\n", op, len(plan.Channels), strings.Join(plan.UniqueBands(), " "))
				fmt.Fprintf(w, "  %-10s %-6s %-10s %-8s %s\n", "Channel", "Mode", "Freq(MHz)", "BW(MHz)", "Class")
				for _, c := range plan.Channels {
					fmt.Fprintf(w, "  %-10s %-6s %-10.0f %-8.0f %s\n",
						c.ID(), c.Band.Duplex, c.CenterMHz, c.BandwidthMHz, c.Band.Class())
				}
			}
			return nil
		}},
		{"fig4", "Fig 4: urban CA map", func(w io.Writer, _ MLConfig) error {
			cells := Fig4UrbanCAMap(spectrum.OpZ, 13)
			fmt.Fprintf(w, "%d grid cells covered; sample row:\n", len(cells))
			for _, c := range cells[:min(8, len(cells))] {
				fmt.Fprintf(w, "  (%d,%d) meanCCs=%.1f n=%d\n", c.X, c.Y, c.MeanCCs, c.Samples)
			}
			return nil
		}},
		{"fig5", "Fig 5: CA combo throughput distributions", func(w io.Writer, _ MLConfig) error {
			for _, r := range Fig5ComboViolins(15) {
				fmt.Fprintf(w, "%-4s %-32s BW=%3.0fMHz %s\n", r.Operator, r.Combo, r.AggBWMHz, r.Summary)
			}
			return nil
		}},
		{"fig6", "Fig 6: aggregate vs sum of parts", func(w io.Writer, _ MLConfig) error {
			r := Fig6AggregateVsSum(17)
			fmt.Fprintf(w, "n41 alone %.0f + n25 alone %.0f = %.0f theoretical; aggregate %.0f (mean deficit %.1f%%, max %.1f%%)\n",
				r.AloneA, r.AloneB, r.TheoreticalSum, r.Aggregate, r.MeanDeficitPct, r.MaxDeficitPct)
			return nil
		}},
		{"fig7", "Fig 7: CC transitions while driving", func(w io.Writer, _ MLConfig) error {
			r := Fig7TransitionTrace(19)
			fmt.Fprintf(w, "120 s drive: %d CC changes, %d RRC events, max 1 s throughput swing %.1fx\n",
				r.CCChanges, len(r.Events), r.MaxStepRatio)
			return nil
		}},
		{"fig8", "Fig 8: ViVo QoE under CA", func(w io.Writer, _ MLConfig) error {
			r := Fig8ViVoCAImpact(35, 3)
			fmt.Fprintf(w, "no-CA channel %.0f±%.0f Mbps, 4CC channel %.0f±%.0f Mbps\n",
				r.NoCAMean, r.NoCAStd, r.FourCCMean, r.FourCCStd)
			for _, d := range r.NoCA {
				fmt.Fprintf(w, "  no-CA run %d: quality deg %.1f%%, stall inc %.1f%%\n", d.TraceID, d.QualityDegPct, d.StallIncPct)
			}
			for _, d := range r.FourCC {
				fmt.Fprintf(w, "  4CC   run %d: quality deg %.1f%%, stall inc %.1f%%\n", d.TraceID, d.QualityDegPct, d.StallIncPct)
			}
			return nil
		}},
		{"fig9", "Fig 9: TBS vs MCS mapping", func(w io.Writer, _ MLConfig) error {
			for _, r := range Fig9TBSMapping() {
				if r.Symbols == 13 {
					fmt.Fprintf(w, "MCS %2d, 13 symbols: TBS %d bits\n", r.MCS, r.TBSBits)
				}
			}
			return nil
		}},
		{"fig10", "Fig 10: spectral efficiency", func(w io.Writer, _ MLConfig) error {
			for _, r := range Fig10SpectralEfficiency() {
				fmt.Fprintf(w, "%-26s %6.0f Mbps over %3.0f MHz = %5.2f bits/s/Hz\n",
					r.Channel, r.CapMbps, r.BWMHz, r.BitsPerHz)
			}
			return nil
		}},
		{"fig11", "Figs 11-13: intra vs inter-band correlations", func(w io.Writer, _ MLConfig) error {
			for _, r := range Fig11to13Correlations(21) {
				fmt.Fprintf(w, "%-5s %-14s own:%.2f/%.2f cross:%.2f/%.2f rsrp-rsrp:%.2f\n",
					r.Kind, r.Combo,
					r.PCellRSRPvsPCellTput, r.SCellRSRPvsSCellTput,
					r.PCellRSRPvsSCellTput, r.SCellRSRPvsPCellTput,
					r.PCellRSRPvsSCellRSRP)
			}
			return nil
		}},
		{"fig14", "Fig 14: same channel with/without CA", func(w io.Writer, _ MLConfig) error {
			for _, r := range Fig14MIMOReduction(23) {
				fmt.Fprintf(w, "%-18s RSRP=%.1f CQI=%.1f MIMO=%.1f #RB=%.1f ccTput=%.0f total=%.0f\n",
					r.Scenario, r.RSRPdBm, r.CQI, r.Layers, r.RB, r.CCTput, r.TotalTput)
			}
			return nil
		}},
		{"fig15", "Fig 15: same SCell under different combos", func(w io.Writer, _ MLConfig) error {
			for _, r := range Fig15RBThrottling(25) {
				fmt.Fprintf(w, "%-18s n41^b: #RB=%.1f layers=%.1f ccTput=%.0f\n",
					r.Scenario, r.RB, r.Layers, r.CCTput)
			}
			return nil
		}},
		{"fig25", "Figs 25/26: driving prevalence and throughput", func(w io.Writer, _ MLConfig) error {
			for _, op := range spectrum.AllOperators() {
				for _, r := range Fig25DrivingPrevalence(op, 27) {
					fmt.Fprintf(w, "%-4s %-9s 5G %3.0f%% CA %3.0f%% mean %4.0f Mbps, CC change every %.0fs\n",
						r.Operator, r.Scenario, 100*r.NRFraction, 100*r.CAFraction, r.MeanMbps, r.EventPeriodS)
				}
			}
			return nil
		}},
		{"fig27", "Figs 27/28: indoor FDD-TDD CA coverage", func(w io.Writer, _ MLConfig) error {
			r := Fig27IndoorCoverage(29)
			fmt.Fprintf(w, "with n71: 5G %.0f%% CA %.0f%% mean %.0f Mbps | without: 5G %.0f%% CA %.0f%% mean %.0f Mbps | RSRP n71 %.1f vs n41 %.1f dBm\n",
				100*r.WithLowBand.NRFraction, 100*r.WithLowBand.CAFraction, r.WithLowBand.MeanMbps,
				100*r.WithoutLowBand.NRFraction, 100*r.WithoutLowBand.CAFraction, r.WithoutLowBand.MeanMbps,
				r.LowBandRSRP, r.MidBandRSRP)
			return nil
		}},
		{"fig29", "Fig 29: UE capability", func(w io.Writer, _ MLConfig) error {
			for _, r := range Fig29UECapability(31) {
				fmt.Fprintf(w, "%-4s (%-9s) maxCC=%d CA%%=%3.0f mean=%4.0f Mbps\n",
					r.Modem, r.Phone, r.MaxCCs, 100*r.CAFrac, r.MeanMbps)
			}
			return nil
		}},
		{"table5", "Table 5: UE and modem models", func(w io.Writer, _ MLConfig) error {
			for _, r := range Fig29UECapability(31) {
				fmt.Fprintf(w, "modem %s = %s\n", r.Modem, r.Phone)
			}
			return nil
		}},
		{"table8", "Tables 8/9/10: temporal dynamics", func(w io.Writer, _ MLConfig) error {
			for _, r := range Table8TemporalDynamics(33) {
				fmt.Fprintf(w, "%-11s RB=%.1f CQI=%.1f MCS=%.1f perCC=%v\n",
					r.Label, r.MeanRB, r.MeanCQI, r.MeanMCS, r.PerCC)
			}
			return nil
		}},
		{"table9", "Tables 9/10: rush hour shrinks RBs, CQI stable", func(w io.Writer, _ MLConfig) error {
			var rush, night TemporalRow
			for _, r := range Table8TemporalDynamics(35) {
				switch r.Label {
				case "T1 rush":
					rush = r
				case "T2 night":
					night = r
				}
			}
			fmt.Fprintf(w, "rush: RB=%.1f CQI=%.1f | night: RB=%.1f CQI=%.1f\n",
				rush.MeanRB, rush.MeanCQI, night.MeanRB, night.MeanCQI)
			return nil
		}},

		{"table3", "Table 3/12: ML feature schema", func(w io.Writer, cfg MLConfig) error {
			prob := BuildProblem(sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Walking, Gran: sim.Long}, cfg)
			fmt.Fprintf(w, "dataset %s: %d windows, per-CC features x%d slots + aggregate history\n",
				prob.Spec.Name(), len(prob.Windows), trace.MaxCC)
			return nil
		}},
		{"table4", "Table 4: prediction RMSE", func(w io.Writer, cfg MLConfig) error {
			for _, g := range []sim.Granularity{sim.Short, sim.Long} {
				fmt.Fprintln(w, Table4(g, cfg).Format())
			}
			return nil
		}},
		{"fig17", "Fig 17: prediction series", func(w io.Writer, cfg MLConfig) error {
			r := Fig17PredictionSeries(sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long}, cfg)
			fmt.Fprintf(w, "replayed %d points, %d transitions; first 5 points (real vs models):\n",
				len(r.T), len(r.TransitionIdx))
			for j := 0; j < len(r.T) && j < 5; j++ {
				fmt.Fprintf(w, "  t=%.0fs real=%4.0f", r.T[j], r.Real[j])
				for _, m := range cfg.modelNames() {
					fmt.Fprintf(w, " %s=%4.0f", m, r.Pred[m][j])
				}
				fmt.Fprintln(w)
			}
			return nil
		}},
		{"fig18", "Fig 18/35/36: transition-zone accuracy", func(w io.Writer, cfg MLConfig) error {
			r := Fig17PredictionSeries(shortDriving, cfg)
			tr := r.TransitionRMSE(15)
			fmt.Fprintf(w, "%d transitions in replay window\n", len(r.TransitionIdx))
			for _, m := range cfg.modelNames() {
				fmt.Fprintf(w, "%-8s RMSE near transitions %6.0f Mbps, elsewhere %6.0f Mbps\n", m, tr[m][0], tr[m][1])
			}
			return nil
		}},
		{"table13", "Table 13: ablation", func(w io.Writer, cfg MLConfig) error {
			for _, g := range []sim.Granularity{sim.Short, sim.Long} {
				r := Table13Ablation(sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: g}, cfg)
				fmt.Fprintf(w, "%s: full=%.4f noState=%.4f (+%.1f%%) noFusion=%.4f (+%.1f%%)\n",
					r.Dataset, r.Full,
					r.NoState, 100*(r.NoState/r.Full-1),
					r.NoFusion, 100*(r.NoFusion/r.Full-1))
			}
			return nil
		}},
		{"table14", "Table 14: generalizability", func(w io.Writer, cfg MLConfig) error {
			for _, r := range Table14Generalizability(cfg) {
				fmt.Fprintf(w, "%-28s", r.Case)
				for _, m := range cfg.modelNames() {
					fmt.Fprintf(w, "  %s=%.4f", m, r.Results[m])
				}
				fmt.Fprintln(w)
			}
			return nil
		}},
		{"runtime", "§6.1: training and inference runtime", func(w io.Writer, cfg MLConfig) error {
			for _, r := range RuntimeComparison(cfg) {
				fmt.Fprintf(w, "%-8s train=%v infer=%v/sample\n", r.Model, r.TrainTime.Round(1e6), r.InferPerSample)
			}
			return nil
		}},
		// The design-choice ablations of DESIGN §5, on the transition-rich
		// 10 ms OpZ driving sub-dataset. The event feature's causal lead is
		// what lets Prism5G react at transitions (the Table 13 NoState row
		// removes it); ablation-lead measures the full model's RMSE there.
		{"ablation-lead", "Ablation: event lead at transitions", func(w io.Writer, cfg MLConfig) error {
			cfg.Models = []string{"Prism5G"}
			v := Fig17PredictionSeries(shortDriving, cfg).TransitionRMSE(15)["Prism5G"]
			fmt.Fprintf(w, "Prism5G transition RMSE %.0f Mbps vs %.0f elsewhere (ratio %.2f)\n", v[0], v[1], v[0]/v[1])
			return nil
		}},
		{"ablation-aggregate", "Ablation: per-CC vs aggregate-only features", func(w io.Writer, cfg MLConfig) error {
			cfg.Models = []string{"LSTM", "Prism5G"}
			for _, c := range Table4Cell(shortDriving, cfg) {
				fmt.Fprintf(w, "%-8s RMSE=%.4f\n", c.Model, c.RMSE)
			}
			return nil
		}},
		{"ablation-shared", "Ablation: shared vs per-CC RNN weights", func(w io.Writer, cfg MLConfig) error {
			cfg.Models = []string{"Prism5G", "Prism5G-Unshared"}
			cfg.Epochs, cfg.Patience = 30, 8 // both variants need room to converge
			writeCells(w, cfg)
			return nil
		}},
		{"ablation-backbone", "Ablation: LSTM vs GRU backbone", func(w io.Writer, cfg MLConfig) error {
			cfg.Models = []string{"Prism5G", "Prism5G-GRU"}
			cfg.Epochs, cfg.Patience = 30, 8 // the GRU warms up more slowly
			writeCells(w, cfg)
			return nil
		}},

		{"fig19", "Fig 19: ViVo + predictors", func(w io.Writer, cfg MLConfig) error {
			fmt.Fprintf(w, "%-12s %10s %10s %12s %10s\n", "Predictor", "AvgQuality", "Stall(s)", "dQuality(%)", "dStall(s)")
			for _, r := range Fig19ViVoPredictors(cfg) {
				fmt.Fprintf(w, "%-12s %10.2f %10.2f %12.1f %10.1f\n",
					r.Predictor, r.AvgQuality, r.StallTimeS, r.DeltaQualityPct, r.DeltaStallPct)
			}
			return nil
		}},
		{"fig20", "Figs 20/21: MPC ABR QoE and stall tails", func(w io.Writer, cfg MLConfig) error {
			fmt.Fprintf(w, "%-14s %10s %10s %8s %8s %8s\n", "Predictor", "AvgMbps", "StallMean", "P90", "P95", "P99")
			for _, r := range Fig20ABRPredictors(cfg, 8) {
				fmt.Fprintf(w, "%-14s %10.1f %10.1f %8.1f %8.1f %8.1f\n",
					r.Predictor, r.AvgMbps, r.StallMeanS, r.StallP90, r.StallP95, r.StallP99)
			}
			return nil
		}},
		{"fig21", "Fig 21: stall-time tail improvement", func(w io.Writer, cfg MLConfig) error {
			var hm, prism ABRPredictorRow
			for _, r := range Fig20ABRPredictors(cfg, 10) {
				switch r.Predictor {
				case "HarmonicMean":
					hm = r
				case "Prism5G":
					prism = r
				}
			}
			fmt.Fprintf(w, "P95 stall: MPC %.1fs vs MPC+Prism5G %.1fs (%.1fs better)\n",
				hm.StallP95, prism.StallP95, hm.StallP95-prism.StallP95)
			fmt.Fprintf(w, "P99 stall: MPC %.1fs vs MPC+Prism5G %.1fs\n", hm.StallP99, prism.StallP99)
			return nil
		}},

		{"population", "Population streaming pipeline (OpZ urban walking)", runPopulation},
	}
}

// SelectArtifacts returns the named entries of Artifacts in table order,
// or every entry when names is empty. An unknown or repeated name is an
// error that lists the known names.
func SelectArtifacts(names []string) ([]Artifact, error) {
	all := Artifacts()
	if len(names) == 0 {
		return all, nil
	}
	want := map[string]bool{}
	for _, n := range names {
		if want[n] {
			return nil, fmt.Errorf("experiments: artifact %q named twice (known: %s)", n, artifactNames(all))
		}
		want[n] = true
	}
	var out []Artifact
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	for _, n := range names {
		if want[n] {
			return nil, fmt.Errorf("experiments: unknown artifact %q (known: %s)", n, artifactNames(all))
		}
	}
	return out, nil
}

func artifactNames(all []Artifact) string {
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

var shortDriving = sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Short}

// writeCells trains cfg's models on the 10 ms OpZ driving sub-dataset and
// writes each one's test RMSE and training time.
func writeCells(w io.Writer, cfg MLConfig) {
	for _, c := range Table4Cell(shortDriving, cfg) {
		fmt.Fprintf(w, "%-18s RMSE=%.4f (train %v)\n", c.Model, c.RMSE, c.TrainTime.Round(1e8))
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

// runPopulation exercises the constant-memory population path end to end
// on 48 UEs for 30 s: the population streams through JSONL spill files
// (never materialized), the scaler fits incrementally over the training
// spill, and the LSTM baseline trains from streamed window chunks.
func runPopulation(w io.Writer, cfg MLConfig) error {
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
		trainSink.Close()
		return err
	}
	sink := &splitSink{train: trainSink, val: valSink, everyN: 5}

	const dur = 30.0
	rep, err := pop.Build(pop.Config{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Walking,
		Modem: ran.ModemX70, Population: 48,
		DurationS: dur, StepS: 1, Seed: cfg.Seed, Workers: cfg.Workers,
		Rush: pop.RushProfile{Base: 0.4, Peak: 1, PeakAtS: dur / 2, WidthS: dur / 4},
	}, sink)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "population %d (%d shards): %d traces spilled, mean %.1f Mbps, deepest cell contention %d UEs\n",
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
	topts := predictors.TrainOpts{Epochs: 30, Batch: 64, LR: 0.01, Patience: 6, Seed: cfg.Seed}
	m := predictors.NewLSTMPredictor(16, 10, topts)
	trep, err := predictors.TrainLoopStream(m,
		trace.StreamWindows(src, &sc, opts),
		trace.StreamWindows(valSrc, &sc, opts), topts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "streamed training: %d epochs, val RMSE %.4f (scaled), train RMSE %.4f, %v\n",
		trep.Epochs, trep.ValRMSE, trep.TrainRMSE, trep.Duration.Round(1e6))
	return nil
}
