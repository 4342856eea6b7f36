package experiments

import (
	"math"
	"strings"
	"testing"

	"prism5g/internal/mobility"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// tinyML is an even smaller config than QuickMLConfig for unit tests.
func tinyML() MLConfig {
	return MLConfig{
		Traces: 4, SamplesPerTrace: 140, Stride: 3,
		Hidden: 8, Epochs: 8, Patience: 3, Seed: 11,
		Models: []string{"LSTM", "Prism5G"},
	}
}

func TestFig1ShapesHold(t *testing.T) {
	rows := Fig1IdealThroughputByCC(spectrum.OpZ, spectrum.NR, 5)
	if len(rows) < 3 {
		t.Fatalf("only %d CC levels", len(rows))
	}
	// Throughput must grow with CC count overall: last >> first.
	first, last := rows[0], rows[len(rows)-1]
	if last.MeanMbps < 1.5*first.MeanMbps {
		t.Fatalf("CA did not boost throughput: %.0f -> %.0f", first.MeanMbps, last.MeanMbps)
	}
	if last.PeakMbps < last.MeanMbps {
		t.Fatal("peak below mean")
	}
	// 4G stays far below 5G.
	rows4 := Fig1IdealThroughputByCC(spectrum.OpZ, spectrum.LTE, 5)
	if rows4[len(rows4)-1].MeanMbps > last.MeanMbps {
		t.Fatal("4G outperformed 5G")
	}
}

func TestFig2Multimodality(t *testing.T) {
	res := Fig2Multimodality(spectrum.OpZ, spectrum.NR, 7)
	if res.Mean <= 0 || res.Std <= 0 {
		t.Fatalf("degenerate distribution: %+v", res)
	}
	if len(res.Modes) < 2 {
		t.Fatalf("5G driving distribution should be multimodal, got %d modes", len(res.Modes))
	}
}

func TestTable2Census(t *testing.T) {
	res := Table2ChannelCensus(spectrum.OpZ, 9)
	if res.Channels4G < 4 || res.Channels5G < 4 {
		t.Fatalf("channel counts: %+v", res)
	}
	if res.Ordered5G < res.Unique5G {
		t.Fatal("ordered < unique")
	}
	if res.Ordered5G < 3 {
		t.Fatalf("too few 5G combos observed: %d", res.Ordered5G)
	}
	if res.Max4GCCs < 3 {
		t.Fatalf("4G CA depth = %d", res.Max4GCCs)
	}
	if res.DistanceKM <= 0 {
		t.Fatal("no distance covered")
	}
}

func TestFig4Map(t *testing.T) {
	cells := Fig4UrbanCAMap(spectrum.OpZ, 13)
	if len(cells) < 10 {
		t.Fatalf("map cells = %d", len(cells))
	}
	varied := false
	for _, c := range cells[1:] {
		if math.Abs(c.MeanCCs-cells[0].MeanCCs) > 0.5 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("CA map shows no spatial variation")
	}
}

func TestFig5Violins(t *testing.T) {
	rows := Fig5ComboViolins(15)
	if len(rows) != 6 {
		t.Fatalf("combos = %d", len(rows))
	}
	// The paper's headline: equal aggregate bandwidth != equal throughput.
	// Rows 2 (n77+n77, 160 MHz) and 3 (n41+n25+n41, 160 MHz) differ.
	if rows[2].AggBWMHz != rows[3].AggBWMHz {
		t.Fatalf("expected equal BW rows, got %.0f vs %.0f", rows[2].AggBWMHz, rows[3].AggBWMHz)
	}
	a, b := rows[2].Summary.Mean, rows[3].Summary.Mean
	if math.Abs(a-b) < 0.05*math.Max(a, b) {
		t.Fatalf("equal-BW combos performed identically: %.0f vs %.0f", a, b)
	}
}

func TestFig6Deficit(t *testing.T) {
	res := Fig6AggregateVsSum(17)
	if res.Aggregate >= res.TheoreticalSum {
		t.Fatal("aggregate not below sum")
	}
	if res.MeanDeficitPct < 3 {
		t.Fatalf("mean deficit only %.1f%%", res.MeanDeficitPct)
	}
	if res.MaxDeficitPct < res.MeanDeficitPct {
		t.Fatal("max deficit below mean deficit")
	}
	if len(res.SeriesAgg) == 0 {
		t.Fatal("no series")
	}
}

func TestFig7Transitions(t *testing.T) {
	res := Fig7TransitionTrace(19)
	if res.CCChanges < 3 {
		t.Fatalf("only %d CC changes", res.CCChanges)
	}
	if res.MaxStepRatio < 1.3 {
		t.Fatalf("no abrupt throughput changes: ratio %.2f", res.MaxStepRatio)
	}
	if len(res.Events) == 0 {
		t.Fatal("no events")
	}
}

func TestFig9TBS(t *testing.T) {
	rows := Fig9TBSMapping()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// TBS grows with both MCS and symbols.
	byMCS := map[int][]TBSRow{}
	for _, r := range rows {
		byMCS[r.MCS] = append(byMCS[r.MCS], r)
	}
	for mcs, rs := range byMCS {
		for i := 1; i < len(rs); i++ {
			if rs[i].TBSBits < rs[i-1].TBSBits {
				t.Fatalf("TBS not monotone in symbols at MCS %d", mcs)
			}
		}
	}
}

func TestFig10Efficiency(t *testing.T) {
	rows := Fig10SpectralEfficiency()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Mid-band TDD 4-layer channels lead; mmWave (2 layers, TDD) trails
	// in bits/Hz despite the huge absolute capacity.
	var n41, n260 float64
	for _, r := range rows {
		if strings.HasPrefix(r.Channel, "n41") {
			n41 = r.BitsPerHz
		}
		if strings.HasPrefix(r.Channel, "n260") {
			n260 = r.BitsPerHz
		}
	}
	if n41 <= n260 {
		t.Fatalf("mid-band efficiency %.1f should beat mmWave %.1f", n41, n260)
	}
}

func TestFig11to13CorrelationCollapse(t *testing.T) {
	rows := Fig11to13Correlations(21)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var intra, inter CorrelationResult
	for _, r := range rows {
		if r.Kind == "intra" {
			intra = r
		} else {
			inter = r
		}
	}
	// Intra-band RSRPs track each other far better than inter-band.
	if !(intra.PCellRSRPvsSCellRSRP > inter.PCellRSRPvsSCellRSRP) {
		t.Fatalf("intra cross-RSRP %.2f not above inter %.2f",
			intra.PCellRSRPvsSCellRSRP, inter.PCellRSRPvsSCellRSRP)
	}
	// Own-cell correlations are positive everywhere.
	if intra.PCellRSRPvsPCellTput < 0.15 || inter.PCellRSRPvsPCellTput < 0.15 {
		t.Fatalf("own-cell RSRP-tput correlation too weak: %.2f / %.2f",
			intra.PCellRSRPvsPCellTput, inter.PCellRSRPvsPCellTput)
	}
}

func TestFig14MIMOCollapse(t *testing.T) {
	rows := Fig14MIMOReduction(23)
	alone, ca := rows[0], rows[1]
	// Similar RSRP (within a few dB), fewer layers, lower CC throughput.
	if math.Abs(alone.RSRPdBm-ca.RSRPdBm) > 6 {
		t.Fatalf("RSRP should be similar: %.1f vs %.1f", alone.RSRPdBm, ca.RSRPdBm)
	}
	if ca.Layers >= alone.Layers {
		t.Fatalf("CA should reduce layers: %.1f vs %.1f", ca.Layers, alone.Layers)
	}
	if ca.CCTput >= 0.8*alone.CCTput {
		t.Fatalf("CA n25 throughput should drop: %.0f vs %.0f", ca.CCTput, alone.CCTput)
	}
	// But the total with CA is far higher.
	if ca.TotalTput <= alone.TotalTput {
		t.Fatal("CA total should exceed single carrier")
	}
}

func TestFig15RBThrottling(t *testing.T) {
	rows := Fig15RBThrottling(25)
	intra, inter := rows[0], rows[1]
	// In the 3CC combo (which exceeds the BW budget) the same n41 SCell
	// gets fewer RBs than in the 2CC combo.
	if inter.RB >= intra.RB {
		t.Fatalf("3CC SCell RB %.1f not below 2CC %.1f", inter.RB, intra.RB)
	}
	if inter.CCTput >= intra.CCTput {
		t.Fatalf("3CC SCell tput %.0f not below 2CC %.0f", inter.CCTput, intra.CCTput)
	}
}

func TestFig25Prevalence(t *testing.T) {
	rows := Fig25DrivingPrevalence(spectrum.OpZ, 27)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	urban := rows[0]
	if urban.Scenario != mobility.Urban {
		t.Fatal("row order")
	}
	if urban.CAFraction < 0.3 {
		t.Fatalf("OpZ urban CA prevalence %.2f too low", urban.CAFraction)
	}
	// Urban richer than beltway.
	if rows[2].CAFraction > urban.CAFraction+0.05 {
		t.Fatalf("beltway CA (%.2f) should not exceed urban (%.2f)", rows[2].CAFraction, urban.CAFraction)
	}
}

func TestFig27Indoor(t *testing.T) {
	res := Fig27IndoorCoverage(29)
	if res.WithoutLowBand.NRFraction > res.WithLowBand.NRFraction {
		t.Fatalf("locking out low band improved coverage: %.2f vs %.2f",
			res.WithoutLowBand.NRFraction, res.WithLowBand.NRFraction)
	}
	if res.LowBandRSRP <= res.MidBandRSRP {
		t.Fatalf("indoors n71 RSRP (%.1f) should beat n41 (%.1f)", res.LowBandRSRP, res.MidBandRSRP)
	}
}

func TestFig29Capability(t *testing.T) {
	rows := Fig29UECapability(31)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].MaxCCs > 1 {
		t.Fatalf("X50 reached %d CCs", rows[0].MaxCCs)
	}
	if rows[3].MaxCCs < 3 {
		t.Fatalf("X70 reached only %d CCs", rows[3].MaxCCs)
	}
	if rows[3].MeanMbps <= rows[0].MeanMbps {
		t.Fatal("newer modem should see higher throughput")
	}
}

func TestTable8Temporal(t *testing.T) {
	rows := Table8TemporalDynamics(33)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var rush, night TemporalRow
	for _, r := range rows {
		switch r.Label {
		case "T1 rush":
			rush = r
		case "T2 night":
			night = r
		}
	}
	if rush.MeanRB >= night.MeanRB {
		t.Fatalf("rush-hour RBs %.1f not below midnight %.1f", rush.MeanRB, night.MeanRB)
	}
	// CQI stays roughly stable (the paper's point).
	if math.Abs(rush.MeanCQI-night.MeanCQI) > 2.5 {
		t.Fatalf("CQI moved too much: %.1f vs %.1f", rush.MeanCQI, night.MeanCQI)
	}
	if len(rush.PerCC) == 0 {
		t.Fatal("no per-CC signal rows")
	}
}

func TestTable4CellQuick(t *testing.T) {
	spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long}
	cells := Table4Cell(spec, tinyML())
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if math.IsNaN(c.RMSE) || c.RMSE <= 0 || c.RMSE > 1 {
			t.Fatalf("%s RMSE = %f", c.Model, c.RMSE)
		}
	}
	res := Table4Result{Gran: sim.Long, Cells: cells}
	if res.Format() == "" {
		t.Fatal("empty format")
	}
	impr := res.ImprovementPct()
	if _, ok := impr[spec.Name()]; !ok {
		t.Fatal("no improvement entry")
	}
}

func TestTable13AblationQuick(t *testing.T) {
	spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Walking, Gran: sim.Long}
	cfg := tinyML()
	res := Table13Ablation(spec, cfg)
	for _, v := range []float64{res.Full, res.NoState, res.NoFusion} {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("ablation RMSE invalid: %+v", res)
		}
	}
}

func TestFig17SeriesQuick(t *testing.T) {
	spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long}
	res := Fig17PredictionSeries(spec, tinyML())
	if len(res.T) == 0 || len(res.Real) != len(res.T) {
		t.Fatal("series shape wrong")
	}
	for _, name := range []string{"LSTM", "Prism5G"} {
		if len(res.Pred[name]) != len(res.T) {
			t.Fatalf("%s series missing", name)
		}
	}
	tr := res.TransitionRMSE(5)
	if len(tr) == 0 {
		t.Fatal("no transition RMSE")
	}
}

// TestFig17WindowsMatchMakeWindow replays Fig 17's held-out traces with
// Prophet, which reads each window's trace by TraceIdx, and requires every
// point of the series to equal the forecast on MakeWindow's window at the
// same start, bit for bit.
func TestFig17WindowsMatchMakeWindow(t *testing.T) {
	spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long}
	cfg := tinyML()
	cfg.Models = []string{"Prophet"}
	got := Fig17PredictionSeries(spec, cfg).Pred["Prophet"]
	prob := BuildProblem(spec, cfg)
	m := buildModel("Prophet", prob, cfg)
	wopts := trace.WindowOpts{History: 10, Horizon: 10, Stride: 1}
	var want []float64
	for ti := len(prob.Dataset.Traces) - 2; ti < len(prob.Dataset.Traces); ti++ {
		tr := &prob.Dataset.Traces[ti]
		for start := 0; start+20 <= len(tr.Samples); start++ {
			y := m.Predict(trace.MakeWindow(tr, ti, start, prob.Scaler, wopts))
			want = append(want, prob.Scaler.InvertTput(y[0]))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d points, MakeWindow gives %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("point %d = %v, MakeWindow's %v", i, got[i], want[i])
		}
	}
}

func TestRuntimeComparisonQuick(t *testing.T) {
	res := RuntimeComparison(tinyML())
	if len(res) != 2 {
		t.Fatalf("rows = %d", len(res))
	}
	for _, r := range res {
		if r.TrainTime <= 0 || r.InferPerSample <= 0 {
			t.Fatalf("%s: zero timings", r.Model)
		}
		// The paper: inference well under 1 ms/sample.
		if r.InferPerSample.Seconds() > 0.001 {
			t.Fatalf("%s inference %.2f ms/sample exceeds 1 ms", r.Model, 1000*r.InferPerSample.Seconds())
		}
	}
}

func TestFig8ViVoQuick(t *testing.T) {
	res := Fig8ViVoCAImpact(35, 2)
	if len(res.NoCA) != 2 || len(res.FourCC) != 2 {
		t.Fatal("missing runs")
	}
	if res.FourCCMean <= res.NoCAMean {
		t.Fatalf("4CC mean %.0f not above no-CA %.0f", res.FourCCMean, res.NoCAMean)
	}
	if res.FourCCStd <= res.NoCAStd {
		t.Fatalf("4CC std %.0f not above no-CA %.0f (CA adds variability)", res.FourCCStd, res.NoCAStd)
	}
}
