package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"prism5g/internal/rng"
)

// synthTrace builds a deterministic trace with n samples, 2 CCs present,
// throughput ramping linearly.
func synthTrace(n int, route, run int) Trace {
	tr := Trace{
		Meta:  Meta{Operator: "OpZ", Scenario: "urban", Mobility: "walking", Route: route, Run: run},
		StepS: 1,
	}
	for i := 0; i < n; i++ {
		var s Sample
		s.T = float64(i)
		s.AggTput = 100 + float64(i)
		s.NumActiveCCs = 2
		for c := 0; c < 2; c++ {
			cc := &s.CCs[c]
			cc.Present = true
			cc.BandName = "n41"
			cc.ChannelID = "n41^a"
			cc.IsPCell = c == 0
			cc.Vec[FActive] = 1
			cc.Vec[FRSRP] = -90 + float64(c)
			cc.Vec[FRSRQ] = -11
			cc.Vec[FSINR] = 15
			cc.Vec[FCQI] = 11
			cc.Vec[FBLER] = 0.1
			cc.Vec[FRB] = 100
			cc.Vec[FLayers] = 2
			cc.Vec[FMCS] = 20
			cc.Vec[FTput] = (100 + float64(i)) / 2
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

func synthDataset(nTraces, samplesPer int) *Dataset {
	d := &Dataset{Name: "test", StepS: 1}
	for i := 0; i < nTraces; i++ {
		d.Traces = append(d.Traces, synthTrace(samplesPer, i/2, i%2))
	}
	return d
}

func TestDatasetNumSamples(t *testing.T) {
	d := synthDataset(3, 50)
	if d.NumSamples() != 150 {
		t.Fatalf("NumSamples = %d", d.NumSamples())
	}
}

func TestAggSeries(t *testing.T) {
	tr := synthTrace(5, 0, 0)
	s := tr.AggSeries()
	if len(s) != 5 || s[0] != 100 || s[4] != 104 {
		t.Fatalf("series = %v", s)
	}
}

func TestScalerFitAndInvert(t *testing.T) {
	d := synthDataset(2, 40)
	var sc Scaler
	if sc.Fitted() {
		t.Fatal("unfitted scaler claims fitted")
	}
	sc.Fit(d.Traces)
	if !sc.Fitted() {
		t.Fatal("fitted scaler claims unfitted")
	}
	if sc.TputMin != 100 || sc.TputMax != 139 {
		t.Fatalf("tput range = [%f, %f]", sc.TputMin, sc.TputMax)
	}
	// Round trip.
	for _, v := range []float64{100, 120, 139} {
		if got := sc.InvertTput(sc.ScaleTput(v)); math.Abs(got-v) > 1e-9 {
			t.Fatalf("round trip %f -> %f", v, got)
		}
	}
	if s := sc.ScaleTput(100); s != 0 {
		t.Fatalf("min scales to %f", s)
	}
	if s := sc.ScaleTput(139); s != 1 {
		t.Fatalf("max scales to %f", s)
	}
	// Per-CC throughput must share the aggregate scale.
	if sc.FeatMin[FTput] != sc.TputMin || sc.FeatMax[FTput] != sc.TputMax {
		t.Fatal("FTput scale not tied to aggregate")
	}
}

func TestScalerDegenerateInput(t *testing.T) {
	var sc Scaler
	sc.Fit(nil)
	if sc.TputMax <= sc.TputMin {
		t.Fatal("degenerate scaler range")
	}
	// Constant feature must not divide by zero.
	d := synthDataset(1, 30)
	var sc2 Scaler
	sc2.Fit(d.Traces)
	v := sc2.ScaleFeature(FRSRQ, -11) // constant -11 in synth data
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("degenerate feature scale = %f", v)
	}
}

func TestWindowsShapeAndContent(t *testing.T) {
	d := synthDataset(1, 30)
	var sc Scaler
	sc.Fit(d.Traces)
	ws := Windows(d, &sc, DefaultWindowOpts())
	// 30 samples, T=10, H=10 -> 11 windows.
	if len(ws) != 11 {
		t.Fatalf("windows = %d", len(ws))
	}
	w := ws[0]
	if len(w.Feat(MaxCC-1, 9)) != NumCCFeatures {
		t.Fatal("feature row shape wrong")
	}
	if len(w.AggHist()) != 10 || len(w.Y()) != 10 || len(w.YPerCC(0)) != 10 {
		t.Fatal("history/target shape wrong")
	}
	// Present CCs have active mask 1; absent slots all zero.
	if w.Feat(0, 0)[FActive] != 1 || w.Feat(1, 0)[FActive] != 1 {
		t.Fatal("present CC mask should be 1")
	}
	if w.Feat(2, 0)[FActive] != 0 || w.Feat(3, 0)[FActive] != 0 {
		t.Fatal("absent CC mask should be 0")
	}
	for f := 0; f < NumCCFeatures; f++ {
		if w.Feat(3, 0)[f] != 0 {
			t.Fatal("absent CC features should be zero")
		}
	}
	// Target is the scaled future aggregate: window 0 history covers
	// samples 0..9, so Y[0] corresponds to sample 10 (tput 110).
	want := sc.ScaleTput(110)
	if math.Abs(w.Y()[0]-want) > 1e-9 {
		t.Fatalf("Y[0] = %f, want %f", w.Y()[0], want)
	}
	// Inverting per-CC halves individually double-counts the offset;
	// check each CC is half of 110 instead.
	if math.Abs(sc.InvertTput(w.YPerCC(0)[0])-55) > 1e-9 {
		t.Fatalf("per-CC future = %f, want 55", sc.InvertTput(w.YPerCC(0)[0]))
	}
}

func TestWindowsStride(t *testing.T) {
	d := synthDataset(1, 40)
	var sc Scaler
	sc.Fit(d.Traces)
	dense := Windows(d, &sc, WindowOpts{History: 10, Horizon: 10, Stride: 1})
	sparse := Windows(d, &sc, WindowOpts{History: 10, Horizon: 10, Stride: 5})
	if len(sparse) >= len(dense) {
		t.Fatalf("stride did not reduce windows: %d vs %d", len(sparse), len(dense))
	}
	zero := Windows(d, &sc, WindowOpts{History: 10, Horizon: 10, Stride: 0})
	if len(zero) != len(dense) {
		t.Fatal("stride 0 should default to 1")
	}
}

func TestWindowsPanicWithoutFit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic with unfitted scaler")
		}
	}()
	d := synthDataset(1, 30)
	Windows(d, &Scaler{}, DefaultWindowOpts())
}

func TestSplitRatios(t *testing.T) {
	d := synthDataset(4, 60)
	var sc Scaler
	sc.Fit(d.Traces)
	ws := Windows(d, &sc, DefaultWindowOpts())
	train, val, test := Split(ws, 0.5, 0.2, rng.New(9))
	if len(train)+len(val)+len(test) != len(ws) {
		t.Fatal("split lost windows")
	}
	fTrain := float64(len(train)) / float64(len(ws))
	if math.Abs(fTrain-0.5) > 0.02 {
		t.Fatalf("train fraction = %f", fTrain)
	}
	// Deterministic given seed.
	train2, _, _ := Split(ws, 0.5, 0.2, rng.New(9))
	if len(train2) != len(train) || train2[0].Start != train[0].Start || train2[0].TraceIdx != train[0].TraceIdx {
		t.Fatal("split not deterministic")
	}
}

func TestSplitByTrace(t *testing.T) {
	d := synthDataset(4, 40)
	var sc Scaler
	sc.Fit(d.Traces)
	ws := Windows(d, &sc, DefaultWindowOpts())
	train, test := SplitByTrace(ws, func(ti int) bool { return ti >= 3 })
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("empty side")
	}
	for _, w := range train {
		if w.TraceIdx >= 3 {
			t.Fatal("test trace leaked into train")
		}
	}
	for _, w := range test {
		if w.TraceIdx < 3 {
			t.Fatal("train trace leaked into test")
		}
	}
}

func TestCSVExport(t *testing.T) {
	tr := synthTrace(3, 0, 0)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t,agg_tput_mbps,num_active_ccs,cc0_channel") {
		t.Fatalf("header = %s", lines[0])
	}
	if !strings.Contains(lines[1], "n41^a") {
		t.Fatal("channel id missing from row")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := synthDataset(2, 25)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || len(got.Traces) != len(d.Traces) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Traces[1].Samples[3].AggTput != d.Traces[1].Samples[3].AggTput {
		t.Fatal("sample data corrupted")
	}
	if got.Traces[0].Meta.Operator != "OpZ" {
		t.Fatal("meta corrupted")
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{bad json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestMetaString(t *testing.T) {
	m := Meta{Operator: "OpX", Scenario: "urban", Mobility: "driving", Route: 1, Run: 2}
	s := m.String()
	if !strings.Contains(s, "OpX") || !strings.Contains(s, "route=1") {
		t.Fatalf("meta string = %s", s)
	}
}

func TestFeatureNamesAligned(t *testing.T) {
	if CCFeatureNames[FActive] != "active" || CCFeatureNames[FTput] != "HisTput" {
		t.Fatal("feature names misaligned")
	}
	for _, n := range CCFeatureNames {
		if n == "" {
			t.Fatal("empty feature name")
		}
	}
}
