package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// makeTrace builds a clean n-sample trace with two configured carriers.
func makeTrace(n int) Trace {
	tr := Trace{StepS: 1}
	for i := 0; i < n; i++ {
		s := Sample{T: float64(i), AggTput: 100 + float64(i%7), NumActiveCCs: 2}
		for c := 0; c < 2; c++ {
			cc := &s.CCs[c]
			cc.Present = true
			cc.BandName = "n41"
			cc.ChannelID = "n41^a"
			cc.IsPCell = c == 0
			cc.Vec[FActive] = 1
			cc.Vec[FBWMHz] = 100
			cc.Vec[FFreqGHz] = 2.5
			cc.Vec[FRSRP] = -80 - float64(i%5)
			cc.Vec[FRSRQ] = -11
			cc.Vec[FSINR] = 15
			cc.Vec[FCQI] = 12
			cc.Vec[FBLER] = 0.05
			cc.Vec[FRB] = 150
			cc.Vec[FLayers] = 4
			cc.Vec[FMCS] = 20
			cc.Vec[FTput] = 50 + float64(i%3)
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

func makeDataset(traces, samples int) *Dataset {
	d := &Dataset{Name: "test", StepS: 1}
	for i := 0; i < traces; i++ {
		d.Traces = append(d.Traces, makeTrace(samples))
	}
	return d
}

func TestValidateCleanDataset(t *testing.T) {
	d := makeDataset(2, 50)
	rep := d.Validate()
	if !rep.OK() {
		t.Fatalf("clean dataset flagged: %s", rep)
	}
	if rep.Err() != nil {
		t.Fatalf("clean report returned error: %v", rep.Err())
	}
}

func TestValidateFindsTypedErrors(t *testing.T) {
	d := makeDataset(1, 30)
	tr := &d.Traces[0]
	tr.Samples[3].CCs[0].Vec[FRSRP] = math.NaN()
	tr.Samples[5].AggTput = math.Inf(1)
	tr.Samples[7].AggTput = -4
	tr.Samples[9].NumActiveCCs = 99
	tr.Samples[11].T = tr.Samples[10].T - 0.5
	tr.Samples[13].NumActiveCCs = 1 // two slots active → mask undercut
	tr.Samples[15].CCs[1].Vec[FBLER] = 1.7

	rep := d.Validate()
	if rep.OK() {
		t.Fatal("corrupted dataset passed validation")
	}
	for kind, want := range map[ErrKind]int{
		ErrNonFinite: 2, ErrTimestamps: 1, ErrCCMask: 1,
	} {
		if got := rep.Count(kind); got < want {
			t.Errorf("kind %s: got %d findings, want >= %d", kind, got, want)
		}
	}
	if got := rep.Count(ErrRange); got < 3 {
		t.Errorf("range findings: got %d, want >= 3", got)
	}
	var verr *ValidationError
	if !errors.As(rep.Err(), &verr) {
		t.Fatalf("Err() is not a *ValidationError: %T", rep.Err())
	}
}

func TestValidateReportTruncates(t *testing.T) {
	d := makeDataset(1, maxValidationErrors+50)
	for i := range d.Traces[0].Samples {
		d.Traces[0].Samples[i].AggTput = math.NaN()
	}
	rep := d.Validate()
	if !rep.Truncated {
		t.Fatal("report not marked truncated")
	}
	if len(rep.Errors) != maxValidationErrors {
		t.Fatalf("got %d errors, want cap %d", len(rep.Errors), maxValidationErrors)
	}
	if !strings.Contains(rep.String(), "truncated") {
		t.Fatalf("String() hides truncation: %s", rep.String())
	}
}

func TestRepairCleanIsNoop(t *testing.T) {
	d := makeDataset(2, 40)
	before := d.NumSamples()
	rep := d.Repair()
	if rep.Total() != 0 {
		t.Fatalf("repair touched clean data: %s", rep)
	}
	if d.NumSamples() != before {
		t.Fatal("repair changed clean sample count")
	}
}

func TestRepairImputesHoldLast(t *testing.T) {
	d := makeDataset(1, 20)
	tr := &d.Traces[0]
	tr.Samples[5].AggTput = math.NaN()
	tr.Samples[6].CCs[0].Vec[FSINR] = math.Inf(-1)
	rep := d.Repair()
	if rep.NonFinite != 2 {
		t.Fatalf("NonFinite=%d, want 2", rep.NonFinite)
	}
	if got, want := tr.Samples[5].AggTput, tr.Samples[4].AggTput; got != want {
		t.Fatalf("hold-last AggTput=%v, want %v", got, want)
	}
	if got, want := tr.Samples[6].CCs[0].Vec[FSINR], tr.Samples[5].CCs[0].Vec[FSINR]; got != want {
		t.Fatalf("hold-last SINR=%v, want %v", got, want)
	}
	if !d.Validate().OK() {
		t.Fatalf("repaired dataset still invalid: %s", d.Validate())
	}
}

func TestRepairFixesTimestampsAndRanges(t *testing.T) {
	d := makeDataset(1, 20)
	tr := &d.Traces[0]
	tr.Samples[3].T = math.NaN() // irreparable → dropped
	tr.Samples[8].T, tr.Samples[9].T = tr.Samples[9].T, tr.Samples[8].T
	tr.Samples[12].AggTput = -10
	tr.Samples[14].NumActiveCCs = 99
	rep := d.Repair()
	if rep.Dropped != 1 {
		t.Fatalf("Dropped=%d, want 1", rep.Dropped)
	}
	if rep.Timestamps == 0 {
		t.Fatal("timestamp swap not repaired")
	}
	for i := 1; i < len(tr.Samples); i++ {
		if tr.Samples[i].T <= tr.Samples[i-1].T {
			t.Fatal("timestamps not strictly increasing after repair")
		}
	}
	rep2 := d.Validate()
	for _, e := range rep2.Errors {
		if e.Kind != ErrGap { // dropping a sample legitimately leaves a gap
			t.Fatalf("unexpected residual finding: %v", e)
		}
	}
}

func TestRepairFillsGaps(t *testing.T) {
	d := makeDataset(1, 30)
	tr := &d.Traces[0]
	// Carve a 5-step hole after sample 9: Validate reports one gap, at
	// the sample after the hole, and Repair refills the 5 samples.
	tr.Samples = append(tr.Samples[:10], tr.Samples[15:]...)
	vrep := d.Validate()
	if vrep.Count(ErrGap) != 1 || len(vrep.Errors) != 1 || vrep.Errors[0].SampleIdx != 10 {
		t.Fatalf("validation of the hole: %v, want one gap at sample 10", vrep.Errors)
	}
	rep := d.Repair()
	if rep.GapsFilled != 1 || rep.Inserted != 5 {
		t.Fatalf("GapsFilled=%d Inserted=%d, want 1/5", rep.GapsFilled, rep.Inserted)
	}
	if len(tr.Samples) != 30 {
		t.Fatalf("got %d samples after refill, want 30", len(tr.Samples))
	}
	if !d.Validate().OK() {
		t.Fatalf("refilled dataset still invalid: %s", d.Validate())
	}
}

func TestRepairCapsGapFill(t *testing.T) {
	d := makeDataset(1, 10)
	tr := &d.Traces[0]
	tr.Samples[9].T = 10_000 // a hole far wider than the fill cap
	rep := d.Repair()
	if rep.GapsFilled != 1 || rep.Inserted != maxGapFill {
		t.Fatalf("GapsFilled=%d Inserted=%d, want 1/%d", rep.GapsFilled, rep.Inserted, maxGapFill)
	}
	if n := d.Validate().Count(ErrGap); n != 1 {
		t.Fatalf("%d gaps after a capped refill, want the rest of the hole reported", n)
	}
}

// Satellite: Scaler.Fit must survive degenerate inputs.

func TestScalerFitEmptyDataset(t *testing.T) {
	var sc Scaler
	sc.Fit(nil)
	if !sc.Fitted() {
		t.Fatal("scaler not fitted on empty input")
	}
	if sc.TputMin != 0 || sc.TputMax != 1 {
		t.Fatalf("empty-fit tput range = [%v,%v], want [0,1]", sc.TputMin, sc.TputMax)
	}
	if v := sc.ScaleTput(0.5); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("empty-fit scaling produced %v", v)
	}
}

func TestScalerFitConstantFeatures(t *testing.T) {
	tr := makeTrace(20)
	for i := range tr.Samples {
		tr.Samples[i].AggTput = 42 // constant target
	}
	var sc Scaler
	sc.Fit([]Trace{tr})
	if sc.TputMax <= sc.TputMin {
		t.Fatal("constant feature left a zero-width range")
	}
	if v := sc.ScaleTput(42); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("constant-fit scaling produced %v", v)
	}
	for f := 0; f < NumCCFeatures; f++ {
		if sc.FeatMax[f] <= sc.FeatMin[f] {
			t.Fatalf("feature %s has zero-width range", CCFeatureNames[f])
		}
	}
}

func TestScalerFitIgnoresNonFinite(t *testing.T) {
	tr := makeTrace(20)
	tr.Samples[3].AggTput = math.Inf(1)
	tr.Samples[4].AggTput = math.NaN()
	tr.Samples[5].CCs[0].Vec[FRSRP] = math.Inf(-1)
	var sc Scaler
	sc.Fit([]Trace{tr})
	if math.IsInf(sc.TputMax, 0) || math.IsNaN(sc.TputMax) {
		t.Fatalf("Inf sample poisoned TputMax: %v", sc.TputMax)
	}
	if math.IsInf(sc.FeatMin[FRSRP], 0) {
		t.Fatalf("-Inf poisoned RSRP min: %v", sc.FeatMin[FRSRP])
	}
}

// Satellite: IO round-trips under corruption.

func TestCSVRoundTrip(t *testing.T) {
	tr := makeTrace(25)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(got.Samples) != len(tr.Samples) {
		t.Fatalf("got %d samples, want %d", len(got.Samples), len(tr.Samples))
	}
	if got.StepS != 1 {
		t.Fatalf("inferred StepS=%v, want 1", got.StepS)
	}
	for i := range got.Samples {
		if got.Samples[i].NumActiveCCs != tr.Samples[i].NumActiveCCs {
			t.Fatalf("sample %d mask mismatch", i)
		}
		if !got.Samples[i].CCs[0].Present || got.Samples[i].CCs[0].ChannelID != "n41^a" {
			t.Fatalf("sample %d lost carrier identity", i)
		}
	}
}

func TestReadCSVTruncatedRow(t *testing.T) {
	tr := makeTrace(5)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	lines[3] = lines[3][:len(lines[3])/2] // chop a row mid-field
	lines[3] = lines[3][:strings.LastIndexByte(lines[3], ',')]
	_, err := ReadCSV(strings.NewReader(strings.Join(lines, "\n")))
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("truncated row: got %T (%v), want *ValidationError", err, err)
	}
	if verr.Kind != ErrShape {
		t.Fatalf("kind = %s, want shape", verr.Kind)
	}
}

func TestReadCSVMalformedField(t *testing.T) {
	tr := makeTrace(3)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	mangled := strings.Replace(buf.String(), "100.000", "not-a-number", 1)
	_, err := ReadCSV(strings.NewReader(mangled))
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("malformed field: got %T (%v), want *ValidationError", err, err)
	}
}

func TestReadCSVBadHeader(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("a,b,c\n1,2,3\n"))
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Kind != ErrShape {
		t.Fatalf("bad header: got %v, want shape *ValidationError", err)
	}
}

func TestJSONRoundTripWithNaN(t *testing.T) {
	d := makeDataset(1, 15)
	d.Traces[0].Samples[4].CCs[0].Vec[FSINR] = math.NaN()
	d.Traces[0].Samples[6].CCs[1].Vec[FRSRP] = math.Inf(1)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON with NaN: %v", err)
	}
	raw, err := ReadJSONRaw(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONRaw: %v", err)
	}
	if !math.IsNaN(raw.Traces[0].Samples[4].CCs[0].Vec[FSINR]) {
		t.Fatal("NaN did not survive the raw round-trip")
	}
	// The default reader repairs: corruption imputed, dataset valid.
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !got.Validate().OK() {
		t.Fatalf("ReadJSON returned invalid data: %s", got.Validate())
	}
	if v := got.Traces[0].Samples[4].CCs[0].Vec[FSINR]; !finite(v) {
		t.Fatalf("SINR not imputed: %v", v)
	}
}

func TestReadJSONMalformed(t *testing.T) {
	for _, in := range []string{"", "{", `{"Traces": [{"Samples": "nope"}]}`, "[1,2,3]"} {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Fatalf("malformed input %q: no error", in)
		}
	}
}

func TestReadJSONRepairsOutOfRangeMask(t *testing.T) {
	d := makeDataset(1, 12)
	d.Traces[0].Samples[3].NumActiveCCs = 999
	d.Traces[0].Samples[5].NumActiveCCs = -2
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, vrep, rrep, err := ReadJSONReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONReport: %v", err)
	}
	if vrep.Count(ErrRange) == 0 {
		t.Fatal("validation missed the out-of-range masks")
	}
	if rrep.Total() == 0 {
		t.Fatal("repair fixed nothing")
	}
	s := got.Traces[0].Samples
	if s[3].NumActiveCCs > MaxActiveCCs || s[5].NumActiveCCs < 0 {
		t.Fatalf("masks not repaired: %d, %d", s[3].NumActiveCCs, s[5].NumActiveCCs)
	}
}

func TestReadJSONInfersStep(t *testing.T) {
	d := makeDataset(1, 20)
	d.StepS = 0
	d.Traces[0].StepS = 0
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.StepS != 1 || got.Traces[0].StepS != 1 {
		t.Fatalf("step not inferred: dataset %v trace %v", got.StepS, got.Traces[0].StepS)
	}
}

// FuzzReadJSON asserts the ingest path never panics on arbitrary bytes:
// it must either fail with an error or return a dataset that then
// validates, repairs and windows without blowing up.
func FuzzReadJSON(f *testing.F) {
	d := makeDataset(1, 10)
	var buf bytes.Buffer
	_ = d.WriteJSON(&buf)
	f.Add(buf.Bytes())
	d.Traces[0].Samples[2].CCs[0].Vec[FSINR] = math.NaN()
	d.Traces[0].Samples[4].NumActiveCCs = 77
	buf.Reset()
	_ = d.WriteJSON(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte(`{"Traces":[{"StepS":-1,"Samples":[{"T":1e308,"AggTput":-5}]}]}`))
	f.Add([]byte(`{"Traces":[{"Samples":[{"CCs":[{"Present":true,"Vec":[null,null,null,null,null,null,null,null,null,null,null,null,null]}]}]}]}`))
	f.Add([]byte("{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = got.Validate()
		var sc Scaler
		sc.Fit(got.Traces)
		_ = Windows(got, &sc, DefaultWindowOpts())
	})
}
