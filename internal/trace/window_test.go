package trace

import (
	"fmt"
	"math"
	"testing"

	"prism5g/internal/rng"
)

// TestScaleFeatureClipsBeyondFittedRange pins the documented "(clipped
// mildly beyond)" behaviour: inputs far outside the fitted range are
// bounded to [-0.5, 1.5], in-range inputs are returned exactly as scaled,
// and NaN passes through.
func TestScaleFeatureClipsBeyondFittedRange(t *testing.T) {
	var sc Scaler
	sc.FeatMin[FRSRP], sc.FeatMax[FRSRP] = -120, -80

	if got := sc.ScaleFeature(FRSRP, -100); got != 0.5 {
		t.Fatalf("in-range value changed: got %v, want 0.5", got)
	}
	// Mildly beyond the range stays linear (no clip inside [-0.5, 1.5]).
	if got := sc.ScaleFeature(FRSRP, -125); got != -0.125 {
		t.Fatalf("mildly-out-of-range value clipped early: got %v, want -0.125", got)
	}
	if got := sc.ScaleFeature(FRSRP, -75); got != 1.125 {
		t.Fatalf("mildly-out-of-range value clipped early: got %v, want 1.125", got)
	}
	// Far beyond clips.
	if got := sc.ScaleFeature(FRSRP, -200); got != -0.5 {
		t.Fatalf("far-below value not clipped: got %v, want -0.5", got)
	}
	if got := sc.ScaleFeature(FRSRP, 0); got != 1.5 {
		t.Fatalf("far-above value not clipped: got %v, want 1.5", got)
	}
	// NaN must survive so poisoned windows stay detectable.
	if got := sc.ScaleFeature(FRSRP, math.NaN()); !math.IsNaN(got) {
		t.Fatalf("NaN swallowed by clip: got %v", got)
	}

	// ScaleTput deliberately does not clip: the inversion round-trip must
	// hold arbitrarily far outside the fitted range.
	sc.TputMin, sc.TputMax = 0, 100
	if got := sc.ScaleTput(1000); got != 10 {
		t.Fatalf("ScaleTput clipped: got %v, want 10", got)
	}
	if got := sc.InvertTput(sc.ScaleTput(1000)); got != 1000 {
		t.Fatalf("ScaleTput/InvertTput round-trip broken: got %v", got)
	}
}

// TestSplitSmallNTable pins Split's cumulative rounding on small N, where
// the old independent truncation starved the validation set (9 windows at
// 0.5/0.2 used to come out 4/1/4).
func TestSplitSmallNTable(t *testing.T) {
	cases := []struct {
		n                   int
		trainFrac, valFrac  float64
		nTrain, nVal, nTest int
	}{
		{9, 0.5, 0.2, 4, 2, 3}, // the issue's example: was 4/1/4
		{10, 0.5, 0.2, 5, 2, 3},
		{9, 0.5, 0.3, 4, 3, 2},
		{5, 0.6, 0.2, 3, 1, 1},
		{1, 0.5, 0.2, 0, 1, 0},
		{2, 0.5, 0.2, 1, 0, 1},
		{0, 0.5, 0.2, 0, 0, 0},
		{7, 1, 0, 7, 0, 0},
	}
	for _, c := range cases {
		ws := make([]Window, c.n)
		train, val, test := Split(ws, c.trainFrac, c.valFrac, rng.New(1))
		if len(train) != c.nTrain || len(val) != c.nVal || len(test) != c.nTest {
			t.Errorf("Split(%d, %v, %v) = %d/%d/%d, want %d/%d/%d",
				c.n, c.trainFrac, c.valFrac, len(train), len(val), len(test),
				c.nTrain, c.nVal, c.nTest)
		}
		if len(train)+len(val)+len(test) != c.n {
			t.Errorf("Split(%d) dropped windows", c.n)
		}
	}
}

// TestSplitSizesWithinOneOfExact checks the general guarantee: every set's
// size is within one window of its exact fractional share.
func TestSplitSizesWithinOneOfExact(t *testing.T) {
	for n := 0; n <= 40; n++ {
		ws := make([]Window, n)
		train, val, test := Split(ws, 0.5, 0.2, rng.New(uint64(n)+1))
		fn := float64(n)
		if d := math.Abs(float64(len(train)) - 0.5*fn); d > 1 {
			t.Fatalf("n=%d train size %d is %.1f from exact", n, len(train), d)
		}
		if d := math.Abs(float64(len(val)) - 0.2*fn); d > 1 {
			t.Fatalf("n=%d val size %d is %.1f from exact", n, len(val), d)
		}
		if d := math.Abs(float64(len(test)) - 0.3*fn); d > 1 {
			t.Fatalf("n=%d test size %d is %.1f from exact", n, len(test), d)
		}
	}
}

// onlineTestTrace builds a small single-CC trace with recognizable
// throughput values.
func onlineTestTrace(n int) Trace {
	tr := Trace{StepS: 1}
	for i := 0; i < n; i++ {
		var s Sample
		s.T = float64(i)
		s.AggTput = float64(10 + i)
		s.NumActiveCCs = 1
		s.CCs[0].Present = true
		s.CCs[0].IsPCell = true
		s.CCs[0].Vec[FActive] = 1
		s.CCs[0].Vec[FRSRP] = -100 + float64(i)
		s.CCs[0].Vec[FTput] = s.AggTput
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// TestMakeWindowOnlineZeroFill pins the documented online path: a start
// whose horizon extends past the end of the trace zero-fills the missing
// future samples instead of panicking or aliasing stale data.
func TestMakeWindowOnlineZeroFill(t *testing.T) {
	tr := onlineTestTrace(12)
	ds := &Dataset{Traces: []Trace{tr}}
	var sc Scaler
	sc.Fit(ds.Traces)
	opts := WindowOpts{History: 10, Horizon: 5, Stride: 1}

	// start=0: samples 10..11 exist for h=0,1; h=2..4 are past the end.
	w := MakeWindow(&ds.Traces[0], 0, 0, &sc, opts)
	for h := 0; h < 2; h++ {
		want := sc.ScaleTput(tr.Samples[10+h].AggTput)
		if w.Y()[h] != want {
			t.Fatalf("Y[%d] = %v, want %v", h, w.Y()[h], want)
		}
		wantCC := sc.ScaleTput(tr.Samples[10+h].CCs[0].Vec[FTput])
		if w.YPerCC(0)[h] != wantCC {
			t.Fatalf("YPerCC[0][%d] = %v, want %v", h, w.YPerCC(0)[h], wantCC)
		}
	}
	for h := 2; h < 5; h++ {
		if w.Y()[h] != 0 {
			t.Fatalf("Y[%d] = %v, want zero-fill past end of trace", h, w.Y()[h])
		}
		for c := 0; c < MaxCC; c++ {
			if w.YPerCC(c)[h] != 0 {
				t.Fatalf("YPerCC[%d][%d] = %v, want zero-fill", c, h, w.YPerCC(c)[h])
			}
		}
	}
	// History must still be fully populated.
	for ti := 0; ti < 10; ti++ {
		if w.AggHist()[ti] != sc.ScaleTput(tr.Samples[ti].AggTput) {
			t.Fatalf("AggHist[%d] wrong", ti)
		}
	}
}

// randomTrace builds n samples whose carriers come and go, with signaling
// events and an occasional NaN sensor read.
func randomTrace(src *rng.Source, n int) Trace {
	tr := Trace{StepS: 0.01}
	for i := 0; i < n; i++ {
		s := Sample{T: float64(i) * 0.01, AggTput: src.Range(0, 900)}
		for c := range s.CCs {
			if src.Float64() < 0.4 {
				continue
			}
			cc := &s.CCs[c]
			cc.Present = true
			cc.Vec[FActive] = float64(src.Intn(2))
			cc.Vec[FEvent] = float64(src.Intn(3) - 1)
			for f := FBWMHz; f < NumCCFeatures; f++ {
				cc.Vec[f] = src.Range(-200, 300)
			}
			if src.Float64() < 0.05 {
				cc.Vec[FSINR+src.Intn(NumCCFeatures-FSINR)] = math.NaN()
			}
			s.NumActiveCCs++
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// wantFeat is carrier c's feature row of s as a window must read it.
func wantFeat(sc *Scaler, s *Sample, c int) [NumCCFeatures]float64 {
	var row [NumCCFeatures]float64
	if cc := &s.CCs[c]; cc.Present {
		row[FActive], row[FEvent] = cc.Vec[FActive], cc.Vec[FEvent]
		for f := FBWMHz; f < NumCCFeatures; f++ {
			row[f] = sc.ScaleFeature(f, cc.Vec[f])
		}
	}
	return row
}

// checkWindow compares every accessor of w with ScaleFeature/ScaleTput
// applied to the source samples of tr (zero for absent carriers and past
// the trace's end), and checks that every returned slice is capped at its
// own length.
func checkWindow(t *testing.T, name string, w Window, tr *Trace, sc *Scaler, opts WindowOpts) {
	t.Helper()
	T, H := opts.History, opts.Horizon
	same := func(what string, got []float64, want func(i int) float64, n int) {
		t.Helper()
		if len(got) != n || cap(got) != n {
			t.Fatalf("%s: %s has len %d cap %d, want %d", name, what, len(got), cap(got), n)
		}
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(want(i)) {
				t.Fatalf("%s: %s[%d] = %v, want %v", name, what, i, v, want(i))
			}
		}
	}
	sample := func(i int) *Sample {
		if i < len(tr.Samples) {
			return &tr.Samples[i]
		}
		return &Sample{}
	}
	tput := func(i, c int) float64 {
		if i >= len(tr.Samples) {
			return 0
		}
		if c < 0 {
			return sc.ScaleTput(tr.Samples[i].AggTput)
		}
		if !tr.Samples[i].CCs[c].Present {
			return 0
		}
		return sc.ScaleTput(tr.Samples[i].CCs[c].Vec[FTput])
	}
	for c := 0; c < MaxCC; c++ {
		for tt := 0; tt < T; tt++ {
			row := wantFeat(sc, sample(w.Start+tt), c)
			same(fmt.Sprintf("Feat(%d, %d)", c, tt), w.Feat(c, tt), func(f int) float64 { return row[f] }, NumCCFeatures)
		}
		same(fmt.Sprintf("YPerCC(%d)", c), w.YPerCC(c), func(h int) float64 { return tput(w.Start+T+h, c) }, H)
	}
	same("AggHist()", w.AggHist(), func(tt int) float64 { return tput(w.Start+tt, -1) }, T)
	same("Y()", w.Y(), func(h int) float64 { return tput(w.Start+T+h, -1) }, H)
}

// TestWindowAccessorsMatchSamples checks every accessor of every window
// each producer builds against the scaled source samples: Windows,
// StreamWindows at chunk sizes 1, 13 and all, and MakeWindow at every
// start whose history fits, including horizons past the trace's end.
func TestWindowAccessorsMatchSamples(t *testing.T) {
	src := rng.New(20)
	d := &Dataset{StepS: 0.01}
	for _, n := range []int{40, 9, 27, 15} { // the 9-sample trace holds no window
		d.Traces = append(d.Traces, randomTrace(src, n))
	}
	var sc Scaler
	sc.Fit(d.Traces)
	for f := FBWMHz; f < FTput; f++ { // narrow ranges: ScaleFeature clips at both ends
		sc.FeatMin[f], sc.FeatMax[f] = -50, 50
	}
	for _, opts := range []WindowOpts{{History: 10, Horizon: 5, Stride: 1}, {History: 4, Horizon: 7, Stride: 3}} {
		label := fmt.Sprintf("T=%d H=%d stride %d", opts.History, opts.Horizon, opts.Stride)
		var starts [][2]int // TraceIdx, Start in producer order
		for ti, tr := range d.Traces {
			for start := 0; start+opts.History+opts.Horizon <= len(tr.Samples); start += opts.Stride {
				starts = append(starts, [2]int{ti, start})
			}
		}
		check := func(producer string, ws []Window) {
			t.Helper()
			if len(ws) != len(starts) {
				t.Fatalf("%s %s: %d windows, want %d", label, producer, len(ws), len(starts))
			}
			for i, w := range ws {
				if w.TraceIdx != starts[i][0] || w.Start != starts[i][1] {
					t.Fatalf("%s %s: window %d at trace %d start %d, want %v", label, producer, i, w.TraceIdx, w.Start, starts[i])
				}
				checkWindow(t, fmt.Sprintf("%s %s window %d", label, producer, i), w, &d.Traces[w.TraceIdx], &sc, opts)
			}
		}
		check("Windows", Windows(d, &sc, opts))
		for _, chunk := range []int{1, 13, len(starts)} {
			st := StreamWindows(NewDatasetSource(d), &sc, opts)
			var ws []Window
			for {
				c, err := st.Next(chunk)
				if err != nil {
					t.Fatal(err)
				}
				if len(c) == 0 {
					break
				}
				if len(c) > chunk {
					t.Fatalf("chunk of %d windows, asked for %d", len(c), chunk)
				}
				ws = append(ws, c...)
			}
			check(fmt.Sprintf("StreamWindows chunk %d", chunk), ws)
		}
		for ti := range d.Traces {
			tr := &d.Traces[ti]
			for start := 0; start+opts.History <= len(tr.Samples); start++ {
				w := MakeWindow(tr, ti, start, &sc, opts)
				if w.TraceIdx != ti || w.Start != start {
					t.Fatalf("MakeWindow(%d, %d) is at trace %d start %d", ti, start, w.TraceIdx, w.Start)
				}
				checkWindow(t, fmt.Sprintf("%s MakeWindow(%d, %d)", label, ti, start), w, tr, &sc, opts)
			}
		}
	}
}

// TestWindowIndexOutOfRange: a feature row past the history (which would
// leak a future sample) or a carrier past MaxCC panics.
func TestWindowIndexOutOfRange(t *testing.T) {
	ds := &Dataset{Traces: []Trace{onlineTestTrace(30)}}
	var sc Scaler
	sc.Fit(ds.Traces)
	w := Windows(ds, &sc, WindowOpts{History: 10, Horizon: 5, Stride: 1})[0]
	for _, f := range []func(){
		func() { w.Feat(0, 10) },
		func() { w.Feat(MaxCC, 0) },
		func() { w.Feat(-1, 0) },
		func() { w.YPerCC(MaxCC) },
		func() { MakeWindow(&ds.Traces[0], 0, 21, &sc, WindowOpts{History: 10, Horizon: 5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

// TestNewWindowIsZeroedAndOwned: hand-built windows start at zero and each
// owns its storage.
func TestNewWindowIsZeroedAndOwned(t *testing.T) {
	a, b := NewWindow(3, 2), NewWindow(3, 2)
	a.AggHist()[2] = 1
	a.Y()[1] = 2
	a.Feat(MaxCC-1, 2)[FTput] = 3
	a.YPerCC(MaxCC - 1)[1] = 4
	if len(a.AggHist()) != 3 || len(a.Y()) != 2 || len(a.YPerCC(0)) != 2 {
		t.Fatal("NewWindow shape wrong")
	}
	if a.AggHist()[2] != 1 || a.Y()[1] != 2 || a.Feat(MaxCC-1, 2)[FTput] != 3 || a.YPerCC(MaxCC - 1)[1] != 4 {
		t.Fatal("writes through the accessors did not stick")
	}
	for _, v := range append(append(b.AggHist(), b.Y()...), b.YPerCC(MaxCC-1)...) {
		if v != 0 {
			t.Fatal("second window shares the first's storage")
		}
	}
	if b.Feat(MaxCC-1, 2)[FTput] != 0 || a.Y()[0] != 0 || a.YPerCC(0)[1] != 0 {
		t.Fatal("hand-built window not zeroed")
	}
}
