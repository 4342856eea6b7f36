package core

import (
	"fmt"
	"math"
	"testing"

	"prism5g/internal/nn"
	"prism5g/internal/rng"
	"prism5g/internal/trace"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// perCarrierLSTM hides the shared LSTM from batched, so forward runs it
// carrier by carrier through lstmBackbone.run: the reference the batch
// must match.
type perCarrierLSTM struct{ lstmBackbone }

// perCarrierTwin returns a model sharing every parameter of p whose shared
// LSTM runs one carrier at a time.
func perCarrierTwin(p *Prism5G) *Prism5G {
	ref := New(p.Opts, p.histT)
	ref.rnns = []rnn{perCarrierLSTM{p.rnns[0].(lstmBackbone)}}
	ref.embed, ref.fusion, ref.head = p.embed, p.fusion, p.head
	return ref
}

// refWindow builds a window whose first `active` carriers are active; the
// others are inactive but carry noise features (which only the NoState
// ablation reads) and, on the last slot, a pending-SCell event.
func refWindow(src *rng.Source, T, active int) trace.Window {
	const hz = 10
	w := trace.NewWindow(T, hz)
	for c := 0; c < trace.MaxCC; c++ {
		for t := 0; t < T; t++ {
			v := w.Feat(c, t)
			for f := trace.FBWMHz; f < trace.NumCCFeatures; f++ {
				v[f] = src.Float64() - 0.3
			}
			if c < active {
				v[trace.FActive] = 1
			} else if c == trace.MaxCC-1 && t >= T-3 {
				v[trace.FEvent] = 1
			}
		}
		for h := range w.YPerCC(c) {
			w.YPerCC(c)[h] = src.Float64()
			w.Y()[h] += w.YPerCC(c)[h]
		}
	}
	for t := range w.AggHist() {
		w.AggHist()[t] = src.Float64()
	}
	return w
}

// TestBatchedPrismMatchesPerCarrier pins the four-carrier LSTM batch to
// the per-carrier loop it replaced: equal Predict bits, and equal bits in
// every parameter gradient after one ForwardBackward, for the default,
// NoState and NoFusion models at Hidden 6 (one 16-row block plus a scalar
// tail per gate matrix) and 32, on windows with 0 to 3 inactive carriers.
func TestBatchedPrismMatchesPerCarrier(t *testing.T) {
	const T = 10
	ctors := map[string]func(Options, int) *Prism5G{"default": New, "NoState": NewNoState, "NoFusion": NewNoFusion}
	for name, ctor := range ctors {
		for _, hidden := range []int{6, 32} {
			o := smallOpts()
			o.Hidden = hidden
			p := ctor(o, T)
			if p.batched() == nil {
				t.Fatalf("%s: the shared LSTM is not batched", name)
			}
			ref := perCarrierTwin(p)
			src := rng.New(uint64(hidden))
			for inactive := 0; inactive < trace.MaxCC; inactive++ {
				w := refWindow(src, T, trace.MaxCC-inactive)
				where := func(what string) string {
					return fmt.Sprintf("%s, Hidden %d, %d inactive: %s", name, hidden, inactive, what)
				}
				sameBits(t, where("Predict"), p.Predict(w), ref.Predict(w))

				nn.ZeroGrads(p)
				y := p.ForwardBackward(w, 0.37)
				var grads [][]float64
				for _, prm := range p.Params() {
					grads = append(grads, append([]float64(nil), prm.Grad...))
				}
				nn.ZeroGrads(p)
				sameBits(t, where("ForwardBackward"), y, ref.ForwardBackward(w, 0.37))
				for i, prm := range ref.Params() {
					sameBits(t, where(prm.Name+" grad"), grads[i], prm.Grad)
				}
			}
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v batched, %v per carrier", what, i, got[i], want[i])
		}
	}
}

// TestPredictAllocatesOnlyResult pins Predict at one allocation per call,
// the returned forecast: every intermediate comes from pooled scratch.
func TestPredictAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops scratch at random")
	}
	p := New(DefaultOptions(), 10)
	w := synthWindow(1)
	if allocs := testing.AllocsPerRun(100, func() { p.Predict(w) }); allocs > 1 {
		t.Fatalf("Predict allocated %v times per call; want 1, the returned forecast", allocs)
	}
}

// sinkForecast keeps benchmark results alive.
var sinkForecast []float64

// BenchmarkPredict times one served forecast of the default model.
func BenchmarkPredict(b *testing.B) {
	p := New(DefaultOptions(), 10)
	w := synthWindow(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkForecast = p.Predict(w)
	}
}

// BenchmarkForwardBackward times one training step's forward and backward
// pass of the default model on one window.
func BenchmarkForwardBackward(b *testing.B) {
	p := New(DefaultOptions(), 10)
	w := synthWindow(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkForecast = p.ForwardBackward(w, 1)
	}
}
