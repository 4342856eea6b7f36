package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"prism5g/internal/nn"
	"prism5g/internal/predictors"
	"prism5g/internal/rng"
	"prism5g/internal/trace"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// prismVariant is one of the Prism5G models the experiments run.
type prismVariant struct {
	name string
	set  func(*Options)
}

// build returns the variant of a model with options o over 10-step
// histories.
func (v prismVariant) build(o Options) *Prism5G {
	v.set(&o)
	return New(o, 10)
}

// prismVariants are the five variants: the default, the Table 13 ablations
// and the two design-choice ablations (DESIGN §5). The first four share one
// backbone across carriers.
var prismVariants = []prismVariant{
	{"default", func(*Options) {}},
	{"NoState", func(o *Options) { o.UseState = false }},
	{"NoFusion", func(o *Options) { o.UseFusion = false }},
	{"GRU", func(o *Options) { o.Backbone = "gru" }},
	{"per-slot", func(o *Options) { o.SharedWeights = false }},
}

// perCarrierTwin returns a model sharing every parameter of p, a model
// with one shared backbone, whose MaxCC per-slot backbone instances all
// alias that backbone: the twin runs each carrier as a one-lane pass.
func perCarrierTwin(p *Prism5G) *Prism5G {
	o := p.Opts
	o.SharedWeights = false
	ref := New(o, p.histT)
	for i := range ref.lstm {
		ref.lstm[i] = p.lstm[0]
	}
	for i := range ref.gru {
		ref.gru[i] = p.gru[0]
	}
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

// TestBatchedPrismMatchesPerCarrier pins a shared backbone's carrier lanes
// to one-lane passes, one per carrier: equal Predict bits, and equal bits
// in every parameter gradient after one ForwardBackward, for the default,
// NoState, NoFusion and GRU models at Hidden 6 (one 16-row block plus a
// scalar tail per gate matrix) and 32, on windows with 0 to 3 inactive
// carriers.
func TestBatchedPrismMatchesPerCarrier(t *testing.T) {
	for _, v := range prismVariants[:4] {
		for _, hidden := range []int{6, 32} {
			o := smallOpts()
			o.Hidden = hidden
			p := v.build(o)
			ref := perCarrierTwin(p)
			src := rng.New(uint64(hidden))
			for inactive := 0; inactive < trace.MaxCC; inactive++ {
				w := refWindow(src, p.histT, trace.MaxCC-inactive)
				where := func(what string) string {
					return fmt.Sprintf("%s, Hidden %d, %d inactive: %s", v.name, hidden, inactive, what)
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
				for i, prm := range p.Params() { // the twin's, with the shared backbone listed once
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
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestPredictAllocatesOnlyResult pins every variant's Predict at one
// allocation per call, the returned forecast: every intermediate comes
// from pooled scratch.
func TestPredictAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops scratch at random")
	}
	w := synthWindow(1)
	for _, v := range prismVariants {
		p := v.build(DefaultOptions())
		if allocs := testing.AllocsPerRun(100, func() { p.Predict(w) }); allocs != 1 {
			t.Errorf("%s: Predict allocated %v times per call; want 1, the returned forecast", v.name, allocs)
		}
	}
}

// TestPrismPredictConcurrent runs Predict on shared windows from eight
// goroutines, each on the pooled scratch, for every variant: each forecast
// must equal the serial one bit for bit.
func TestPrismPredictConcurrent(t *testing.T) {
	ws := make([]trace.Window, 8)
	for i := range ws {
		ws[i] = refWindow(rng.New(uint64(i)), 10, 1+i%trace.MaxCC)
	}
	for _, v := range prismVariants {
		p := v.build(smallOpts())
		want := make([][]float64, len(ws))
		for i, w := range ws {
			want[i] = p.Predict(w)
		}
		const goroutines, rounds = 8, 4
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < rounds*len(ws); k++ {
					i := (k + g) % len(ws) // goroutines start on different windows
					got := p.Predict(ws[i])
					for j := range want[i] {
						if len(got) != len(want[i]) || math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
							t.Errorf("%s window %d: %v concurrently, %v serially", v.name, i, got, want[i])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// sinkForecast keeps benchmark results alive.
var sinkForecast []float64

// benchVariants times run on each variant at the served width (Hidden 32)
// and one window.
func benchVariants(b *testing.B, run func(p *Prism5G, w trace.Window)) {
	w := synthWindow(1)
	for _, v := range prismVariants {
		p := v.build(DefaultOptions())
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(p, w)
			}
		})
	}
}

// BenchmarkPredict times one served forecast of each variant.
func BenchmarkPredict(b *testing.B) {
	benchVariants(b, func(p *Prism5G, w trace.Window) { sinkForecast = p.Predict(w) })
}

// BenchmarkForwardBackward times one training step's forward and backward
// pass of each variant on one window.
func BenchmarkForwardBackward(b *testing.B) {
	benchVariants(b, func(p *Prism5G, w trace.Window) { sinkForecast = p.ForwardBackward(w, 1) })
}

// BenchmarkPrismTrain times Prism5G training at the shape of the server's
// bootstrap: Hidden 32, 202 training and 81 validation windows of 10
// steps, batches of 128, two epochs. It reports training windows per
// second; the worker count follows -cpu.
func BenchmarkPrismTrain(b *testing.B) {
	ws := make([]trace.Window, 202+81)
	for i := range ws {
		ws[i] = refWindow(rng.New(uint64(i)), 10, 1+i%trace.MaxCC)
	}
	train, val := ws[:202], ws[202:]
	o := DefaultOptions()
	o.Train = predictors.TrainOpts{Epochs: 2, Batch: 128, LR: 0.01, Patience: 12, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	windows := 0
	for i := 0; i < b.N; i++ {
		rep := New(o, 10).Train(train, val) // a fresh model: training moves the weights
		windows += rep.Epochs * len(train)
	}
	b.ReportMetric(float64(windows)/b.Elapsed().Seconds(), "windows/s")
}

// seqOnly hides a model's ForwardBackwardBatch, so the training loop runs
// it window by window.
type seqOnly struct{ p *Prism5G }

func (s seqOnly) Params() []*nn.Param { return s.p.Params() }

func (s seqOnly) ForwardBackward(w trace.Window, gScale float64) []float64 {
	return s.p.ForwardBackward(w, gScale)
}

// TestForwardBackwardBatchMatchesSerial pins the parallel minibatch to the
// window-by-window path, for every variant at batch sizes 1, 2, 5, 17 and
// 128 over windows with 0 to 3 gated-off carriers:
//
//   - ForwardBackwardBatch(ws, g) equals len(ws) successive
//     ForwardBackward(w, g) calls in every prediction bit and, from the
//     same nonzero starting gradients, every Param.Grad bit; with g = 0 its
//     predictions equal Predict's and no gradient moves.
//   - TrainLoop through the batch path equals TrainLoop through seqOnly in
//     the final weights and every epoch statistic (trainDigest).
//
// The worker count is GOMAXPROCS: run with -cpu 1,2,4.
func TestForwardBackwardBatchMatchesSerial(t *testing.T) {
	src := rng.New(17)
	ws := make([]trace.Window, 128)
	for i := range ws {
		ws[i] = refWindow(src, 10, trace.MaxCC-i%trace.MaxCC)
	}
	for _, v := range prismVariants {
		o := smallOpts()
		o.Hidden = 6
		p := v.build(o)
		start := make([][]float64, len(p.Params()))
		for i, prm := range p.Params() {
			start[i] = make([]float64, len(prm.Grad))
			for j := range start[i] {
				start[i][j] = src.Float64() - 0.5
			}
		}
		setGrads := func() {
			for i, prm := range p.Params() {
				copy(prm.Grad, start[i])
			}
		}
		for _, n := range []int{1, 2, 5, 17, 128} {
			where := func(what string) string { return fmt.Sprintf("%s, batch %d: %s", v.name, n, what) }
			b := ws[:n]
			for _, g := range []float64{1 / float64(n), 0} {
				setGrads()
				var ys [][]float64
				for _, y := range p.ForwardBackwardBatch(b, g) {
					ys = append(ys, append([]float64(nil), y...))
				}
				var grads [][]float64
				for _, prm := range p.Params() {
					grads = append(grads, append([]float64(nil), prm.Grad...))
				}
				setGrads()
				for i, w := range b {
					want := p.Predict(w)
					if g > 0 {
						want = p.ForwardBackward(w, g)
					}
					sameBits(t, where(fmt.Sprintf("gScale %v, prediction %d", g, i)), ys[i], want)
				}
				for i, prm := range p.Params() {
					sameBits(t, where(fmt.Sprintf("gScale %v, %s grad", g, prm.Name)), grads[i], prm.Grad)
				}
			}
		}

		opts := predictors.TrainOpts{Epochs: 2, Batch: 17, LR: 0.01, Patience: 2, Seed: 3}
		o.Train = opts
		batched, serial := v.build(o), v.build(o)
		want := trainDigest(serial, predictors.TrainLoop(seqOnly{serial}, ws[:40], ws[40:49], opts))
		if got := trainDigest(batched, predictors.TrainLoop(batched, ws[:40], ws[40:49], opts)); got != want {
			t.Errorf("%s: TrainLoop digest %s through the batch path, %s window by window", v.name, got, want)
		}
	}
}

// TestForwardBackwardBatchRaisesPanics pins a worker's panic to the
// caller: a window too short for the model's history panics in its worker,
// and ForwardBackwardBatch raises it on the caller's goroutine, where
// Resilient.Train and par's tasks recover panics, instead of crashing the
// process or leaving the other workers waiting for its commit. The model
// then trains on as before.
func TestForwardBackwardBatchRaisesPanics(t *testing.T) {
	src := rng.New(5)
	ws := make([]trace.Window, 40)
	for i := range ws {
		ws[i] = refWindow(src, 10, 1+i%trace.MaxCC)
	}
	bad := append([]trace.Window(nil), ws...)
	bad[13] = refWindow(src, 5, 2) // 5 steps of history for a 10-step model
	p := New(smallOpts(), 10)
	for _, g := range []float64{0.1, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("gScale %v: no panic from a 5-step window", g)
				}
			}()
			p.ForwardBackwardBatch(bad, g)
		}()
	}
	nn.ZeroGrads(p)
	var ys [][]float64
	for _, y := range p.ForwardBackwardBatch(ws, 0.1) {
		ys = append(ys, append([]float64(nil), y...))
	}
	var grads [][]float64
	for _, prm := range p.Params() {
		grads = append(grads, append([]float64(nil), prm.Grad...))
	}
	nn.ZeroGrads(p)
	for i, w := range ws {
		sameBits(t, fmt.Sprintf("after the panic, prediction %d", i), ys[i], p.ForwardBackward(w, 0.1))
	}
	for i, prm := range p.Params() {
		sameBits(t, "after the panic, "+prm.Name+" grad", grads[i], prm.Grad)
	}
}
