package predictors

import (
	"math"
	"sync"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestNeuralPredictConcurrent calls Predict on shared windows from 8
// goroutines, as the forecast server does, and requires every answer to
// equal the serial one bit for bit: no two callers may share scratch.
func TestNeuralPredictConcurrent(t *testing.T) {
	_, _, _, _, test := problem(t, 5)
	ws := test[:16]
	opts := quickOpts()
	for _, p := range []Predictor{
		NewLSTMPredictor(16, 10, opts), NewTCNPredictor(16, 10, opts), NewLumos5G(16, 10, opts),
	} {
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
					if len(got) != len(want[i]) {
						t.Errorf("%s window %d: %d values, want %d", p.Name(), i, len(got), len(want[i]))
						return
					}
					for j := range got {
						if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
							t.Errorf("%s window %d [%d] = %v concurrently, %v serially", p.Name(), i, j, got[j], want[i][j])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestLSTMPredictAllocatesOnlyResult pins LSTMPredictor.Predict at one
// allocation per call, the returned forecast: the one-window minibatch
// runs on pooled scratch.
func TestLSTMPredictAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops scratch at random")
	}
	_, _, _, _, test := problem(t, 5)
	p := NewLSTMPredictor(16, 10, quickOpts())
	w := test[0]
	if allocs := testing.AllocsPerRun(100, func() { p.Predict(w) }); allocs > 1 {
		t.Fatalf("Predict allocated %v times per call; want 1, the returned forecast", allocs)
	}
}
