package predictors

import (
	"math"
	"sync"
	"testing"

	"prism5g/internal/trace"
)

// flaky fails on a deterministic schedule: every 3rd call panics and every
// 5th returns a NaN, so concurrent callers hit every intervention path of
// the Resilient wrapper at once.
type flaky struct {
	mu sync.Mutex
	n  int
}

func (f *flaky) Name() string                                { return "flaky" }
func (f *flaky) Train(train, val []trace.Window) TrainReport { return TrainReport{} }

func (f *flaky) Predict(w trace.Window) []float64 {
	f.mu.Lock()
	f.n++
	n := f.n
	f.mu.Unlock()
	if n%3 == 0 {
		panic("flaky predict")
	}
	out := make([]float64, len(w.Y()))
	for i := range out {
		out[i] = 0.5
	}
	if n%5 == 0 {
		out[0] = math.NaN()
	}
	return out
}

// TestResilientConcurrentPredict hammers one shared wrapper from many
// goroutines — the forecast server's usage pattern — and checks, under the
// race detector, that every caller still gets a finite, full-length
// forecast and the intervention counters account for every failure.
func TestResilientConcurrentPredict(t *testing.T) {
	const goroutines = 8
	const perG = 50
	r := NewResilient(&flaky{}, 10)
	w := mkWindow(10, 10, 0.4)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				y, _ := r.PredictChecked(w)
				if len(y) != 10 {
					t.Errorf("forecast has %d steps, want 10", len(y))
					return
				}
				for j, v := range y {
					if !finite(v) {
						t.Errorf("forecast[%d] non-finite: %v", j, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	total := goroutines * perG
	wantPanics := total / 3
	if got := r.PredictPanicCount(); got != wantPanics {
		t.Fatalf("PredictPanicCount=%d, want %d", got, wantPanics)
	}
	// Every 5th call NaNs its first step, except when the call number is
	// also divisible by 3 (the panic preempts the NaN).
	wantNaN := 0
	for n := 5; n <= total; n += 5 {
		if n%3 != 0 {
			wantNaN++
		}
	}
	if got := r.SanitizedCount(); got != wantNaN {
		t.Fatalf("SanitizedCount=%d, want %d", got, wantNaN)
	}
	if r.Demoted() {
		t.Fatal("predict-path failures must not demote the wrapper")
	}
}
