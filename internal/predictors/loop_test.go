package predictors

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"prism5g/internal/nn"
	"prism5g/internal/trace"
)

// runDigest hashes what a training run leaves behind: the final weights,
// every EpochStat field but Duration, and the report's scalars. NaNs hash
// as one canonical pattern.
func runDigest(ps []*nn.Param, rep TrainReport) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		bits := math.Float64bits(v)
		if math.IsNaN(v) {
			bits = 0x7ff8000000000001
		}
		binary.LittleEndian.PutUint64(b[:], bits)
		h.Write(b[:])
	}
	for _, p := range ps {
		for _, w := range p.W {
			put(w)
		}
	}
	for _, es := range rep.EpochStats {
		put(float64(es.Epoch))
		put(es.TrainRMSE)
		put(es.ValRMSE)
		put(es.LR)
		put(es.GradNorm)
	}
	diverged := 0.0
	if rep.Diverged {
		diverged = 1
	}
	for _, v := range []float64{float64(rep.Epochs), rep.TrainRMSE, rep.ValRMSE, float64(rep.Retries), diverged} {
		put(v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// poisonedProblem is the synthetic problem with one NaN window spliced
// into the training and validation sets, so both loops exercise their
// window filters.
func poisonedProblem(t *testing.T) (train, val []trace.Window) {
	_, _, tr, va, _ := problem(t, 31)
	poison := mkWindow(10, 10, 0.5)
	poison.AggHist()[3] = math.NaN()
	train = append(append(append([]trace.Window{}, tr[:50]...), poison), tr[50:]...)
	val = append(append(append([]trace.Window{}, va[:20]...), poison), va[20:]...)
	return train, val
}

// loopModels builds one fresh instance of each neural baseline: the LSTM
// trains on the batched path, TCN and Lumos5G on the per-sample path.
func loopModels(opts TrainOpts) map[string]SeqModel {
	return map[string]SeqModel{
		"LSTM":    NewLSTMPredictor(8, 10, opts),
		"TCN":     NewTCNPredictor(8, 10, opts),
		"Lumos5G": NewLumos5G(8, 10, opts),
	}
}

// trainBoth runs m through TrainLoop (stream false) or TrainLoopStream.
func trainBoth(t *testing.T, m SeqModel, train, val []trace.Window, opts TrainOpts, stream bool) TrainReport {
	t.Helper()
	if !stream {
		return TrainLoop(m, train, val, opts)
	}
	rep, err := TrainLoopStream(m, trace.NewSliceStream(train), trace.NewSliceStream(val), opts)
	if err != nil {
		t.Fatalf("TrainLoopStream: %v", err)
	}
	return rep
}

// TestTrainLoopsPinned pins both training entry points to digests of their
// final weights and per-epoch statistics. The training set holds more than
// two shuffle buffers (Batch*shuffleChunks) of windows and one NaN window;
// the brittle model's case runs every rollback. Like the conformance
// goldens, the digests assume amd64 with FMA.
func TestTrainLoopsPinned(t *testing.T) {
	want := map[string]string{
		"LSTM/slice":     "92c0e4d3d5c8bfa0",
		"LSTM/stream":    "8c21cc52f0004a42",
		"TCN/slice":      "3d2df783744455af",
		"TCN/stream":     "1eaa556960a2dcb9",
		"Lumos5G/slice":  "684075f346291b87",
		"Lumos5G/stream": "117384d930f69d17",
		"brittle/slice":  "da70f1ba0674999d",
		"brittle/stream": "da70f1ba0674999d",
	}
	train, val := poisonedProblem(t)
	opts := TrainOpts{Epochs: 4, Batch: 8, LR: 0.01, Patience: 2, Seed: 3}
	if n := opts.Batch * shuffleChunks; len(train) <= 2*n {
		t.Fatalf("%d training windows fill the %d-window shuffle buffer at most twice", len(train), n)
	}
	brittleOpts := TrainOpts{Epochs: 5, Batch: 2, LR: 0.1, Patience: 3, Seed: 1}
	brittleTrain := []trace.Window{mkWindow(10, 10, 0.5), mkWindow(10, 10, 0.4)}
	brittleVal := []trace.Window{mkWindow(10, 10, 0.45)}
	for _, stream := range []bool{false, true} {
		kind := "slice"
		if stream {
			kind = "stream"
		}
		for name, m := range loopModels(opts) {
			rep := trainBoth(t, m, train, val, opts, stream)
			if got := runDigest(m.Params(), rep); got != want[name+"/"+kind] {
				t.Errorf("%s/%s: digest %s, want %s (%s)", name, kind, got, want[name+"/"+kind], rep)
			}
		}
		m := &brittleModel{p: nn.NewParam("w", 1)}
		m.p.W[0] = 0.5
		rep := trainBoth(t, m, brittleTrain, brittleVal, brittleOpts, stream)
		if got := runDigest(m.Params(), rep); got != want["brittle/"+kind] {
			t.Errorf("brittle/%s: digest %s, want %s (%s)", kind, got, want["brittle/"+kind], rep)
		}
	}
}

// TestStreamedEpochMatchesSlice is the streamed ≡ slice law: with a
// shuffle buffer that holds the whole training set, one epoch of
// TrainLoopStream is one epoch of TrainLoop bit for bit. Later epochs
// differ by design: the slice loop reshuffles its previous order, while
// the stream re-reads in stream order.
func TestStreamedEpochMatchesSlice(t *testing.T) {
	train, val := poisonedProblem(t)
	opts := TrainOpts{Epochs: 1, Batch: 32, LR: 0.01, Patience: 2, Seed: 5}
	if n := opts.Batch * shuffleChunks; len(train) > n {
		t.Fatalf("%d training windows overflow the %d-window shuffle buffer", len(train), n)
	}
	slice, streamed := loopModels(opts), loopModels(opts)
	for name, m := range slice {
		a := runDigest(m.Params(), trainBoth(t, m, train, val, opts, false))
		s := streamed[name]
		if b := runDigest(s.Params(), trainBoth(t, s, train, val, opts, true)); a != b {
			t.Errorf("%s: streamed epoch %s differs from slice epoch %s", name, b, a)
		}
	}
}

// TestTrainLoopDefaultsBatch checks that a non-positive Batch trains with
// the default minibatch of 128 instead of spinning on an empty batch.
func TestTrainLoopDefaultsBatch(t *testing.T) {
	var train []trace.Window
	for i := 0; i < 12; i++ {
		train = append(train, mkWindow(10, 10, 0.3+0.02*float64(i)))
	}
	val := train[:4]
	// run stays off t: it also runs on a goroutine of its own.
	run := func(batch int, stream bool) (string, error) {
		opts := TrainOpts{Epochs: 2, Batch: batch, LR: 0.01, Patience: 2, Seed: 1}
		m := NewTCNPredictor(4, 10, opts)
		if !stream {
			return runDigest(m.Params(), TrainLoop(m, train, val, opts)), nil
		}
		rep, err := TrainLoopStream(m, trace.NewSliceStream(train), trace.NewSliceStream(val), opts)
		return runDigest(m.Params(), rep), err
	}
	for _, stream := range []bool{false, true} {
		ref, err := run(128, stream)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{0, -1} {
			done := make(chan string, 1)
			go func() {
				got, err := run(batch, stream)
				if err != nil {
					t.Error(err)
				}
				done <- got
			}()
			select {
			case got := <-done:
				if got != ref {
					t.Errorf("stream=%v Batch=%d: digest %s, want Batch 128's %s", stream, batch, got, ref)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("stream=%v Batch=%d: training did not return", stream, batch)
			}
		}
	}
}
