package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"prism5g/internal/predictors"
)

// trainDigest hashes what a training run leaves behind: every final weight,
// every EpochStat field but Duration, and the report's scalars. NaNs hash
// as one canonical pattern.
func trainDigest(p *Prism5G, rep predictors.TrainReport) string {
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
	for _, prm := range p.Params() {
		for _, w := range prm.W {
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

// TestPrismTrainingPinned pins Prism5G training at the width the server
// bootstraps (Hidden 32) to digests of its final weights and per-epoch
// statistics: the default model, the two Table 13 ablations (NoState,
// NoFusion), the GRU backbone and per-slot weights. The GRU and per-slot
// digests were recorded when those models still ran carrier by carrier,
// so they also lock the lanes to that path. Like the conformance goldens,
// the digests assume amd64 with FMA.
func TestPrismTrainingPinned(t *testing.T) {
	want := map[string]string{
		"default":  "c26c5aa56e68a452",
		"NoState":  "d85a571eedca8acb",
		"NoFusion": "d87a94af4823f4ff",
		"gru":      "0249352f6813ca70",
		"per-slot": "80de0d2585a0c2a8",
	}
	variants := map[string]func(*Options){
		"default":  func(*Options) {},
		"NoState":  func(o *Options) { o.UseState = false },
		"NoFusion": func(o *Options) { o.UseFusion = false },
		"gru":      func(o *Options) { o.Backbone = "gru" },
		"per-slot": func(o *Options) { o.SharedWeights = false },
	}
	train, val, _ := synthProblem(11)
	for name, set := range variants {
		o := DefaultOptions()
		o.Train = predictors.TrainOpts{Epochs: 3, Batch: 16, LR: 0.01, Patience: 3, Seed: 4}
		set(&o)
		p := New(o, 10)
		rep := p.Train(train[:64], val[:16])
		if got := trainDigest(p, rep); got != want[name] {
			t.Errorf("%s: digest %s, want %s (%s)", name, got, want[name], rep)
		}
	}
}
