package core

import (
	"math"
	"strings"
	"testing"

	"prism5g/internal/nn"
	"prism5g/internal/predictors"
	"prism5g/internal/rng"
	"prism5g/internal/trace"
)

// synthWindow builds one deterministic window with two active CCs and an
// event marker on slot 2.
func synthWindow(seed uint64) trace.Window {
	src := rng.New(seed)
	T, H := 10, 10
	w := trace.NewWindow(T, H)
	for c := 0; c < trace.MaxCC; c++ {
		for t := 0; t < T; t++ {
			vec := w.Feat(c, t)
			if c < 2 {
				vec[trace.FActive] = 1
				for f := trace.FBWMHz; f < trace.NumCCFeatures; f++ {
					vec[f] = src.Float64()
				}
			}
			if c == 2 && t > 6 {
				vec[trace.FEvent] = 1 // pending SCell
				vec[trace.FRSRP] = 0.7
				vec[trace.FBWMHz] = 0.4
			}
		}
		for h := 0; h < H; h++ {
			if c < 2 {
				w.YPerCC(c)[h] = 0.25 + 0.05*float64(c)
			}
			if c == 2 {
				w.YPerCC(c)[h] = 0.15 // the pending SCell ramps up
			}
		}
	}
	for t := 0; t < T; t++ {
		w.AggHist()[t] = 0.5 + 0.02*src.Norm()
	}
	for h := 0; h < H; h++ {
		w.Y()[h] = w.YPerCC(0)[h] + w.YPerCC(1)[h] + w.YPerCC(2)[h]
	}
	return w
}

func smallOpts() Options {
	o := DefaultOptions()
	o.Hidden = 8
	o.Train = predictors.TrainOpts{Epochs: 30, Batch: 32, LR: 0.01, Patience: 8, Seed: 1}
	return o
}

func TestPrismForwardShapeAndDeterminism(t *testing.T) {
	p := New(smallOpts(), 10)
	w := synthWindow(1)
	y1 := p.Predict(w)
	y2 := p.Predict(w)
	if len(y1) != 10 {
		t.Fatalf("horizon = %d", len(y1))
	}
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("prediction not deterministic")
		}
		if math.IsNaN(y1[i]) || math.IsInf(y1[i], 0) {
			t.Fatal("non-finite prediction")
		}
	}
	// Aggregate equals the sum of per-CC heads, bit for bit: both come
	// from one forward pass and are summed in the same order.
	per := p.PredictPerCC(w)
	for h := 0; h < 10; h++ {
		sum := 0.0
		for c := 0; c < trace.MaxCC; c++ {
			sum += per[c][h]
		}
		if math.Float64bits(sum) != math.Float64bits(y1[h]) {
			t.Fatalf("per-CC sum %v != aggregate %v at step %d", sum, y1[h], h)
		}
	}
}

// prismLoss is the loss whose gradient forward adds: the aggregate's mean
// squared error plus the weighted per-carrier ones.
func prismLoss(p *Prism5G, w trace.Window) float64 {
	mse := func(pred, target []float64) float64 {
		s := 0.0
		for i := range pred {
			d := pred[i] - target[i]
			s += d * d
		}
		return s / float64(len(pred))
	}
	l := mse(p.forward(w, 0, nil), w.Y())
	per := p.PredictPerCC(w)
	aux := 0.0
	for c := 0; c < trace.MaxCC; c++ {
		aux += mse(per[c], w.YPerCC(c))
	}
	return l + perCCLossWeight*aux/trace.MaxCC
}

func TestPrismGradients(t *testing.T) {
	// Full-model finite-difference gradient check on a single window.
	p := New(smallOpts(), 10)
	w := synthWindow(2)
	loss := func() float64 { return prismLoss(p, w) }
	nn.ZeroGrads(p)
	p.forward(w, 1, nil)
	const eps = 1e-5
	for _, prm := range p.Params() {
		stride := prm.Size() / 12
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < prm.Size(); i += stride {
			orig := prm.W[i]
			prm.W[i] = orig + eps
			up := loss()
			prm.W[i] = orig - eps
			down := loss()
			prm.W[i] = orig
			want := (up - down) / (2 * eps)
			got := prm.Grad[i]
			tol := 1e-4 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("%s[%d]: analytic %.8f vs numeric %.8f", prm.Name, i, got, want)
			}
		}
	}
}

func TestPrismMaskGating(t *testing.T) {
	// With state gating, features of inactive eventless CCs must not
	// affect the output.
	p := New(smallOpts(), 10)
	w := synthWindow(3)
	y1 := p.Predict(w)
	// Perturb slot 3 (absent: mask 0, no event).
	for tstep := 0; tstep < 10; tstep++ {
		w.Feat(3, tstep)[trace.FRSRP] = 0.9
		w.Feat(3, tstep)[trace.FTput] = 0.9
	}
	y2 := p.Predict(w)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("gated-out CC features leaked into the prediction")
		}
	}
	// The NoState ablation does consume them.
	ns := NewNoState(smallOpts(), 10)
	w2 := synthWindow(3)
	z1 := ns.Predict(w2)
	for tstep := 0; tstep < 10; tstep++ {
		w2.Feat(3, tstep)[trace.FRSRP] = 0.9
	}
	z2 := ns.Predict(w2)
	diff := false
	for i := range z1 {
		if z1[i] != z2[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("NoState ablation ignored raw features")
	}
}

func TestPrismEventVisibleThroughGate(t *testing.T) {
	// A pending SCell (event=1, inactive) must influence the prediction:
	// that is the transition lead.
	p := New(smallOpts(), 10)
	w := synthWindow(4)
	y1 := p.Predict(w)
	for tstep := 7; tstep < 10; tstep++ {
		w.Feat(2, tstep)[trace.FEvent] = 0 // erase the pending event
	}
	y2 := p.Predict(w)
	diff := false
	for i := range y1 {
		if y1[i] != y2[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("event channel had no effect on prediction")
	}
}

func TestPrismNames(t *testing.T) {
	if New(smallOpts(), 10).Name() != "Prism5G" {
		t.Fatal("name")
	}
	if NewNoState(smallOpts(), 10).Name() != "Prism5G-NoState" {
		t.Fatal("nostate name")
	}
	if NewNoFusion(smallOpts(), 10).Name() != "Prism5G-NoFusion" {
		t.Fatal("nofusion name")
	}
	gru := smallOpts()
	gru.Backbone = "gru"
	if got := New(gru, 10).Name(); got != "Prism5G-GRU" {
		t.Fatalf("gru name %q", got)
	}
	unshared := smallOpts()
	unshared.SharedWeights = false
	if got := New(unshared, 10).Name(); got != "Prism5G-Unshared" {
		t.Fatalf("unshared name %q", got)
	}
	// The Table 13 ablations keep their names on either design choice.
	if got := NewNoState(gru, 10).Name(); got != "Prism5G-NoState" {
		t.Fatalf("gru nostate name %q", got)
	}
}

// TestPrismUnknownBackbonePanics requires New to refuse a backbone it does
// not build instead of training the default LSTM under that name.
func TestPrismUnknownBackbonePanics(t *testing.T) {
	for _, name := range []string{"GRU", "rnn"} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "lstm, gru") {
					t.Errorf("backbone %q: recovered %v, want a panic naming the known backbones", name, r)
				}
			}()
			o := smallOpts()
			o.Backbone = name
			New(o, 10)
		}()
	}
}

func TestPrismParamsByVariant(t *testing.T) {
	full := nn.NumParams(New(smallOpts(), 10))
	noState := nn.NumParams(NewNoState(smallOpts(), 10))
	noFusion := nn.NumParams(NewNoFusion(smallOpts(), 10))
	if !(noState < full) {
		t.Fatal("NoState should drop the embedding parameters")
	}
	if !(noFusion < full) {
		t.Fatal("NoFusion should drop the fusion parameters")
	}
}

// synthProblem builds a learnable dataset where the aggregate is the sum of
// two CC regimes with an event-led transition.
func synthProblem(seed uint64) (train, val, test []trace.Window) {
	src := rng.New(seed)
	var ws []trace.Window
	for i := 0; i < 260; i++ {
		w := synthWindow(src.Uint64())
		// Vary the target so there is something to learn: scale by the
		// window's mean history.
		m := 0.0
		for _, v := range w.AggHist() {
			m += v / float64(len(w.AggHist()))
		}
		for h := range w.Y() {
			w.Y()[h] = m * 0.9
			for c := 0; c < trace.MaxCC; c++ {
				w.YPerCC(c)[h] = m * 0.3
			}
		}
		ws = append(ws, w)
	}
	return ws[:160], ws[160:200], ws[200:]
}

func TestPrismTrainsAndImproves(t *testing.T) {
	train, val, test := synthProblem(5)
	p := New(smallOpts(), 10)
	before := predictors.Evaluate(p, test)
	rep := p.Train(train, val)
	after := predictors.Evaluate(p, test)
	if rep.Epochs == 0 {
		t.Fatal("no training happened")
	}
	if after >= before {
		t.Fatalf("training did not improve RMSE: %.4f -> %.4f", before, after)
	}
	if after > 0.05 {
		t.Fatalf("failed to fit simple problem: RMSE %.4f", after)
	}
}

func TestPrismImplementsPredictor(t *testing.T) {
	var _ predictors.Predictor = New(smallOpts(), 10)
	var _ predictors.SeqModel = New(smallOpts(), 10)
}

func TestPrismGRUBackbone(t *testing.T) {
	o := smallOpts()
	o.Backbone = "gru"
	p := New(o, 10)
	w := synthWindow(6)
	y := p.Predict(w)
	if len(y) != 10 {
		t.Fatalf("horizon = %d", len(y))
	}
	// The GRU variant must also pass the full-model gradient check.
	loss := func() float64 { return prismLoss(p, w) }
	nn.ZeroGrads(p)
	p.forward(w, 1, nil)
	const eps = 1e-5
	for _, prm := range p.Params() {
		stride := prm.Size() / 8
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < prm.Size(); i += stride {
			orig := prm.W[i]
			prm.W[i] = orig + eps
			up := loss()
			prm.W[i] = orig - eps
			down := loss()
			prm.W[i] = orig
			want := (up - down) / (2 * eps)
			got := prm.Grad[i]
			tol := 1e-4 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("%s[%d]: analytic %.8f vs numeric %.8f", prm.Name, i, got, want)
			}
		}
	}
}

func TestPrismUnsharedWeights(t *testing.T) {
	shared := New(smallOpts(), 10)
	o := smallOpts()
	o.SharedWeights = false
	unshared := New(o, 10)
	if nn.NumParams(unshared) <= nn.NumParams(shared) {
		t.Fatal("unshared variant should have more parameters")
	}
	// Both train and predict.
	train, val, test := synthProblem(7)
	unshared.Train(train[:80], val[:20])
	y := unshared.Predict(test[0])
	if len(y) != 10 {
		t.Fatal("horizon wrong")
	}
	for _, v := range y {
		if math.IsNaN(v) {
			t.Fatal("NaN prediction")
		}
	}
}

// TestPrismBackboneDefault requires an unset Backbone to build the
// paper's default, one LSTM shared by every carrier. Params must open
// with the weights of a freshly built LSTM (4H·F, 4H·H and 4H, the forget
// gate's bias at 1) under the first slot's name, followed directly by the
// embedding's, so a GRU (3H rows) or one instance per slot (prism.rnn1
// next) fails. An explicit "lstm" must then forecast the same bits.
func TestPrismBackboneDefault(t *testing.T) {
	o := smallOpts()
	o.Backbone = ""
	p := New(o, 10)
	if len(p.lstm) != 1 || len(p.gru) != 0 {
		t.Fatalf("%d LSTM and %d GRU instances, want one shared LSTM", len(p.lstm), len(p.gru))
	}
	ref := nn.NewLSTM("prism.rnn0", trace.NumCCFeatures, o.Hidden, rng.New(0)).Params()
	got := p.Params()
	if len(got) <= len(ref) {
		t.Fatalf("%d parameters, want more than the LSTM's %d", len(got), len(ref))
	}
	for i, prm := range ref {
		if got[i].Name != prm.Name || got[i].Size() != prm.Size() {
			t.Fatalf("parameter %d is %s (%d), want %s (%d)", i, got[i].Name, got[i].Size(), prm.Name, prm.Size())
		}
	}
	sameBits(t, "LSTM bias", got[len(ref)-1].W, ref[len(ref)-1].W)
	if next := got[len(ref)]; next != p.embed.Params()[0] {
		t.Fatalf("parameter %d is %s, want the embedding's first", len(ref), next.Name)
	}
	w := synthWindow(3)
	o.Backbone = "lstm"
	sameBits(t, "Predict", p.Predict(w), New(o, 10).Predict(w))
}
