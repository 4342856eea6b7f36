package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"prism5g/internal/core"
	"prism5g/internal/mobility"
	"prism5g/internal/obs"
	"prism5g/internal/predictors"
	"prism5g/internal/ran"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// TestServedMatchesOfflineAcrossSessionScript serves two small trained
// Prism5G models through a seeded session script: warmup, the first full
// history, a one-sample push, a push longer than the history, an LRU
// eviction and re-warm at MaxSessions 2, and a hot-swap. Every forecast
// must equal, bit for bit, InvertTput(Predict(MakeWindow(the session's
// last History samples))) of the model that answered.
func TestServedMatchesOfflineAcrossSessionScript(t *testing.T) {
	ds := sim.Build(sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Short},
		sim.BuildOpts{Traces: 2, SamplesPerTrace: 120, Seed: 61, Modem: ran.ModemX70, Workers: 1})
	sc := &trace.Scaler{}
	sc.Fit(ds.Traces)
	wopts := trace.DefaultWindowOpts()
	ws := trace.Windows(ds, sc, wopts)
	trainPrism := func(seed uint64) predictors.Predictor {
		o := core.DefaultOptions()
		o.Hidden = 6
		o.Train = predictors.TrainOpts{Epochs: 2, Batch: 32, LR: 0.01, Patience: 2, Seed: seed}
		p := core.New(o, wopts.History)
		p.Train(ws[:len(ws)/2], ws[len(ws)/2:])
		return p
	}
	models := map[string]predictors.Predictor{"prism-a": trainPrism(1), "prism-b": trainPrism(2)}
	srv := New("prism-a", models["prism-a"], sc, Config{
		Concurrency: 1,
		Deadline:    time.Minute, // no timeout may fire
		MaxSessions: 2,
		Reg:         obs.New(),
		Build: func(name string) (predictors.Predictor, error) {
			return models[name], nil
		},
	})
	h := srv.Handler()

	// offline is the forecast model m gives for a session holding held.
	offline := func(m predictors.Predictor, held []trace.Sample) []float64 {
		last := append([]trace.Sample(nil), held[len(held)-wopts.History:]...)
		y := m.Predict(trace.MakeWindow(&trace.Trace{Samples: last}, 0, 0, sc, wopts))
		for i := range y {
			y[i] = sc.InvertTput(y[i])
		}
		return y
	}

	samples := ds.Traces[0].Samples
	next := 0
	held := map[string][]trace.Sample{} // what each session should hold
	push := func(step, session string, n int, wantModel string) {
		t.Helper()
		batch := samples[next : next+n]
		next += n
		held[session] = append(held[session], batch...)
		body, err := json.Marshal(Request{Session: session, Samples: batch})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step, rec.Code, rec.Body.String())
		}
		resp := decodeResp(t, rec)
		if need := wopts.History - len(held[session]); need > 0 {
			if !resp.Warmup || resp.Need != need {
				t.Fatalf("%s: want warmup needing %d, got %+v", step, need, resp)
			}
			return
		}
		if resp.Warmup || resp.Degraded || resp.Model != wantModel {
			t.Fatalf("%s: want a clean %s forecast, got %+v", step, wantModel, resp)
		}
		if want := offline(models[resp.Model], held[session]); !bitsEqual(resp.ForecastMbps, want) {
			t.Fatalf("%s: served %v, offline %v", step, resp.ForecastMbps, want)
		}
	}

	push("warmup", "ue-a", 9, "prism-a")
	push("first full history", "ue-a", 1, "prism-a")
	push("one-sample push", "ue-a", 1, "prism-a")
	push("push longer than the history", "ue-a", wopts.History+3, "prism-a")
	push("second session warms", "ue-b", 4, "prism-a")
	push("third session evicts ue-a", "ue-c", wopts.History, "prism-a")
	delete(held, "ue-a")
	push("ue-a re-warms (evicting ue-b)", "ue-a", 3, "prism-a")
	delete(held, "ue-b")
	push("ue-a full again", "ue-a", 7, "prism-a")
	if n := srv.sessions.len(); n != 2 {
		t.Fatalf("store holds %d sessions, want 2", n)
	}

	if old, drained, err := srv.Swap("prism-b"); err != nil || old != "prism-a" || !drained {
		t.Fatalf("swap: old %q drained %v err %v", old, drained, err)
	}
	push("first forecast after the swap", "ue-a", 1, "prism-b")
	push("other session after the swap", "ue-c", 2, "prism-b")

	// The swap must show: the two models disagree on this history.
	if a, b := offline(models["prism-a"], held["ue-c"]), offline(models["prism-b"], held["ue-c"]); bitsEqual(a, b) {
		t.Fatal("the two models forecast identically; the swap step proves nothing")
	}
}
